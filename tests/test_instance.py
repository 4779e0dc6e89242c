"""Instance matrix: validation and serialization round-trips."""

import io
import json
import math
import os
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from boostcd import boost, fixtures, instance, structure
from boostcd.instance import (
    BoostInstance,
    InstanceValidationError,
    _load,
    _Stream,
    atomic_write_text,
    from_json,
    make_instance,
    read_instance,
    to_json,
    write_instance,
)
from boostcd.losses import make_loss
from references import planted


def test_validation_rejects_out_of_range_with_offenders():
    with pytest.raises(InstanceValidationError) as err:
        make_instance([[0.0, 1.5], [-2.0, 0.5]])
    assert err.value.offenders == [(0, 1), (1, 0)]
    with pytest.raises(InstanceValidationError) as err:
        make_instance([[math.nan]])
    assert err.value.offenders == [(0, 0)]


@pytest.mark.parametrize("entries, shown", [
    ([[math.nan, 0.5]], "(0,0)=nan"),
    ([[0.5, -math.inf]], "(0,1)=-inf"),
    ([[0.0, 1.5], [-2.0, 0.5]], "(0,1)=1.5, (1,0)=-2.0"),
])
def test_validation_message_prints_plain_floats(entries, shown):
    with pytest.raises(InstanceValidationError) as err:
        make_instance(entries)
    assert str(err.value).endswith(f"0-based: {shown}")
    assert "np." not in str(err.value)


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_instance([1.0, -1.0])  # 1-d
    with pytest.raises(ValueError):
        make_instance(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        make_instance(np.zeros((2, 2, 2)))
    with pytest.raises(TypeError, match="entries must be real numbers"):
        BoostInstance([["a"]])


def test_instance_is_immutable():
    inst = make_instance([[0.5, -0.5]])
    with pytest.raises(ValueError):
        inst.a[0, 0] = 0.0


def test_row_subset():
    inst = make_instance([[1.0], [0.0], [-1.0]])
    sub = inst.row_subset([2, 0])
    np.testing.assert_array_equal(sub.a, [[-1.0], [1.0]])
    np.testing.assert_array_equal(inst.row_subset(np.array([1, 1])).a, [[0.0], [0.0]])
    with pytest.raises(ValueError):
        inst.row_subset([])
    # numpy would read -1 as the last row and booleans as a mask
    for rows, named in [([-1], "-1"), ([0, 3], "3"), ([True, False, True], "True, False, True"),
                        (np.array([True, False, True]), "np.True_, np.False_, np.True_"),
                        ([1.0], "1.0"), (["0"], "'0'"), ([0, -2, 5], "-2, 5")]:
        with pytest.raises(ValueError, match=rf"integers in 0\.\.2; got {re.escape(named)}$"):
            inst.row_subset(rows)


AWKWARD = [[0.1, -1.0, 1.0 / 3.0, -0.0],
           [1e-17, 2.0 ** -1074, -0.9999999999999999, 0.0]]


def test_json_round_trip_bit_exact():
    # tobytes, because assert_array_equal does not see the sign of zero
    inst = make_instance(AWKWARD)
    back = from_json(to_json(inst))
    assert back.a.tobytes() == inst.a.tobytes()
    # and the text itself is stable
    assert to_json(back) == to_json(inst)


def test_json_writes_negative_zero_as_a_float():
    # "-0" would read back as the integer 0 in any JSON reader
    entries = json.loads(to_json(make_instance([[-0.0, 0.0]])))["entries"]
    assert [type(v) for v in entries[0]] == [float, float]
    assert [math.copysign(1.0, v) for v in entries[0]] == [-1.0, 1.0]


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=5),
                  elements=st.floats(min_value=-1.0, max_value=1.0)))
@settings(max_examples=150, deadline=None)
def test_serialization_round_trips_any_instance(a):
    inst = make_instance(a)
    assert from_json(to_json(inst)).a.tobytes() == inst.a.tobytes()


def test_json_shape_declaration_checked():
    inst = make_instance([[0.5], [-0.5]])
    obj = json.loads(to_json(inst))
    assert (obj["m"], obj["n"]) == (2, 1)
    obj["m"] = 3
    with pytest.raises(ValueError):
        from_json(json.dumps(obj))


def test_json_error_messages():
    with pytest.raises(ValueError):
        from_json("{not json")
    with pytest.raises(ValueError):
        from_json('{"entries": [[0.0]]}')  # missing m, n
    with pytest.raises(ValueError, match="malformed instance JSON"):
        from_json('{"m": 1, "n": 1, "entries": [[{}]]}')  # non-numeric entry
    with pytest.raises(ValueError, match="must be 2-dimensional"):
        from_json('{"m": 0, "n": 0, "entries": []}')
    with pytest.raises(ValueError, match='needs keys "m", "n", "entries"'):
        from_json("{}")
    with pytest.raises(ValueError, match="object keys must be strings"):
        from_json("{1: 2}")


def _entries_json(entries, m=1, n=2):
    return json.dumps({"m": m, "n": n, "entries": entries})


def test_json_rejects_numeric_strings():
    with pytest.raises(ValueError, match="malformed instance JSON"):
        from_json(_entries_json([["0.5", "1"]]))


def test_json_rejects_boolean_entries():
    with pytest.raises(ValueError, match="malformed instance JSON"):
        from_json(_entries_json([[True, False]]))


@pytest.mark.parametrize("m", [True, 1.0])
def test_json_rejects_a_shape_that_is_not_an_integer(m):
    with pytest.raises(ValueError, match="malformed instance JSON"):
        from_json(_entries_json([[0.5, 1.0]], m=m))


def test_read_instance_reads_json_under_any_suffix(tmp_path):
    inst = make_instance(AWKWARD)
    for name in ("inst.json", "inst", "inst.csv"):
        write_instance(inst, tmp_path / name)
        assert read_instance(tmp_path / name).a.tobytes() == inst.a.tobytes()
    (tmp_path / "rows.csv").write_text("0.5,0.5\n0.5,-0.5\n")
    with pytest.raises(ValueError, match="malformed instance JSON"):
        read_instance(tmp_path / "rows.csv")


def test_atomic_write_replaces_and_leaves_no_temp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old")
    atomic_write_text(path, "new")
    assert path.read_text() == "new"
    leftovers = [f for f in os.listdir(tmp_path) if f != "out.txt"]
    assert leftovers == []


def test_atomic_write_failure_keeps_the_old_text_and_no_temp(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    path.write_text("old")

    def fail(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_text(path, "new")
    assert path.read_text() == "old"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_atomic_write_gives_the_mode_of_a_plain_open(tmp_path):
    # a new file and a replaced one both get 0o666 less the umask; a temp
    # file from mkstemp made every written file 0o600
    old = os.umask(0o022)
    try:
        path = tmp_path / "out.txt"
        atomic_write_text(path, "first")
        assert os.stat(path).st_mode & 0o777 == 0o644
        os.chmod(path, 0o600)
        atomic_write_text(path, "second")
        assert os.stat(path).st_mode & 0o777 == 0o644
    finally:
        os.umask(old)
    assert path.read_text() == "second" and os.listdir(tmp_path) == ["out.txt"]


def _construction_paths(tmp_path):
    """(name, instance) for every way the package builds an instance."""
    entries = [[0.5, -1.0, 0.25], [1.0, 0.0, -0.5], [-0.125, 0.75, 1.0], [0.0, 1.0, 0.5]]
    inst = make_instance(entries)
    jpath = tmp_path / "inst.json"
    write_instance(inst, jpath)
    paths = [
        ("make_instance(list)", inst),
        ("make_instance(int list)", make_instance([[1, 0], [0, -1], [-1, 1]])),
        ("make_instance(C array)", make_instance(np.ascontiguousarray(entries))),
        ("make_instance(F array)", make_instance(np.asfortranarray(entries))),
        ("BoostInstance(inst.a)", BoostInstance(inst.a)),
        ("from_json", from_json(to_json(inst))),
        ("read_instance(json)", read_instance(jpath)),
        ("row_subset", inst.row_subset([3, 0, 2])),
        ("random_instance", fixtures.random_instance(np.random.default_rng(0), 6, 4)),
        ("random_by_regime", fixtures.random_by_regime("mixed", 0, entries="ternary")),
    ]
    paths += [(f"fixture {name}", make()) for name, make in fixtures.FIXTURES.items()]
    dec = structure.decompose(fixtures.confidence_4x3())
    paths += [("decompose off_core", dec.off_core), ("decompose core", dec.core)]
    return paths


def test_every_construction_path_stores_one_read_only_column_major_matrix(tmp_path):
    for name, inst in _construction_paths(tmp_path):
        a = inst.a
        assert a.dtype == np.float64, name
        assert a.flags.f_contiguous and not a.flags.writeable, name
        for j in range(inst.n):
            col = a[:, j]
            assert col.flags.c_contiguous and np.shares_memory(col, a), (name, j)


def test_json_names_a_row_of_the_wrong_length_or_kind():
    with pytest.raises(ValueError, match="malformed instance JSON: row 1 has 1 entries, expected 2"):
        from_json(_entries_json([[0.5, 1.0], [0.5], [0.0, 0.0]], m=3))
    with pytest.raises(ValueError, match="malformed instance JSON: row 1 is not a list"):
        from_json(_entries_json([[0.5, 1.0], 0.5], m=2))


class _Trickle(io.TextIOBase):
    """A text whose ``read`` returns at most ``step`` characters per call,
    so every value in it is cut at some chunk boundary."""

    def __init__(self, text, step):
        self.text, self.step, self.at = text, step, 0

    def read(self, size=-1):
        out = self.text[self.at:self.at + self.step]
        self.at += len(out)
        return out


STEPS = (1, 2, 3, 7)


def _one_line(a):
    # the layout the benchmark writes
    return json.dumps({"m": a.shape[0], "n": a.shape[1], "entries": a.tolist()})


@pytest.mark.parametrize("step", STEPS)
def test_chunked_read_round_trips_bit_exact_in_both_layouts(step):
    inst = make_instance(AWKWARD)
    for text in (to_json(inst), _one_line(inst.a)):
        assert _load(_Trickle(text, step)).a.tobytes() == inst.a.tobytes()


@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                               min_side=1, max_side=4),
                  elements=st.floats(min_value=-1.0, max_value=1.0)),
       st.sampled_from(STEPS))
@settings(max_examples=60, deadline=None)
def test_chunked_read_round_trips_any_instance(a, step):
    inst = make_instance(a)
    for text in (to_json(inst), _one_line(inst.a)):
        assert _load(_Trickle(text, step)).a.tobytes() == inst.a.tobytes()


@pytest.mark.parametrize("step", STEPS)
def test_chunked_read_takes_keys_in_any_order_and_extra_keys(step):
    # "1.5e-3" cut after "1." or "1.5e-" still decodes, as a shorter number
    text = ('{"note": {"by": ["x", 1, null]}, "n": 2, "margin": 1.5e-3, "entries": '
            '[[0.25, -0.0], [1, -1]], "seed": 12345678901234567890, "x": -20.0, "m": 2}')
    a = _load(_Trickle(text, step)).a
    assert a.tobytes() == np.array([[0.25, -0.0], [1.0, -1.0]]).tobytes()


@pytest.mark.parametrize("step", STEPS)
def test_chunked_read_rejects_every_proper_prefix(step):
    text = to_json(make_instance(AWKWARD))
    end = text.rindex("}")
    for k in range(end + 1):
        with pytest.raises(ValueError):
            _load(_Trickle(text[:k], step))


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("text", [
    '{"m": 1, "n": 2, "entries": [[0.5, 1.0]]} 0',
    '{"m": 1, "n": 2, "entries": [[0.5, 1.0]]}{}',
    '{"m": 1, "n": 2, "entries": [["0.5", 1.0]]}',
    '{"m": 1, "n": 2, "entries": [[0.5, true]]}',
    '{"m": 1, "n": 2, "entries": [[false, true]]}',
    '{"m": 1, "n": 2, "entries": [[[0.5], 1.0]]}',
    '{"m": 1, "n": 2, "entries": [[0.5, null]]}',
    '{"m": 1, "n": 2, "entries": [[0.5, 1.0],]}',
])
def test_chunked_read_rejects_trailing_data_and_entries_that_are_not_numbers(text, step):
    with pytest.raises(ValueError, match="malformed instance JSON"):
        _load(_Trickle(text, step))


_INVALID = "entries must be finite and in [-1, 1]; offending (row, col), 0-based: "
_INT30 = "1" * 30


# Rows that orjson refuses or reads otherwise than the stdlib decoder (NaN,
# infinities, numbers past the double range, text that is not one flat list
# up to the first "]"), and rows at the edges of what both read.  Each must
# give the stdlib decoder's outcome: the same bytes or the same error.
AWKWARD_ROWS = {
    "nan": ("[NaN, 0.5]", (InstanceValidationError, _INVALID + "(0,0)=nan")),
    "inf": ("[Infinity, 0.5]", (InstanceValidationError, _INVALID + "(0,0)=inf")),
    "-inf": ("[-Infinity, 0.5]", (InstanceValidationError, _INVALID + "(0,0)=-inf")),
    "1e400": ("[1e400, 0.5]", (InstanceValidationError, _INVALID + "(0,0)=inf")),
    "int400": (f"[{'1' * 400}, 0.5]",
               (ValueError, "malformed instance JSON: row 0 has an integer too large for a float")),
    "nested": ("[[0.5], 0.5]", (ValueError, "malformed instance JSON: "
                                "row 0 has an entry that is not a number: [0.5]")),
    "bracket-string": ('["x]", 0.5]', (ValueError, "malformed instance JSON: "
                                       "row 0 has an entry that is not a number: 'x]'")),
    "null": ("[null, 0.5]", (ValueError, "malformed instance JSON: "
                             "row 0 has an entry that is not a number: None")),
    "true": ("[true, 0.5]", (ValueError, "malformed instance JSON: "
                             "row 0 has an entry that is not a number: True")),
    "subnormal": ("[5e-324, -0.0]", [float("5e-324"), float("-0.0")]),
    "underflow-uint64": ("[1e-400, 12345678901234567890]", (
        InstanceValidationError, _INVALID + f"(0,1)={float(12345678901234567890)!r}")),
    "int30": (f"[{_INT30}, 0.5]",
              (InstanceValidationError, _INVALID + f"(0,0)={float(int(_INT30))!r}")),
}


@pytest.mark.parametrize("step", STEPS)
@pytest.mark.parametrize("row, outcome", AWKWARD_ROWS.values(), ids=AWKWARD_ROWS)
def test_awkward_rows_read_or_fail_as_the_stdlib_decoder_reads_them(row, outcome, step):
    # a plain row follows, read after the awkward one
    text = f'{{"m": 2, "n": 2, "entries": [{row}, [0.25, -0.5]]}}'
    if isinstance(outcome, list):
        a = _load(_Trickle(text, step)).a
        assert a.tobytes() == np.array([outcome, [0.25, -0.5]], order="F").tobytes()
        return
    exc_type, message = outcome
    with pytest.raises(exc_type) as err:
        _load(_Trickle(text, step))
    assert type(err.value) is exc_type
    assert str(err.value) == message


@pytest.mark.parametrize("value, shown", [
    ('"0.5"', "'0.5'"), ('{"a": 1}', "{'a': 1}"), ("false", "False"),
    ("true", "True"), ("null", "None"),
])
def test_non_numbers_in_rows_that_orjson_reads_are_named(value, shown):
    # orjson reads these rows; their entries are still checked, since each
    # row's text holds the first character of a value other than a number
    text = f'{{"m": 2, "n": 2, "entries": [[0.25, -0.5], [0.5, {value}]]}}'
    with pytest.raises(ValueError) as err:
        from_json(text)
    assert type(err.value) is ValueError
    assert str(err.value) == ("malformed instance JSON: "
                              f"row 1 has an entry that is not a number: {shown}")


@pytest.mark.parametrize("step", STEPS + (1 << 16,))
def test_well_formed_rows_never_reach_the_stdlib_decoder(step, monkeypatch):
    # only the three keys and the values of "m" and "n" are decoded by
    # _Stream.value, however many rows there are
    calls = []
    value = _Stream.value

    def counted(self):
        calls.append(1)
        return value(self)

    monkeypatch.setattr(_Stream, "value", counted)
    inst = fixtures.random_instance(np.random.default_rng(7), 40, 6)
    for text in (to_json(inst), _one_line(inst.a)):
        calls.clear()
        assert _load(_Trickle(text, step)).a.tobytes() == inst.a.tobytes()
        assert len(calls) == 5


def _each_read(text, tmp_path):
    """Ways to read ``text`` with its length known, as every caller but a
    direct ``_load`` knows it: by from_json, by read_instance, and chunk by
    chunk so every value is cut at some boundary."""
    path = tmp_path / "inst.json"
    path.write_text(text, encoding="utf-8")
    yield lambda: from_json(text)
    yield lambda: read_instance(path)
    for step in STEPS:
        yield lambda step=step: _load(_Trickle(text, step), len(text))


@pytest.mark.parametrize("a", [AWKWARD, fixtures.random_instance(np.random.default_rng(7), 40, 6).a],
                         ids=["awkward", "random-40x6"])
def test_an_honest_header_fills_the_instance_matrix_in_place(a, tmp_path, monkeypatch):
    # with "m" and "n" first, the rows go straight into the instance's
    # matrix: the constructor, which would copy it, is never called
    inst = make_instance(a)

    def copied(entries):
        raise AssertionError("the read matrix was copied")

    monkeypatch.setattr(instance, "_validated_matrix", copied)
    for text in (to_json(inst), _one_line(inst.a)):
        for read in _each_read(text, tmp_path):
            back = read()
            assert back.a.tobytes() == inst.a.tobytes()
            assert back.a.flags.f_contiguous and not back.a.flags.writeable


@pytest.mark.parametrize("row, outcome", AWKWARD_ROWS.values(), ids=AWKWARD_ROWS)
def test_awkward_rows_fail_alike_when_filled_in_place(row, outcome, tmp_path):
    text = f'{{"m": 2, "n": 2, "entries": [{row}, [0.25, -0.5]]}}'
    for read in _each_read(text, tmp_path):
        if isinstance(outcome, list):
            assert read().a.tobytes() == np.array([outcome, [0.25, -0.5]], order="F").tobytes()
            continue
        exc_type, message = outcome
        with pytest.raises(exc_type) as err:
            read()
        assert type(err.value) is exc_type
        assert str(err.value) == message


_ROWS = [[0.5, -0.5], [0.25, 0.0], [0.75, -0.75]]
_OUT_OF_RANGE_ROWS = [[0.5, -0.5], [0.25, 0.0], [1.5, -0.75]]


@pytest.mark.parametrize("m, n", [(1, 2), (2, 2), (4, 2), (3, 1), (3, 3)],
                         ids=["m-below", "m-one-below", "m-above", "n-below", "n-above"])
def test_a_header_the_rows_do_not_fit_fails_as_the_row_list_does(m, n, tmp_path):
    # the reader fills the declared matrix until the rows outrun m, stop
    # short of it or are not n long, then keeps them as a list: every
    # outcome is the one the row list always gave, an out-of-range entry
    # past row m included
    for rows, exc_type, message, offenders in [
        (_ROWS, ValueError, f"declared shape ({m}, {n}) does not match entries shape (3, 2)", []),
        (_OUT_OF_RANGE_ROWS, InstanceValidationError, _INVALID + "(2,0)=1.5", [(2, 0)]),
    ]:
        text = json.dumps({"m": m, "n": n, "entries": rows})
        for read in _each_read(text, tmp_path):
            with pytest.raises(exc_type) as err:
                read()
            assert type(err.value) is exc_type
            assert str(err.value) == message
            assert getattr(err.value, "offenders", []) == offenders


@pytest.mark.parametrize("m, n", [(10**9, 10**9), (10**6, 2)])
def test_a_header_its_text_cannot_hold_allocates_nothing_large(m, n, tmp_path):
    # the declared 10^6 x 2 matrix would be 16 MB; the text holds one row
    text = json.dumps({"m": m, "n": n, "entries": [[0.5, -0.5]]})
    for read in _each_read(text, tmp_path):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError) as err:
                read()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(err.value) is ValueError
        assert str(err.value) == f"declared shape ({m}, {n}) does not match entries shape (1, 2)"
        assert peak < 1 << 20


def test_entries_before_the_header_read_the_same_bytes(tmp_path):
    inst = make_instance(AWKWARD)
    rows = json.loads(to_json(inst))["entries"]
    for text in (json.dumps({"entries": rows, "m": 2, "n": 4}),
                 json.dumps({"m": 2, "entries": rows, "n": 4})):
        for read in _each_read(text, tmp_path):
            assert read().a.tobytes() == inst.a.tobytes()


def test_read_instance_peak_memory_is_about_the_matrix(tmp_path):
    # json.load would hold the text and a Python float per entry, several
    # times the float64 matrix; the streamed read writes each row into the
    # instance's one column-major matrix, and holds besides it one chunk of
    # text and one row: 1.11 times A's bytes at 2000x200 (2.12 when the rows
    # were kept apart until the matrix was filled from them)
    m, n = 2000, 200
    path = tmp_path / "inst.json"
    write_instance(fixtures.random_instance(np.random.default_rng(5), m, n), path)
    tracemalloc.start()
    try:
        inst = read_instance(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert inst.a.shape == (m, n)
    assert peak < 1.2 * m * n * 8


def _peak_bytes(call):
    """The tracemalloc peak while ``call()`` runs, and its result."""
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, out


def test_write_instance_peak_memory_is_a_row_of_text(tmp_path):
    # the text is written a row at a time: 0.01 times A's bytes at
    # 2000x200, where the whole text in memory peaked at 5.85
    inst = fixtures.random_instance(np.random.default_rng(5), 2000, 200)
    path = tmp_path / "inst.json"
    peak, _ = _peak_bytes(lambda: write_instance(inst, path))
    assert path.read_text(encoding="utf-8") == to_json(inst)
    assert peak < 0.05 * inst.a.nbytes


def test_analysis_peak_memory_is_a_pinned_multiple_of_the_matrix():
    # a planted 600x60 analysis peaked at 6.18 times A's bytes (the same
    # in all three regimes); the pin leaves 13%
    inst = planted("attainable", 600, 60, 0)
    peak, report = _peak_bytes(lambda: structure.analyze(inst))
    assert report.regime == "attainable"
    assert peak < 7.0 * inst.a.nbytes


def test_certificate_peak_memory_is_a_pinned_multiple_of_the_matrix():
    # a certificate at a planted 2000x200 iterate peaked at 1.13 times A's
    # bytes, its one m x n copy for the QR; the pin leaves 15%
    inst = planted("attainable", 2000, 200, 0)
    loss = make_loss("logistic")
    state = boost.run(inst, loss, boost.RunConfig(max_iters=30)).final_state
    peak, cert = _peak_bytes(lambda: structure.dual_certificate(inst, loss, state))
    assert cert is not None
    assert peak < 1.3 * inst.a.nbytes
