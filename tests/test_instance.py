"""Instance matrix: validation and serialization round-trips."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from boostcd import fixtures, structure
from boostcd.instance import (
    BoostInstance,
    InstanceValidationError,
    atomic_write_text,
    from_json,
    make_instance,
    read_instance,
    to_json,
    write_instance,
)


def test_validation_rejects_out_of_range_with_offenders():
    with pytest.raises(InstanceValidationError) as err:
        make_instance([[0.0, 1.5], [-2.0, 0.5]])
    assert err.value.offenders == [(0, 1), (1, 0)]
    with pytest.raises(InstanceValidationError) as err:
        make_instance([[math.nan]])
    assert err.value.offenders == [(0, 0)]


def test_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        make_instance([1.0, -1.0])  # 1-d
    with pytest.raises(ValueError):
        make_instance(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        make_instance(np.zeros((2, 2, 2)))


def test_instance_is_immutable():
    inst = make_instance([[0.5, -0.5]])
    with pytest.raises(ValueError):
        inst.a[0, 0] = 0.0


def test_row_subset():
    inst = make_instance([[1.0], [0.0], [-1.0]])
    sub = inst.row_subset([2, 0])
    np.testing.assert_array_equal(sub.a, [[-1.0], [1.0]])
    with pytest.raises(ValueError):
        inst.row_subset([])


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
