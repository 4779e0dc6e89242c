"""Boosting instances.

An instance is an m-by-n real matrix with entries in [-1, 1]: entry
(i, j) is the negated signed prediction -y_i * h_j(x_i) of weak learner
j on example i, so negative margins A @ lam are good.  Instances are
stored as JSON, each entry written as the shortest decimal string that
reads back as the same binary double, so the round trip is bit-exact.

The matrix is stored once, as a read-only float64 array in column-major
(Fortran) order, whatever it was built from.  The descent loop reads one
column a_j at each line-search evaluation and forms A^T w, one dot
product per column, at each step; both read contiguous memory in that
order.  A @ lam, which only the loop's periodic rebuilds compute, and
the structure analysis's row gathers read across the columns instead.

A file is read in chunks of CHUNK_CHARS characters and its ``entries``
decoded one row at a time, each row checked (numbers only, never
booleans, all rows as long as the first).  When "m" and "n" come before
``entries``, as both writers put them, and the text is long enough to
hold m x n entries (at least 2 m n characters, a digit and a separator
each), each row is written straight into the instance's own column-major
matrix, so a read's peak is the float64 matrix plus one chunk and one
row.  A header that comes after ``entries``, claims more entries than
the text can hold or does not fit the rows keeps the rows as small
float64 arrays, which gives the same values and errors at about twice
the matrix; a header alone never makes the reader allocate more than the
text can fill.  The whole text and the whole matrix as Python floats are
never held.  The writers produce the text one row at a time
(:func:`json_pieces`), so writing holds one row's text.

A row is decoded by orjson, whose correctly rounded number reader is
several times faster than the stdlib's and gives the same doubles.  Keys
and the other values, and the few rows orjson refuses, go through the
stdlib decoder, so every file reads, or is rejected, as it would be by
the stdlib alone.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass

import numpy as np
import orjson


# The convergence regimes an instance can be in; :mod:`boostcd.structure`
# decides which, and the generators ask for one by name.
WEAK_LEARNABLE = "weak_learnable"
ATTAINABLE = "attainable"
MIXED = "mixed"
REGIMES = (WEAK_LEARNABLE, ATTAINABLE, MIXED)


class InstanceValidationError(ValueError):
    """Entries outside [-1, 1] or non-finite; ``offenders`` lists (i, j)."""

    def __init__(self, message, offenders=None):
        super().__init__(message)
        self.offenders = list(offenders) if offenders else []


def _validated_matrix(entries) -> np.ndarray:
    # numpy infers the dtype, so strings and booleans are seen, not converted
    a = np.array(entries, order="F")
    if a.dtype.kind not in "fiu":
        raise TypeError(f"entries must be real numbers, got array dtype {a.dtype}")
    a = a.astype(float, copy=False)
    if a.ndim != 2:
        raise ValueError(f"instance matrix must be 2-dimensional, got ndim={a.ndim}")
    if a.shape[0] < 1 or a.shape[1] < 1:
        raise ValueError(f"instance matrix must be at least 1x1, got shape {a.shape}")
    _check_entries(a)
    return a


def _check_entries(a: np.ndarray) -> None:
    """Raise InstanceValidationError naming the entries of the float64
    matrix ``a`` that are outside [-1, 1] or not finite."""
    # NaN propagates through min and max, so this one check, which
    # allocates nothing, also sees it
    if not (a.min() >= -1.0 and a.max() <= 1.0):
        bad = ~(np.isfinite(a) & (np.abs(a) <= 1.0))
        offenders = [(int(i), int(j)) for i, j in zip(*np.nonzero(bad))]
        shown = ", ".join(f"({i},{j})={float(a[i, j])!r}" for i, j in offenders[:8])
        more = "" if len(offenders) <= 8 else f" and {len(offenders) - 8} more"
        raise InstanceValidationError(
            f"entries must be finite and in [-1, 1]; offending (row, col), "
            f"0-based: {shown}{more}",
            offenders,
        )


@dataclass(frozen=True, eq=False)
class BoostInstance:
    a: np.ndarray

    def __post_init__(self):
        self._own(_validated_matrix(self.a))

    @classmethod
    def _of_filled(cls, a: np.ndarray) -> "BoostInstance":
        """The instance whose matrix is ``a`` itself, not a copy of it:
        ``a`` is a float64 column-major matrix, at least 1x1, that nothing
        else holds, as the reader fills one.  Its entries are checked as
        the constructor checks them."""
        _check_entries(a)
        inst = object.__new__(cls)
        inst._own(a)
        return inst

    def _own(self, a: np.ndarray) -> None:
        a.flags.writeable = False
        object.__setattr__(self, "a", a)

    @property
    def m(self) -> int:
        return self.a.shape[0]

    @property
    def n(self) -> int:
        return self.a.shape[1]

    def row_ids(self, rows0) -> list:
        """The 0-based row ids ``rows0`` as a list.  Each id must be an
        integer in 0..m-1; a negative id, which numpy would count from the
        end, or a boolean, which it would read as a mask, raises ValueError
        naming the bad ids."""
        rows0 = list(rows0)
        bad = [r for r in rows0 if isinstance(r, (bool, np.bool_))
               or not isinstance(r, (int, np.integer)) or not 0 <= r < self.m]
        if bad:
            more = "" if len(bad) <= 8 else f" and {len(bad) - 8} more"
            raise ValueError(f"row ids must be integers in 0..{self.m - 1}; "
                             f"got {', '.join(map(repr, bad[:8]))}{more}")
        return rows0

    def row_subset(self, rows0) -> "BoostInstance":
        """Sub-instance keeping the given 0-based rows, in order, checked
        by :meth:`row_ids`; an empty subset raises ValueError."""
        rows0 = self.row_ids(rows0)
        if not rows0:
            raise ValueError("row subset must be nonempty")
        return BoostInstance(self.a[rows0, :])


def make_instance(entries) -> BoostInstance:
    return BoostInstance(entries)


# ---------------------------------------------------------------------------
# serialization

def json_pieces(inst: BoostInstance):
    """The instance's JSON text in pieces, one per row, so a writer holds
    one row's text at a time; ``to_json`` joins them."""
    yield '{\n  "m": %d,\n  "n": %d,\n  "entries": [\n    ' % (inst.m, inst.n)
    sep = ""
    for row in inst.a:
        # one row is converted to Python floats at a time; repr writes the
        # shortest decimal that reads back as the same double, -0.0 included
        yield sep + "[" + ", ".join(map(repr, row.tolist())) + "]"
        sep = ",\n    "
    yield "\n  ]\n}\n"


def to_json(inst: BoostInstance) -> str:
    return "".join(json_pieces(inst))


# Characters read from the file at a time.
CHUNK_CHARS = 1 << 16

_DECODER = json.JSONDecoder()
_WHITESPACE = json.decoder.WHITESPACE
_NUMBER_TYPES = {float, int}
# The first characters of the JSON values that are not numbers or lists; a
# list inside a row holds the row's first "]", so orjson refuses that row
_NON_NUMBER_STARTS = 'tfn"{'


def _malformed(message: str) -> ValueError:
    return ValueError(f"malformed instance JSON: {message}")


class _Stream:
    """A JSON text read chunk by chunk; ``buf[pos:]`` is not yet consumed
    and ``buf`` starts at character ``start`` of the text."""

    def __init__(self, fh):
        self.fh = fh
        self.buf = ""
        self.pos = 0
        self.start = 0

    def more(self) -> bool:
        """Drop the consumed text and append at least a chunk, and at least
        as much as is pending, so a value spanning many chunks is decoded
        a logarithmic number of times; False at the end of the text."""
        chunk = self.fh.read(max(CHUNK_CHARS, len(self.buf) - self.pos))
        if not chunk:
            return False
        self.start += self.pos
        self.buf = self.buf[self.pos:] + chunk
        self.pos = 0
        return True

    def peek(self) -> str:
        """The next character after whitespace, not consumed; '' at the end."""
        while True:
            self.pos = _WHITESPACE.match(self.buf, self.pos).end()
            if self.pos < len(self.buf):
                return self.buf[self.pos]
            if not self.more():
                return ""

    def expect(self, char: str) -> None:
        if self.peek() != char:
            raise _malformed(f"expected {char!r} at char {self.start + self.pos}")
        self.pos += 1

    def value(self):
        """The next JSON value, decoded again with the next chunk appended
        while it may have been cut at a chunk boundary: a decode error is
        final only when the text is exhausted, and a cut number decodes as
        a shorter one ("1.5e-" as 1.5) that ends at most two characters
        before the buffer's end."""
        self.peek()
        while True:
            try:
                obj, end = _DECODER.raw_decode(self.buf, self.pos)
            except json.JSONDecodeError as exc:
                if self.more():
                    continue
                raise _malformed(f"{exc.msg} at char {self.start + exc.pos}") from None
            if end < len(self.buf) - 2 or not self.more():
                self.pos = end
                return obj


def _rows(stream: _Stream, shape=None):
    """The rows of ``entries``, decoded one at a time.  With ``shape``
    given and rows that fit it exactly, each row is written straight into
    one column-major float64 matrix of that shape, which is returned;
    otherwise the rows are returned as a list of float64 arrays, with the
    same values.

    A row is decoded by orjson from its start to the first "]".  orjson
    refuses some rows that the stdlib decoder reads: NaN, Infinity,
    -Infinity and numbers past the double range, which the checks below
    and ``_check_entries`` then name.  It also refuses a row that is
    not one flat list ending at that "]" (a nested list, a string holding
    "]", malformed text).  Such a row is decoded again by ``stream.value``,
    so its value or its error is the stdlib's.  Each entry's type is
    checked only on a row the stdlib decoded, or whose text holds a
    character that starts a value other than a number."""
    stream.expect("[")
    rows = []
    if stream.peek() == "]":
        stream.pos += 1
        return rows
    a = None  # the matrix of ``shape``, while the rows fit it
    i = 0
    while True:
        # a row of numbers ends at the first "]": with that in the buffer,
        # a row is decoded once, not once more for each chunk it spans
        while (end := stream.buf.find("]", stream.pos)) < 0 and stream.more():
            pass
        # with no "]" left, end + 1 == 0 and the text is empty
        text = stream.buf[stream.pos:end + 1]
        try:
            row = orjson.loads(text)
        except orjson.JSONDecodeError:
            row = stream.value()
            numbers_only = False
        else:
            stream.pos = end + 1
            # a row orjson read holds numbers only unless its text holds
            # the first character of some other value
            numbers_only = not any(c in text for c in _NON_NUMBER_STARTS)
        if type(row) is not list:
            raise _malformed(f"row {i} is not a list, got {type(row).__name__}")
        if i == 0:
            n = len(row)
        if len(row) != n or not row:
            raise _malformed(f"row {i} has {len(row)} entries, expected {n or 'at least 1'}")
        # bool is an int subclass, so the types are compared, not isinstance'd
        if not numbers_only and not set(map(type, row)) <= _NUMBER_TYPES:
            bad = next(v for v in row if type(v) not in _NUMBER_TYPES)
            raise _malformed(f"row {i} has an entry that is not a number: {bad!r}")
        try:
            values = np.array(row, dtype=np.float64)
        except OverflowError:  # an integer beyond the float range
            raise _malformed(f"row {i} has an integer too large for a float") from None
        if i == 0 and shape is not None and shape[1] == n:
            a = np.empty(shape, order="F")
        if a is not None and i < len(a):
            a[i] = values
        else:
            if a is not None:  # more rows than declared
                rows, a = list(a), None
            rows.append(values)
        sep = stream.peek()
        stream.pos += 1
        if sep == "]":
            if a is None:
                return rows
            return a if i + 1 == len(a) else list(a[:i + 1])
        if sep != ",":
            raise _malformed(f"expected ',' or ']' after row {i}")
        i += 1


def _load(fh, size: int = 0) -> BoostInstance:
    """The instance in the JSON text that ``fh.read`` returns, of ``size``
    characters or bytes (0 if not known): the top-level object is walked
    key by key and ``entries`` decoded one row at a time.  When "m" and
    "n" come before ``entries`` and the text can hold that many entries,
    the rows are written straight into the instance's matrix."""
    stream = _Stream(fh)
    obj = {}
    stream.expect("{")
    if stream.peek() == "}":
        stream.pos += 1
    else:
        while True:
            key = stream.value()
            if type(key) is not str:
                raise _malformed(f"object keys must be strings, got {key!r}")
            stream.expect(":")
            if key == "entries":
                # every entry takes a digit and a separator, so a header
                # the text cannot hold allocates nothing
                shape = (obj.get("m"), obj.get("n"))
                fits = (all(type(d) is int and d > 0 for d in shape)
                        and 2 * shape[0] * shape[1] <= size)
                obj[key] = _rows(stream, shape if fits else None)
            else:
                obj[key] = stream.value()
            if stream.peek() == "}":
                stream.pos += 1
                break
            stream.expect(",")
    if stream.peek():
        raise _malformed(f"extra data at char {stream.start + stream.pos}")
    if not {"m", "n", "entries"} <= set(obj):
        raise ValueError('instance JSON needs keys "m", "n", "entries"')
    for key in ("m", "n"):
        if type(obj[key]) is not int:  # bool is an int subclass; 1.0 is not an int
            raise _malformed(f'"{key}" must be an integer, got {obj[key]!r}')
    entries = obj.pop("entries")
    inst = (make_instance(entries) if type(entries) is list
            else BoostInstance._of_filled(entries))
    if inst.m != obj["m"] or inst.n != obj["n"]:
        raise ValueError(
            f"declared shape ({obj['m']}, {obj['n']}) does not match "
            f"entries shape ({inst.m}, {inst.n})"
        )
    return inst


def from_json(text: str) -> BoostInstance:
    return _load(io.StringIO(text), len(text))


def atomic_write_text(path, text) -> None:
    """Write text, a str or an iterable of str pieces, to path via a temp
    file + rename, so readers never see a partial file.  The file gets the
    mode a plain open gives, 0o666 less the umask (mkstemp would give
    0o600)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # opened before the try, so a name clash never unlinks another's file
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_instance(path) -> BoostInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return _load(fh, os.fstat(fh.fileno()).st_size)


def write_instance(inst: BoostInstance, path) -> None:
    atomic_write_text(path, json_pieces(inst))
