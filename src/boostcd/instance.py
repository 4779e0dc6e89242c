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
booleans, all rows as long as the first) and kept as a small float64
array until the one column-major matrix is filled from them.  The whole
text and the whole matrix as Python floats are never held, so a read's
peak is about twice the float64 matrix plus one chunk and one row.

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
    return a


@dataclass(frozen=True, eq=False)
class BoostInstance:
    a: np.ndarray

    def __post_init__(self):
        a = _validated_matrix(self.a)
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

def to_json(inst: BoostInstance) -> str:
    # one row is converted to Python floats at a time; repr writes the
    # shortest decimal that reads back as the same double, -0.0 included
    rows = ",\n    ".join("[" + ", ".join(map(repr, row.tolist())) + "]" for row in inst.a)
    return (
        '{\n  "m": %d,\n  "n": %d,\n  "entries": [\n    %s\n  ]\n}\n'
        % (inst.m, inst.n, rows)
    )


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


def _rows(stream: _Stream) -> list:
    """The rows of ``entries``, each a float64 array, decoded one at a time.

    A row is decoded by orjson from its start to the first "]".  orjson
    refuses some rows that the stdlib decoder reads: NaN, Infinity,
    -Infinity and numbers past the double range, which the checks below
    and ``_validated_matrix`` then name.  It also refuses a row that is
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
    while True:
        i = len(rows)
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
        n = len(rows[0]) if rows else len(row)
        if len(row) != n or not row:
            raise _malformed(f"row {i} has {len(row)} entries, expected {n or 'at least 1'}")
        # bool is an int subclass, so the types are compared, not isinstance'd
        if not numbers_only and not set(map(type, row)) <= _NUMBER_TYPES:
            bad = next(v for v in row if type(v) not in _NUMBER_TYPES)
            raise _malformed(f"row {i} has an entry that is not a number: {bad!r}")
        try:
            rows.append(np.array(row, dtype=np.float64))
        except OverflowError:  # an integer beyond the float range
            raise _malformed(f"row {i} has an integer too large for a float") from None
        sep = stream.peek()
        stream.pos += 1
        if sep == "]":
            return rows
        if sep != ",":
            raise _malformed(f"expected ',' or ']' after row {i}")


def _load(fh) -> BoostInstance:
    """The instance in the JSON text that ``fh.read`` returns: the
    top-level object is walked key by key and ``entries`` decoded one row
    at a time."""
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
            obj[key] = _rows(stream) if key == "entries" else stream.value()
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
    inst = make_instance(obj.pop("entries"))
    if inst.m != obj["m"] or inst.n != obj["n"]:
        raise ValueError(
            f"declared shape ({obj['m']}, {obj['n']}) does not match "
            f"entries shape ({inst.m}, {inst.n})"
        )
    return inst


def from_json(text: str) -> BoostInstance:
    return _load(io.StringIO(text))


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file + rename, so readers never see
    a partial file.  The file gets the mode a plain open gives, 0o666
    less the umask (mkstemp would give 0o600)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    tmp = os.path.join(directory, f".tmp-{os.urandom(8).hex()}~")
    # opened before the try, so a name clash never unlinks another's file
    fh = open(tmp, "x", encoding="utf-8")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_instance(path) -> BoostInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return _load(fh)


def write_instance(inst: BoostInstance, path) -> None:
    atomic_write_text(path, to_json(inst))
