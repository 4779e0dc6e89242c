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
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass

import numpy as np


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
    bad = ~(np.isfinite(a) & (np.abs(a) <= 1.0))
    if np.any(bad):
        offenders = [(int(i), int(j)) for i, j in zip(*np.nonzero(bad))]
        shown = ", ".join(f"({i},{j})={a[i, j]!r}" for i, j in offenders[:8])
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

    def row_subset(self, rows0) -> "BoostInstance":
        """Sub-instance keeping the given 0-based rows, in order."""
        rows0 = list(rows0)
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


def _load(parse, source) -> BoostInstance:
    """The instance in ``parse(source)``: ``json.loads`` of a text or
    ``json.load`` of an open file, which drops the file's text before the
    matrix is built from the parsed lists."""
    try:
        obj = parse(source)
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    if not isinstance(obj, dict) or not {"m", "n", "entries"} <= set(obj):
        raise ValueError('instance JSON needs keys "m", "n", "entries"')
    for key in ("m", "n"):
        if type(obj[key]) is not int:  # bool is an int subclass; 1.0 is not an int
            raise ValueError(f'malformed instance JSON: "{key}" must be an integer, '
                             f"got {obj[key]!r}")
    try:
        inst = make_instance(obj["entries"])
    except TypeError as exc:  # entries that are not numbers: strings, booleans, objects
        raise ValueError(f"malformed instance JSON: {exc}") from exc
    if inst.m != obj["m"] or inst.n != obj["n"]:
        raise ValueError(
            f"declared shape ({obj['m']}, {obj['n']}) does not match "
            f"entries shape ({inst.m}, {inst.n})"
        )
    return inst


def from_json(text: str) -> BoostInstance:
    return _load(json.loads, text)


def atomic_write_text(path, text: str) -> None:
    """Write text to path via a temp file + rename, so readers never see
    a partial file."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def read_instance(path) -> BoostInstance:
    with open(path, "r") as fh:
        return _load(json.load, fh)


def write_instance(inst: BoostInstance, path) -> None:
    atomic_write_text(path, to_json(inst))
