"""In-memory span recorder for the benchmark's traced runs.

``SpanRecorder.wrap(owner, attr, name)`` replaces ``owner.attr`` with a
wrapper that records a span (name, start, end, parent) around every
call.  The wrapper is installed at the name the caller looks up (for
example ``structure.solve``, which ``structure`` imports from ``lp``), so
it sees exactly the calls the program makes.  A boundary that does not
exist in the program being measured is listed in ``absent`` rather than
raising.  ``restore`` puts every original back.

Spans stay in memory until ``dump`` writes them out; ``summary`` folds
them into per-name totals with self time (duration minus the time its
direct children cover).
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class SpanRecorder:
    def __init__(self):
        # each span: [name, start, end, parent index or -1, error flag, evals]
        self.spans = []
        self.absent = []
        self._stack = []
        self._search_depth = 0
        self._patches = []

    def wrap(self, owner, attr, name, *, search=False, by_search=False):
        """Record spans around ``owner.attr``.

        ``search`` marks a line search: calls made under it are tagged.
        ``by_search`` appends ``.search`` or ``.rebuild`` to ``name``
        depending on whether a line search is open.  A result with an
        ``evals`` attribute has that count stored with the span.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            self.absent.append(name)
            return
        rec = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name
            if by_search:
                label += ".search" if rec._search_depth else ".rebuild"
            span = [label, 0.0, 0.0, rec._stack[-1] if rec._stack else -1, False, None]
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            rec._search_depth += search
            span[1] = time.perf_counter()
            try:
                out = original(*args, **kwargs)
            except BaseException:
                span[4] = True
                raise
            finally:
                span[2] = time.perf_counter()
                rec._search_depth -= search
                rec._stack.pop()
            span[5] = getattr(out, "evals", None)
            return out

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        """Per-name totals: calls, s, self_s, max_s, errors, evals, and
        for every name the number of descendant calls by name
        (``within[name][child_name]``)."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "max_s": 0.0,
                                   "errors": 0, "evals": 0, "within": defaultdict(int)})
        for i, (name, start, end, parent, error, evals) in enumerate(self.spans):
            agg = out[name]
            dur = end - start
            agg["calls"] += 1
            agg["s"] += dur
            agg["self_s"] += dur - child_s[i]
            agg["max_s"] = max(agg["max_s"], dur)
            agg["errors"] += int(error)
            agg["evals"] += evals or 0
            seen = set()
            while parent >= 0:
                ancestor = self.spans[parent][0]
                if ancestor not in seen:
                    out[ancestor]["within"][name] += 1
                    seen.add(ancestor)
                parent = self.spans[parent][3]
        return out

    def dump(self, path) -> None:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as fh:
            json.dump({
                "names": names,
                "fields": ["name", "start", "end", "parent", "error", "evals"],
                "spans": [[index[s[0]], s[1], s[2], s[3], int(s[4]), s[5]] for s in self.spans],
                "absent": self.absent,
            }, fh)
