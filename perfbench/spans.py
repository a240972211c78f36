"""Spans around calls into the library's layers.

`Tracer.install` replaces public functions at their module attributes with
wrappers, so calls from the benchmark, within a module and across modules all
pass through them.  Each call becomes one span (name, start, end, parent
span, query id) kept in memory; a generator gets one span per `next()`.
Self time is a span's duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
from collections import Counter
from time import perf_counter

from amalgams import errors

# module -> public functions wrapped, in the layers' dependency order.
TRACED = {
    "fingroup": ("from_table", "quotient", "enumerate_normal_subgroups",
                 "conjugacy_classes", "enumerate_homs"),
    "amalgam": ("reduce", "normal_form", "is_conjugate_central",
                "is_conjugate_general"),
    "quotients": ("refine_to_compatible", "quotient_amalgam", "project_word"),
    "graphgroups": ("kill_subgroups", "collapse_to_direct_product"),
    "separability": ("search_witness", "agreeing_pairs", "verify_witness"),
    "fileio": ("parse_amalgam", "serialize_certificate", "parse_certificate"),
}
GENERATORS = {"separability.agreeing_pairs"}
# Called only by the verdict checks, which run with all other spans muted.
CHECK_SPANS = {"fileio.serialize_certificate", "fileio.parse_certificate"}
# Exceptions counted as a failed call: an expected outcome, not an error.
FAILURES = {
    "quotients.refine_to_compatible": errors.NoRefinementFound,
    "graphgroups.collapse_to_direct_product": errors.WrongShape,
}


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.originals: list[tuple[object, str, object]] = []

    def install(self) -> None:
        """Start a fresh recording with the wrappers in place."""
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.query = "setup"
        self.muted = False
        for mod_name, attrs in TRACED.items():
            module = self.modules[mod_name]
            for attr in attrs:
                fn = getattr(module, attr, None)
                if fn is None:
                    continue  # the layer no longer has it: reported as 0
                name = f"{mod_name}.{attr}"
                self.names.append(name)
                wrap = (self._wrap_generator if name in GENERATORS
                        else self._wrap)
                self.originals.append((module, attr, fn))
                setattr(module, attr, wrap(fn, len(self.names) - 1, name))

    def uninstall(self) -> None:
        for module, attr, fn in self.originals:
            setattr(module, attr, fn)
        self.originals.clear()

    def _open(self) -> tuple[int, int]:
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx, parent

    def _close(self, nid: int, idx: int, parent: int, t0: float) -> None:
        t1 = perf_counter()
        self.stack.pop()
        self.spans[idx] = (nid, t0, t1, parent, self.query)

    def _wrap(self, fn, nid: int, name: str):
        always = name in CHECK_SPANS
        failure = FAILURES.get(name, ())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.muted and not always:
                return fn(*args, **kwargs)
            idx, parent = self._open()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except failure:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                self._close(nid, idx, parent, t0)
            if name == "fingroup.enumerate_homs":
                self.counts[name + ".homs"] += len(result)
            elif name == "separability.verify_witness" and not result:
                self.counts[name + ".rejected"] += 1
            return result
        return traced

    def _wrap_generator(self, fn, nid: int, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                idx, parent = self._open()
                t0 = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._close(nid, idx, parent, t0)
                self.counts[name + ".pairs"] += 1
                yield item
        return traced

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per traced name: calls (spans), self_s and the extra counts."""
        child = [0.0] * len(self.spans)
        for nid, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {name: {"calls": 0, "self_s": 0.0} for name in self.names}
        for i, (nid, t0, t1, _, _) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["self_s"] += (t1 - t0) - child[i]
        for key, n in self.counts.items():
            name, _, counter = key.rpartition(".")
            out[name][counter] = n
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\tquery\n")
            for i, (nid, t0, t1, parent, query) in enumerate(self.spans):
                fh.write(f"{i}\t{self.names[nid]}\t{t0:.9f}\t{t1:.9f}\t"
                         f"{parent}\t{query}\n")
