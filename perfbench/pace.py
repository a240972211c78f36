"""The machine's speed, measured alongside the queries.

A shared machine runs the same code up to twice as slowly for seconds to
minutes at a time, so a run's raw times say as much about the other
tenants as about the library.  `Pace` times a fixed reference loop every
INTERVAL_S seconds between queries and expresses each query's time in
reference milliseconds (ref-ms): multiples of the reference loop's time,
taken as the mean of the loop's times at the start and end of the block of
queries around it.  On a machine where the loop takes exactly 1 ms, ref-ms
are milliseconds.

The loop uses none of the library, so a change to the library moves ref-ms
as it moves wall time; it does what the library's inner loops do
(multiplication-table lookups, small tuples, dict probes, list appends).
"""

from __future__ import annotations

from time import perf_counter

INTERVAL_S = 0.02
_ITERATIONS = 1500
_TABLE = [[(a * b + a + b) % 16 for b in range(16)] for a in range(16)]


def reference_loop() -> int:
    table, seen, out, x = _TABLE, {}, [], 1
    for i in range(_ITERATIONS):
        x = table[x][i & 15]
        key = (x, i & 7)
        seen[key] = seen.get(key, 0) + 1
        out.append(key)
    return len(out)


def time_reference() -> float:
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


class Pace:
    """Converts the raw times of a stream of queries to ref-ms.

    Call `add` after each query with its raw time in seconds; the converted
    times arrive through `sink(key, ref_ms)` when the block they belong to
    closes, and at the latest on `close`."""

    def __init__(self, sink):
        self.sink = sink
        self.references: list[float] = []
        self.block: list[tuple[object, float]] = []
        self.start = time_reference()
        self.mark = perf_counter()

    def add(self, key, seconds: float) -> None:
        self.block.append((key, seconds))
        if perf_counter() - self.mark >= INTERVAL_S:
            self.close()

    def close(self) -> None:
        end = time_reference()
        self.references.append(end)
        ref_s = (self.start + end) / 2
        for key, seconds in self.block:
            self.sink(key, seconds / ref_s)
        self.block, self.start, self.mark = [], end, perf_counter()
