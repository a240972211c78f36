"""Separation-query benchmark for the amalgams library.

    python3 perfbench/run.py --workload sep-small --seed 0 --seconds 10 --trace 0

Runs seeded witness searches (`separability.search_witness`) and conjugacy
decisions against a corpus of amalgams built in code, one query at a time
in a closed loop in this one process, and checks every verdict
independently (check.py).  Workloads are defined in corpus.py; `--workload
all` runs each in its own process.

With `--trace 0`, whole passes over the workload's queries run, each after
a set-up from cold library caches and in its own seeded order, until
another pass would end after `--seconds` (at least two passes run).  Each
query's time to verdict is taken in reference milliseconds (pace.py), and
its median over the passes is its latency; setup_s is the median set-up,
in seconds.  The end-to-end metrics come from this run.  A verdict is
checked in full the first time it is seen and whenever a later pass gives
another one.

With `--trace 1`, two untraced passes alternate with two traced
repetitions of set-up plus one pass (spans.py wraps the library's public
functions); the per-layer metrics come from the traced ones, their exact
counts must match between the two repetitions, and the spans are written to
perfbench/out/.  The last line of standard output is the result as JSON.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
MIN_PASSES = 2
MIN_SETUPS = 7
LAYERS = ("fingroup", "amalgam", "quotients", "graphgroups", "separability",
          "fileio")


def load_library():
    """Import the library from this checkout's src/, never from elsewhere."""
    if not (SRC / "amalgams" / "__init__.py").is_file():
        sys.exit(f"perfbench: no amalgams package under {SRC}")
    sys.path.insert(0, str(SRC))
    import amalgams
    if Path(amalgams.__file__).resolve().parent != SRC / "amalgams":
        sys.exit(f"perfbench: imported amalgams from {amalgams.__file__}")
    return {m: importlib.import_module(f"amalgams.{m}") for m in LAYERS}


MODULES = load_library()

from amalgams import errors  # noqa: E402

import check  # noqa: E402
import corpus  # noqa: E402
from check import CONJUGATE, EXHAUSTED, FOUND, NOT_CONJUGATE  # noqa: E402
from pace import Pace  # noqa: E402
from spans import Tracer  # noqa: E402

am, sep, fileio = MODULES["amalgam"], MODULES["separability"], MODULES["fileio"]
CACHES = [fn for m in MODULES.values() for fn in vars(m).values()
          if callable(getattr(fn, "cache_clear", None))]

END_TO_END_UNITS = {
    "queries_per_s": "1/ref-s", "latency_p50_ms": "ref-ms",
    "latency_p99_ms": "ref-ms",
    "decided_frac": "fraction", "ok_frac": "fraction", "peak_rss_mb": "MB",
    "setup_s": "s",
}
# Per traced function, the fields reported as "<function>.<field>": self_s in
# seconds, the others exact counts.
PER_LAYER = {
    "fingroup.enumerate_homs": ("calls", "self_s", "homs"),
    "fingroup.from_table": ("calls", "self_s"),
    "fingroup.quotient": ("calls", "self_s"),
    "fingroup.enumerate_normal_subgroups": ("self_s",),
    "fingroup.conjugacy_classes": ("self_s",),
    "amalgam.reduce": ("calls", "self_s"),
    "amalgam.normal_form": ("calls", "self_s"),
    "amalgam.is_conjugate_central": ("calls", "self_s"),
    "amalgam.is_conjugate_general": ("calls", "self_s"),
    "quotients.refine_to_compatible": ("calls", "self_s", "failed"),
    "quotients.quotient_amalgam": ("calls", "self_s"),
    "quotients.project_word": ("self_s",),
    "graphgroups.kill_subgroups": ("calls", "self_s"),
    "graphgroups.collapse_to_direct_product": ("calls", "failed"),
    "separability.search_witness": ("self_s",),
    "separability.agreeing_pairs": ("pairs", "self_s"),
    "separability.verify_witness": ("calls", "self_s", "rejected"),
    "fileio.parse_amalgam": ("calls", "self_s"),
    "fileio.serialize_certificate": ("self_s",),
    "fileio.parse_certificate": ("self_s",),
}


def run_record() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "unknown")
    except OSError:
        cpu = platform.processor() or "unknown"
    commit = "none (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    load = " ".join(f"{x:.2f}" for x in os.getloadavg())
    return (f"# python {platform.python_version()} | cpu {cpu} | nproc "
            f"{os.cpu_count()} | load {load} | commit {commit} | src sha256 "
            f"{digest.hexdigest()[:16]}")


def cold_setup(workload, name: str, texts: dict[str, str], seed: int):
    """Empty the library's caches, then parse the corpus, build the queries
    and fill the caches again: (queries, seconds taken)."""
    for fn in CACHES:
        fn.cache_clear()
    t0 = perf_counter()
    specs = {n: fileio.parse_amalgam(t) for n, t in texts.items()}
    queries = corpus.build_queries(workload, specs, seed, name)
    corpus.warm(specs, workload)
    return queries, perf_counter() - t0


def ask(q: corpus.Query):
    """The timed call: (outcome, witness or conjugator or error text)."""
    try:
        if q.budget is None:
            decide = getattr(am, f"is_conjugate_{q.decider}")
            verdict = decide(q.spec, q.x, q.y)
            return ((CONJUGATE, verdict.conjugator) if verdict.conjugate
                    else (NOT_CONJUGATE, None))
        try:
            return FOUND, sep.search_witness(q.spec, q.x, q.y, q.budget)
        except errors.ElementsConjugate as exc:
            return CONJUGATE, exc.conjugator
        except errors.BudgetExhausted:
            return EXHAUSTED, None
    except Exception as exc:  # an unexpected failure is an error verdict
        return "error", f"{type(exc).__name__}: {exc}"


def verify(q: corpus.Query, outcome: str, payload) -> str:
    if outcome == "error":
        return payload
    try:
        problem = check.check_outcome(
            q, outcome, payload if outcome == CONJUGATE else None)
        if not problem and outcome == FOUND:
            problem = check.check_witness(q, payload, check.certify(q, payload))
        return problem
    except Exception as exc:  # a check that cannot run fails the verdict
        return f"check raised {type(exc).__name__}: {exc}"


class Tally:
    """Verdicts of passes over one workload, with each pass's latencies in
    seconds and in reference milliseconds (pace.py).

    Every verdict of the first pass is checked in full; a later pass's
    verdict is checked in full only when it differs from that one."""

    def __init__(self):
        self.passes: list[list[float]] = []
        self.raw_passes: list[list[float]] = []
        self.references: list[float] = []
        self.outcomes: Counter = Counter()
        self.errors: list[str] = []
        self.decided = 0
        self.checked: dict[int, tuple] = {}

    def run_pass(self, workload, queries, order=None, tracer=None) -> None:
        n = len(queries)
        raw, latencies, conjugate = [0.0] * n, [0.0] * n, 0
        pace = Pace(latencies.__setitem__)
        for i in order or range(n):
            q = queries[i]
            if tracer:
                tracer.query, tracer.muted = i, False
            t0 = perf_counter()
            outcome, payload = ask(q)
            raw[i] = perf_counter() - t0
            if tracer:
                tracer.muted = True
            pace.add(i, raw[i])
            self.outcomes[outcome] += 1
            conjugate += outcome == CONJUGATE
            verdict = (outcome, payload)
            problem = ("" if self.checked.get(i) == verdict
                       else verify(q, outcome, payload))
            if problem:
                self.errors.append(f"query {i} ({q.amalgam}): {problem}")
                continue
            self.checked.setdefault(i, verdict)
            if outcome != EXHAUSTED:
                self.decided += 1
        pace.close()
        self.passes.append(latencies)
        self.raw_passes.append(raw)
        self.references += pace.references
        if len(queries) != workload.queries:
            self.errors.append(f"pass has {len(queries)} queries, expected "
                               f"{workload.queries}")
        if conjugate != workload.conjugate:
            self.errors.append(f"pass has {conjugate} conjugate verdicts, "
                               f"expected {workload.conjugate}")

    def add(self, other: "Tally") -> None:
        self.passes += other.passes
        self.raw_passes += other.raw_passes
        self.references += other.references
        self.outcomes += other.outcomes
        self.errors += other.errors
        self.decided += other.decided

    @property
    def attempted(self) -> int:
        return sum(map(len, self.passes))

    @property
    def failed(self) -> int:
        return min(len(self.errors), self.attempted)

    def typical(self, raw: bool = False) -> list[float]:
        """Each query's median time to verdict over the passes, in ref-ms
        or, with `raw`, in seconds."""
        return [statistics.median(times)
                for times in zip(*(self.raw_passes if raw else self.passes))]


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(q * len(ordered)) - 1]


def wall_clock(tally: Tally, label: str = "wall clock") -> str:
    raw, refs = tally.typical(raw=True), sorted(tally.references)
    return (f"# {label}: {len(raw) / sum(raw):.1f} queries/s, p50 "
            f"{1000 * percentile(raw, 0.5):.4f} ms, p99 "
            f"{1000 * percentile(raw, 0.99):.4f} ms; reference loop "
            f"{1000 * refs[0]:.4f} / {1000 * statistics.median(refs):.4f} / "
            f"{1000 * refs[-1]:.4f} ms (min / median / max of {len(refs)})")


def measure(workload, name, texts, seed, seconds):
    """Passes, each after a cold set-up and in its own seeded order, until
    another pass would end after `seconds`."""
    tally, setup_times = Tally(), []
    shuffler = random.Random(f"order:{name}:{seed}")
    t0, pass_s = perf_counter(), 0.0
    while (len(tally.passes) < MIN_PASSES
           or perf_counter() - t0 + pass_s < seconds):
        start = perf_counter()
        queries, dt = cold_setup(workload, name, texts, seed)
        setup_times.append(dt)
        order = list(range(len(queries)))
        shuffler.shuffle(order)
        tally.run_pass(workload, queries, order)
        pass_s = perf_counter() - start
    while len(setup_times) < MIN_SETUPS:
        setup_times.append(cold_setup(workload, name, texts, seed)[1])
    typical = tally.typical()
    metrics = {
        "queries_per_s": 1000 * len(typical) / sum(typical),
        "latency_p50_ms": percentile(typical, 0.50),
        "latency_p99_ms": percentile(typical, 0.99),
        "decided_frac": tally.decided / tally.attempted,
        "ok_frac": 1 - tally.failed / tally.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setup_times),
    }
    beyond = len(typical) - math.ceil(0.99 * len(typical))
    notes = [f"# latency samples: {len(typical)} queries, each its median "
             f"over {len(tally.passes)} passes; {beyond} beyond p99",
             wall_clock(tally),
             f"# setup_s is the median of {len(setup_times)} cold set-ups, "
             f"in wall-clock seconds"]
    return tally, metrics, {m: END_TO_END_UNITS[m] for m in metrics}, notes


def measure_traced(workload, name, texts, seed):
    """Untraced and traced passes alternate, so that a change in the
    machine's speed does not fall on one side only."""
    untraced, traced, totals = Tally(), Tally(), []
    tracer = Tracer(MODULES)
    for rep in range(2):
        queries, _ = cold_setup(workload, name, texts, seed)
        untraced.run_pass(workload, queries)
        tracer.install()
        try:
            queries, _ = cold_setup(workload, name, texts, seed)
            # Both repetitions check every verdict, so that the checker's
            # spans repeat too.
            traced.checked.clear()
            traced.run_pass(workload, queries, tracer=tracer)
        finally:
            tracer.uninstall()
        totals.append(tracer.layer_totals())
        if rep == 0:
            OUT.mkdir(exist_ok=True)
            spans_path = OUT / f"spans-{name}-seed{seed}.tsv"
            tracer.write(spans_path)
    first, second = totals
    mismatched = [f"{fn}.{field}" for fn, row in first.items()
                  for field, v in row.items()
                  if field != "self_s" and second[fn].get(field) != v]
    metrics, units = {}, {}
    for fn, fields in PER_LAYER.items():
        for field in fields:
            metric = f"{fn}.{field}"
            if field == "self_s":
                metrics[metric] = sum(t.get(fn, {}).get(field, 0.0)
                                      for t in totals) / 2
                units[metric] = "s"
            else:
                metrics[metric] = first.get(fn, {}).get(field, 0)
                units[metric] = "count"
    metrics["separability.pairs_per_witness"] = (
        metrics["separability.agreeing_pairs.pairs"]
        / max(traced.outcomes[FOUND] / 2, 1))
    units["separability.pairs_per_witness"] = "pairs/witness"
    untraced_s, traced_s = sum(untraced.typical()), sum(traced.typical())
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    units["trace.overhead_ratio"] = "ratio"
    clocks = [wall_clock(untraced, "wall clock, untraced"),
              wall_clock(traced, "wall clock, traced")]
    untraced.add(traced)
    untraced.errors += [f"exact count {m} differs between traced runs"
                        for m in mismatched]
    n = len(queries)
    notes = [f"# traced: 2 x (set-up + 1 pass of {n} queries); "
             f"{len(tracer.spans)} spans per repetition, written to "
             f"{spans_path.relative_to(ROOT)}",
             f"# median of 2 passes: untraced {1000 * n / untraced_s:.2f} "
             f"queries/ref-s, traced {1000 * n / traced_s:.2f} queries/ref-s",
             *clocks,
             "# exact counts identical across the two traced runs: "
             + ("yes" if not mismatched else "NO: " + ", ".join(mismatched))]
    return untraced, metrics, units, notes


def run_all(args) -> int:
    """Each workload in its own process, then one merged result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in corpus.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(proc.stdout, end="")
            return proc.returncode
        lines = proc.stdout.splitlines()
        print(f"## {name}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*corpus.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    workload = corpus.WORKLOADS[args.workload]
    print(run_record())
    print(f"# workload {args.workload} | seed {args.seed} | seconds "
          f"{args.seconds:g} | trace {args.trace} | closed loop, 1 client, "
          f"1 query at a time")
    texts = corpus.corpus_texts(workload)
    if args.trace:
        tally, metrics, units, notes = measure_traced(
            workload, args.workload, texts, args.seed)
    else:
        tally, metrics, units, notes = measure(
            workload, args.workload, texts, args.seed, args.seconds)
    print("\n".join(notes))
    print("# verdicts: " + ", ".join(f"{k} {v}" for k, v in
                                     sorted(tally.outcomes.items())))
    print(f"# error_frac {tally.failed / tally.attempted:.6f} "
          f"({tally.failed} of {tally.attempted})")
    for problem in tally.errors[:20]:
        print(f"# ERROR {problem}")
    for metric, value in metrics.items():
        print(f"{metric:48s} {value:>14.6g} {units[metric]}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
