"""Self-test of the benchmark's tracing.

    python3 perfbench/selftest.py

For one command per workload, in cold workers:
  * every minbase module the command runs code in (found independently,
    with cProfile) shows at least one span or a nonzero count;
  * the self times of its spans add up to its traced wall time;
  * two traced runs give identical call counts and span counts.
Then ``alpha --spec S6`` is traced twice and its lattice build's closure
and subgroup counts are printed, and must repeat exactly.
Exits 1 on any failure.
"""

from __future__ import annotations

import cProfile
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import run as bench  # noqa: E402  (path set up above)
from perfbench import trace as bench_trace  # noqa: E402
from perfbench.worker import run_cold  # noqa: E402

REPRESENTATIVE = {
    "partition-search": ["base-size", "-a", "8", "-b", "4", "--mode", "upper", "--seed", "3"],
    "symmetric-families": ["base-size", "-a", "5", "-b", "2", "--mode", "exact"],
    "lattice-invariants": ["theorem4", "--spec", "S4"],
    "classical-enum": ["sp4", "--q", "9", "--triple"],
}


class ModuleProfiler:
    """Tracer stand-in for run_cold: reports which minbase modules ran code."""

    def install(self):
        pass

    def run_root(self, fn, *args):
        self._prof = cProfile.Profile()
        return self._prof.runcall(fn, *args)

    def export(self):
        self._prof.create_stats()
        pkg = Path(sys.modules["minbase"].__file__).resolve().parent
        return sorted({
            Path(filename).stem
            for filename, _, _ in self._prof.stats
            if Path(filename).resolve().parent == pkg
        })


def traced_layers(trace):
    layers = {bench_trace.layer_of(s[0]) for s in trace["spans"]}
    layers |= {bench_trace.layer_of(k) for k, v in trace["counts"].items() if v}
    return layers


def fingerprint(trace):
    totals, quotient = bench_trace.summarize(trace["spans"])
    return ({name: calls for name, (calls, _) in totals.items()},
            trace["counts"], quotient)


def main():
    bench._load_program()
    failures = []
    for workload, argv in REPRESENTATIVE.items():
        crossed = run_cold(argv, 120, ModuleProfiler())["trace"]
        runs = [run_cold(argv, 120, bench_trace.Tracer()) for _ in range(2)]
        seen = traced_layers(runs[0]["trace"])
        missing = sorted(set(crossed) - seen)
        row = {"spans": runs[0]["trace"]["spans"], "wall_s": runs[0]["wall_s"]}
        problem = bench._check_self_times(row)
        same = fingerprint(runs[0]["trace"]) == fingerprint(runs[1]["trace"])
        print(f"{workload}: {' '.join(argv)}\n  crossed {crossed}; traced {sorted(seen)}; "
              f"counts repeat: {same}")
        if missing:
            failures.append(f"{workload}: no span or count in layers {missing}")
        if problem:
            failures.append(f"{workload}: {problem}")
        if not same:
            failures.append(f"{workload}: counts differ between two traced runs")

    s6 = []
    for _ in range(2):
        trace = run_cold(["alpha", "--spec", "S6"], 170, bench_trace.Tracer())["trace"]
        spans = trace["spans"]
        build = next(i for i, s in enumerate(spans) if s[0] == "lattice.Lattice")
        closures = sum(1 for s in spans
                       if s[0] == "lattice.GroupTable.closure" and s[3] == build)
        s6.append((closures, trace["counts"]["lattice.subgroups"]))
    print(f"S6 lattice build: {s6[0][0]} closures, {s6[0][1]} subgroups")
    if s6[0] != s6[1]:
        failures.append(f"S6 lattice counts differ between runs: {s6}")

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAIL" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
