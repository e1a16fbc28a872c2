"""minbase benchmark: run one workload of real CLI commands, cold, and
print its metrics.

    python3 perfbench/run.py --workload partition-search --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src/`` directory (see perfbench/README.md for the model,
the workloads and the metrics).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
per-layer ones, from a separate traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_DIR = ROOT / ".perfbench-run"
DEADLINE_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 9  # per pass, spread evenly between its commands
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import minbase.cli; minbase.cli.build_parser()"
)
TAIL_BEYOND = 10  # samples required beyond the reported tail percentile
# The host's speed drifts by 20-30% within minutes (perfbench/README.md,
# "Noise"), so each measured time is rescaled to a host on which
# reference_work takes REFERENCE_NOMINAL_S (its median on a 2-core
# 2.1 GHz Xeon VM), by the median of the REFERENCE_NEAREST reference runs
# nearest to it in time.  A reference run precedes every operation that
# starts REFERENCE_EVERY_S or more after the last one ended.
REFERENCE_NOMINAL_S = 0.030
REFERENCE_NEAREST = 5
REFERENCE_EVERY_S = 0.25


def _refuse(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _load_program():
    """Import minbase.cli from this checkout's src/, or exit with code 2."""
    src = ROOT / "src"
    if not (src / "minbase" / "cli.py").is_file():
        _refuse(f"no minbase sources under {src}")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT))
    import minbase.cli

    if Path(minbase.cli.__file__).resolve().parent != (src / "minbase").resolve():
        _refuse(f"imported minbase from {minbase.cli.__file__}, not {src}")


def measure_setup():
    """Wall time of a fresh interpreter importing minbase.cli and building
    its parser."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True)
    return time.perf_counter() - t0


def tail_rank(n_pass, n_total):
    """Percentile (in %) and 1-based rank of the reported tail.

    The percentile is the highest one with TAIL_BEYOND samples beyond it in
    one pass; it is fixed per workload so that runs with more passes
    report the same quantity."""
    pct = 100.0 * (n_pass - TAIL_BEYOND) / n_pass
    return pct, max(1, (n_pass - TAIL_BEYOND) * n_total // n_pass)


class Run:
    """One benchmark run: the operations made, their timings and failures."""

    def __init__(self, name, seed, traced, deadline):
        from perfbench import workloads

        self.workloads = workloads
        self.name = name
        self.commands = workloads.build(name, seed)
        self.traced = traced
        self.deadline = deadline
        self.cert_dir = RUN_DIR / f"certs-{os.getpid()}"
        self.cert_dir.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.first_json = {}  # argv -> stdout of its first emit
        # (midpoint on the monotonic clock, seconds) of each sample;
        # a reference sample's time is when it ended
        self.emit_s, self.verify_s, self.setup_s, self.reference_s = [], [], [], []
        self.emit_argv = []  # the command of each emit_s sample
        self.certs = self.verified = 0
        self.maxrss_kb = 0
        self.traced_wall = self.untraced_wall = 0.0
        self.trace_rows = []  # one per traced operation, written at exit

    # -- one operation ----------------------------------------------------------

    def _cold(self, argv, tracer=None):
        from perfbench.worker import WorkerTimeout, run_cold

        left = self.deadline - time.monotonic()
        if left <= 0:
            raise WorkerTimeout("run deadline reached")
        rec = run_cold(argv, left, tracer)
        self.maxrss_kb = max(self.maxrss_kb, rec.get("maxrss_kb", 0))
        return rec

    def _fail(self, what, argv, detail):
        self.failed += 1
        self.problems.append(f"{what} {' '.join(argv)}: {detail}")

    def _emit(self, argv, cmd, path, tracer=None):
        """One emit; returns (record, ok)."""
        self.attempted += 1
        rec = self._cold(argv + ["--json", "--out", str(path)], tracer)
        if rec.get("rc") != 0:
            self._fail("emit", argv, f"exit {rec.get('rc')} {rec.get('exception', '')}"
                       f"{rec.get('stderr', '')}")
            return rec, False
        try:
            cert = json.loads(rec["stdout"])
        except ValueError:
            self._fail("emit", argv, "stdout is not one JSON certificate")
            return rec, False
        misses = self.workloads.check_result(cmd, cert.get("result", {}))
        key = tuple(argv)
        first = self.first_json.setdefault(key, rec["stdout"])
        if first != rec["stdout"]:
            misses.append("JSON differs from an earlier run of the same command")
        if misses:
            self._fail("emit", argv, "; ".join(misses))
            return rec, False
        return rec, True

    def _reference(self):
        """Time reference_work unless the last reference run ended less
        than REFERENCE_EVERY_S ago."""
        from perfbench.worker import WorkerTimeout, run_reference

        t0 = time.monotonic()
        if self.reference_s and t0 - self.reference_s[-1][0] < REFERENCE_EVERY_S:
            return
        left = self.deadline - t0
        if left <= 0:
            raise WorkerTimeout("run deadline reached")
        rec = run_reference(left)
        if rec.get("rc") != 0:
            self.problems.append(f"reference work: {rec.get('exception', '')}")
            return
        self.reference_s.append((time.monotonic(), rec["wall_s"]))

    def _verify(self, path, tracer=None):
        self.attempted += 1
        argv = ["verify", str(path)]
        rec = self._cold(argv, tracer)
        ok = rec.get("rc") == 0 and rec.get("stdout", "").rstrip().endswith(": verified")
        if not ok:
            self._fail("verify", argv, f"exit {rec.get('rc')} {rec.get('stdout', '')}"
                       f"{rec.get('exception', '')}")
        return rec, ok

    # -- passes -------------------------------------------------------------------

    def untraced_pass(self):
        stride = -(-len(self.commands) // SETUP_SAMPLES)
        for i, (argv, cmd) in enumerate(self.commands):
            if i % stride == 0:
                self._reference()
                t = time.monotonic()
                setup = measure_setup()
                self.setup_s.append((t + setup / 2, setup))
            self._reference()
            path = self.cert_dir / f"cert-{i}.json"
            t = time.monotonic()
            rec, ok = self._emit(argv, cmd, path)
            self.emit_s.append((t + rec.get("wall_s", 0.0) / 2, rec.get("wall_s", 0.0)))
            self.emit_argv.append(tuple(argv))
            if not ok:
                self.attempted += 1  # its verify cannot run
                self._fail("verify", argv, "no certificate to verify")
                continue
            self.certs += 1
            self._reference()
            t = time.monotonic()
            rec, ok = self._verify(path)
            self.verify_s.append((t + rec.get("wall_s", 0.0) / 2, rec.get("wall_s", 0.0)))
            self.verified += ok

    def traced_pass(self):
        """Each operation runs untraced, then traced; the traced run's spans
        give the per-layer numbers and the difference is the overhead."""
        from perfbench.trace import Tracer

        for i, (argv, cmd) in enumerate(self.commands):
            path = self.cert_dir / f"cert-{i}.json"
            plain, ok = self._emit(argv, cmd, path)
            traced, ok_t = self._emit(argv, cmd, path, Tracer())
            self._record("emit", argv, plain, traced)
            if not (ok and ok_t):
                self.attempted += 2
                self._fail("verify", argv, "no certificate to verify")
                self._fail("verify", argv, "no certificate to verify")
                continue
            cert_bytes = path.stat().st_size
            self.trace_rows[-1]["cert_bytes"] = cert_bytes
            plain, _ = self._verify(path)
            traced, _ = self._verify(path, Tracer())
            self._record("verify", ["verify", str(path)], plain, traced)

    def _record(self, kind, argv, plain, traced):
        self.untraced_wall += plain.get("wall_s", 0.0)
        self.traced_wall += traced.get("wall_s", 0.0)
        trace = traced.get("trace", {"spans": [], "counts": {}})
        row = {"id": len(self.trace_rows), "kind": kind, "argv": argv,
               "wall_s": traced.get("wall_s", 0.0), **trace}
        self.trace_rows.append(row)
        problem = _check_self_times(row)
        if problem:
            self.problems.append(f"trace {' '.join(argv)}: {problem}")

    def close(self):
        shutil.rmtree(self.cert_dir, ignore_errors=True)


def _check_self_times(row):
    """The command's self times must add up to its traced wall time."""
    from perfbench.trace import ROOT as ROOT_SPAN, summarize

    spans = row["spans"]
    if not spans or spans[0][0] != ROOT_SPAN:
        return "no root span"
    root = spans[0][2] - spans[0][1]
    totals, _ = summarize(spans)
    self_sum = sum(s for _, s in totals.values())
    if abs(self_sum - root) > 1e-6 * max(1.0, root):
        return f"self times sum to {self_sum:.6f}s, root span is {root:.6f}s"
    if not (0 <= row["wall_s"] - root < 0.005 + 0.01 * root):
        return f"root span {root:.6f}s vs traced wall {row['wall_s']:.6f}s"
    return None


# -- metrics --------------------------------------------------------------------


def command_medians(argvs, times):
    """Each sample replaced by the median of its command's samples, sorted.

    Order statistics of these are steady where those of the raw samples
    are not: a rank at the edge between two commands' samples picks one
    command's median, never its single fastest or slowest run."""
    by_command = {}
    for argv, t in zip(argvs, times):
        by_command.setdefault(argv, []).append(t)
    median = {argv: statistics.median(ts) for argv, ts in by_command.items()}
    return sorted(median[argv] for argv in argvs)


def scaled(samples, references):
    """Each (t, seconds) sample's seconds rescaled to the nominal host:
    times REFERENCE_NOMINAL_S over the median of the REFERENCE_NEAREST
    reference times nearest to t."""
    if not references:  # only when the run stopped before its first operation
        return [s for _, s in samples]
    out = []
    for t, s in samples:
        near = sorted(references, key=lambda ref: abs(ref[0] - t))[:REFERENCE_NEAREST]
        out.append(s * REFERENCE_NOMINAL_S / statistics.median(r for _, r in near))
    return out


def end_to_end(run, n_pass):
    """The end-to-end metrics, every time rescaled to the nominal host,
    and a note on how they were taken."""
    emit_s = scaled(run.emit_s, run.reference_s)
    emits = command_medians(run.emit_argv, emit_s) or [0.0]  # empty only after a timeout
    pct, rank = tail_rank(n_pass, len(emits))
    raw_emit_s = sum(s for _, s in run.emit_s)
    reference = statistics.median([s for _, s in run.reference_s] or [0.0])
    return {
        "setup_s": (statistics.median(scaled(run.setup_s, run.reference_s) or [0.0]), "s"),
        "certs_per_s": (_ratio(run.certs, sum(emit_s)), "1/s"),
        "cert_p50_s": (statistics.median(emits), "s"),
        "cert_tail_s": (emits[rank - 1], "s"),
        "verifies_per_s": (_ratio(run.verified, sum(scaled(run.verify_s, run.reference_s))),
                           "1/s"),
        "peak_rss_mb": (run.maxrss_kb / 1024.0, "MB"),
    }, (f"tail = p{pct:.1f} (rank {rank}) of n={len(run.emit_s)} emits; "
        f"emit time {raw_emit_s:.3f}s measured, {sum(emit_s):.3f}s scaled; "
        f"reference work median {reference:.6f}s of n={len(run.reference_s)}, "
        f"nominal {REFERENCE_NOMINAL_S}s")


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(run):
    from perfbench.trace import summarize

    totals, counts = {}, {}
    quotient_lattices = 0
    cli_self = {"emit": 0.0, "verify": 0.0}
    cert_bytes = 0
    for row in run.trace_rows:
        t, q = summarize(row["spans"])
        quotient_lattices += q
        for name, (calls, self_s) in t.items():
            entry = totals.setdefault(name, [0, 0.0])
            entry[0] += calls
            entry[1] += self_s
        cli_self[row["kind"]] += t.get("cli.main", [0, 0.0])[1]
        for name, value in row["counts"].items():
            counts[name] = counts.get(name, 0) + value
        cert_bytes += row.get("cert_bytes", 0)

    def calls(name):
        return totals.get(name, [0, 0.0])[0]

    def self_s(*names):
        return sum(totals.get(n, [0, 0.0])[1] for n in names)

    stab_calls = calls("partitions.partition_stabilizer")
    candidates = counts.get("classical.sp4_candidates", 0)
    m = {
        "partitions.stabilizer_calls": (stab_calls, "count"),
        "partitions.stabilizer_s": (self_s("partitions.partition_stabilizer"), "s"),
        "partitions.stabilizer_trivial_ratio": (
            _ratio(counts.get("partitions.stabilizer_trivial", 0), stab_calls), "ratio"),
        "partitions.base_size_s": (self_s("partitions.base_size_partitions"), "s"),
        "partitions.apply_calls": (counts.get("partitions.apply_to_canonical", 0), "count"),
        "perm.group_builds": (calls("perm.PermGroup"), "count"),
        "perm.group_build_s": (self_s("perm.PermGroup"), "s"),
        "perm.elements_s": (self_s("perm.PermGroup.elements"), "s"),
        "perm.contains_calls": (counts.get("perm.PermGroup.contains", 0), "count"),
        "perm.compose_calls": (counts.get("perm.compose", 0), "count"),
        "perm.coset_action_s": (self_s("perm.CosetAction"), "s"),
        "lattice.closure_calls": (calls("lattice.GroupTable.closure"), "count"),
        "lattice.closure_s": (self_s("lattice.GroupTable.closure"), "s"),
        "lattice.lattice_builds": (calls("lattice.Lattice"), "count"),
        "lattice.lattice_s": (self_s("lattice.Lattice"), "s"),
        "lattice.subgroups": (counts.get("lattice.subgroups", 0), "count"),
        "lattice.table_builds": (calls("lattice.GroupTable"), "count"),
        "lattice.table_s": (self_s("lattice.GroupTable"), "s"),
        "invariants.alpha_s": (self_s("invariants.alpha"), "s"),
        "invariants.beta_s": (self_s("invariants.beta"), "s"),
        "invariants.chief_s": (self_s("invariants.chief_series"), "s"),
        "invariants.quotient_lattices": (quotient_lattices, "count"),
        "classical.sp4_pair_s": (self_s("classical.sp4_pair_stabilizer"), "s"),
        "classical.sp4_candidates": (candidates, "count"),
        "classical.sp4_survivor_ratio": (
            _ratio(counts.get("classical.sp4_survivors", 0), candidates), "ratio"),
        "fq.mat_vec_calls": (counts.get("fq.mat_vec", 0), "count"),
        "classical.orth_pair_s": (self_s("classical.orth_odd_pair_check"), "s"),
        "classical.isometry_s": (self_s("classical.isometry_group_elements"), "s"),
        "fq.rref_calls": (counts.get("fq.rref", 0), "count"),
        "fq.field_builds": (calls("fq.Field"), "count"),
        "fq.field_s": (self_s("fq.Field"), "s"),
        "cli.command_s": (cli_self["emit"], "s"),
        "cli.verify_s": (cli_self["verify"], "s"),
        "cli.cert_bytes": (cert_bytes, "bytes"),
        "catalog.spec_s": (self_s("catalog.group_from_spec"), "s"),
        "bounds.qhat_s": (self_s("bounds.evaluate_qhat", "bounds.g2_subfield_terms",
                                 "bounds.sp4_subfield_terms",
                                 "bounds.o10_plus_imprimitive_terms"), "s"),
        "trace.overhead_s": (run.traced_wall - run.untraced_wall, "s"),
    }
    return m


def write_trace(run, seed):
    path = RUN_DIR / f"trace-{run.name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for row in run.trace_rows:
            fh.write(json.dumps(row) + "\n")
    return path


# -- main -------------------------------------------------------------------------


def main(argv=None):
    t_start = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS:
        _refuse(f"unknown workload {args.workload!r}; "
                f"choose from {', '.join(workloads.WORKLOADS)}")
    RUN_DIR.mkdir(exist_ok=True)
    run = Run(args.workload, args.seed, args.trace == 1, t_start + DEADLINE_S)
    from perfbench.worker import WorkerTimeout

    passes = 0
    try:
        if run.traced:
            run.traced_pass()
            passes = 1
        else:
            measure_setup()  # unmeasured: compiles the bytecode of a fresh checkout
            t0 = time.monotonic()
            # whole passes only, so every run measures the same command mix;
            # start another pass only if it should end within --seconds
            while True:
                run.untraced_pass()
                passes += 1
                elapsed = time.monotonic() - t0
                if elapsed + elapsed / passes > args.seconds:
                    break
    except WorkerTimeout as exc:  # the operation it stopped is already attempted
        run.failed += 1
        run.problems.append(f"timeout: {exc}")
    finally:
        run.close()

    if run.traced:
        metrics = per_layer(run)
        note = f"trace written to {write_trace(run, args.seed).relative_to(ROOT)}"
    else:
        metrics, note = end_to_end(run, len(run.commands))
        metrics["failed_frac"] = (run.failed / run.attempted, "ratio")
    for problem in run.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} passes={passes} "
          f"attempted={run.attempted} failed={run.failed}; {note}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:38s} {value:>16.6g} {unit}")
    metrics.pop("failed_frac", None)  # always 0 on a correct run: printed, not reported
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
