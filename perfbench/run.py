"""kkgeom benchmark: drives the CLI in-process, one call at a time.

    python3 perfbench/run.py --workload desk-certify|frame-scale|query-lift
                             --seed N --seconds S --trace 0|1

Run from the repository root.  A closed loop with a single client: each
CLI call starts when the previous one has returned.  The workload's pass of
calls repeats until ``--seconds`` have gone by, and every call's output is
checked.  Each call's latency is the median over the passes.  The last
line of stdout is one JSON object: the end-to-end metrics with ``--trace
0``; with ``--trace 1`` the untraced passes get half of ``--seconds`` and
one more pass runs under the stdlib profiler for the per-layer metrics.
Times are in reference seconds (see ``speed.py``).  A summary goes to
stderr, and every figure, with the measured seconds and the per-call
latencies, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import itertools
import json
import os
import resource
import statistics
import sys
import time
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import speed
import workloads
from layers import LAYERS, LayerProfile

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 15


def setup(workload: str, seed: int):
    """Set-up as timed by ``setup_s``: a fresh import of kkgeom, the
    generated scenarios written, and every scenario of the workload loaded
    (parsed and compiled) once.  Returns the fresh ``kkgeom`` package."""
    for name in [n for n in sys.modules if n.split(".")[0] == "kkgeom"]:
        del sys.modules[name]
    importlib.import_module("kkgeom.cli")
    kk = sys.modules["kkgeom"]
    workloads.write_generated(workload, seed)
    for path in workloads.scenario_paths(workload, seed).values():
        kk.scenario.load_scenario(path)
    return kk


def call(main, argv):
    """One CLI call; returns (exit code, stdout).  A traceback is a failed
    call, reported through the exit code."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the program must not raise; count it
            rc = f"exception {type(exc).__name__}: {exc}"
    return rc, out.getvalue()


class Checker:
    """Checks every output, and that each call prints the same bytes in
    every pass (the CLI's reproducibility promise)."""

    def __init__(self, reference: dict, seed: int):
        self.reference = reference
        self.seed = seed
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def __call__(self, op, rc, stdout: str) -> None:
        self.attempted += 1
        msg = workloads.check_output(op, rc, stdout, self.reference,
                                     self.seed)
        digest = hashlib.sha256(stdout.encode()).hexdigest()
        if msg is None and self.digests.setdefault(op.key, digest) != digest:
            msg = "stdout differs from the first pass"
        if msg is not None:
            self.failures.append(f"{op.key}: {msg}")


def timed_call(main, op, check: Checker, times: dict) -> None:
    t0 = time.perf_counter()
    rc, out = call(main, op.argv)
    times[op.key].append(time.perf_counter() - t0)
    check(op, rc, out)


@dataclass
class Measured:
    kk: object          # the kkgeom package of the last set-up
    times: dict         # call key -> latencies
    rss_mb: float
    setup_s: list
    setup_kernel_s: list
    kernel_s: list


def measure(workload: str, seed: int, ops, check: Checker,
            seconds: float) -> Measured:
    """The untraced part of a run, ``seconds`` long, in three steps:
    a set-up and one pass, then the peak RSS is read, before the speed
    kernel first runs (its objects would set the peak); the timed set-ups,
    each followed by the kernel; passes until the time is over, with the
    kernel between calls at most every ``speed.EVERY_S``."""
    start = time.perf_counter()
    kk = setup(workload, seed)
    times = {op.key: [] for op in ops}
    for op in ops:
        timed_call(kk.cli.main, op, check, times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_s, setup_kernel_s = [], []
    for _ in range(SETUP_REPEATS):
        gc.collect()  # the previous import's modules, outside the timing
        t0 = time.perf_counter()
        kk = setup(workload, seed)
        setup_s.append(time.perf_counter() - t0)
        setup_kernel_s.append(speed.kernel())
    kernel_s = []
    last = time.perf_counter()
    for n in itertools.count():
        if time.perf_counter() - start >= seconds:
            break
        timed_call(kk.cli.main, ops[n % len(ops)], check, times)
        if time.perf_counter() - last >= speed.EVERY_S:
            kernel_s.append(speed.kernel())
            last = time.perf_counter()
    return Measured(kk, times, rss_mb, setup_s, setup_kernel_s,
                    kernel_s or [speed.kernel()])


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_summary(ms: list) -> dict:
    """Median, p90 and the highest whole percentile with at least ten
    samples beyond it, with the sample count."""
    n = len(ms)
    top = int(100 * (1 - 10 / n)) if n >= 20 else None
    return {"n": n, "p50": statistics.median(ms), "p90": percentile(ms, 90),
            "top_percentile": top,
            "top_value": percentile(ms, top) if top else None}


def end_to_end(ops, times: dict) -> tuple:
    """The gated metrics, and the per-kind figures of ``detail``."""
    med = {key: statistics.median(v) for key, v in times.items()}
    primary = "compute" if any(op.kind == "compute" for op in ops) else "check"
    lat = [1e3 * med[op.key] for op in ops if op.kind == primary]
    metrics = {
        "wall_s": (sum(med.values()), "s"),
        "call_ms_p50": (statistics.median(lat), "ms"),
        "call_ms_p90": (percentile(lat, 90), "ms"),
    }
    detail = {"passes": len(times[ops[0].key]),
              f"{primary}_latency_ms": latency_summary(lat)}
    checks = [op for op in ops if op.kind == "check"]
    if checks:
        detail["check_s"] = sum(med[op.key] for op in checks)
    for P in sorted({op.rank for op in ops if op.suite == "oracle"}):
        oracle = [op for op in ops if op.suite == "oracle" and op.rank == P]
        detail[f"oracle_s_per_point.p{P}"] = (
            sum(med[op.key] for op in oracle) / sum(op.points for op in oracle))
    lifts = [op for op in ops if op.kind == "lift"]
    if lifts:
        detail["lift_steps_per_s"] = (len(lifts) * workloads.LIFT_STEPS
                                      / sum(med[op.key] for op in lifts))
    detail["per_call_s"] = times
    return metrics, detail


def traced_pass(kk, ops, check: Checker, wall_s: float) -> tuple:
    """One pass under the profiler; the per-layer metrics and the full
    layer table."""
    prof = LayerProfile(kk)
    per_point = {}
    bytes_out = 0
    for op in ops:
        (rc, out), counts = prof.run(lambda: call(kk.cli.main, op.argv))
        check(op, rc, out)
        bytes_out += len(out.encode())
        if op.suite == "oracle":
            per_point.setdefault(op.rank, Counter()).update(
                {k: v / op.points for k, v in counts.items()})
    c, s = prof.counts, prof.self_s
    metrics = {f"{layer}.self_s": (s[layer], "s") for layer in LAYERS}
    metrics.update({
        "calculus.jet_allocs": (c["jet_allocs"], "count"),
        "calculus.ns_per_jet": (1e9 * s["calculus"] / max(c["jet_allocs"], 1),
                                "ns"),
        "nlconnection.derivative_passes": (c["derivative_passes"], "count"),
        "metric.coeff_evals": (c["coeff_evals"], "count"),
        "dconnection.oracle_builds": (c["oracle_builds"], "count"),
        "curvature.component_evals": (c["component_evals"], "count"),
        "exprlang.field_evals": (c["field_evals"], "count"),
        "lift.rhs_evals": (c["rhs_evals"], "count"),
        "lift.us_per_rhs_eval": (1e6 * prof.rhs_cum_s / max(c["rhs_evals"], 1),
                                 "us"),
        "scenario.loads": (c["loads"], "count"),
        "report.bytes_out": (bytes_out, "B"),
        "trace.overhead_ratio": (prof.wall_s / wall_s, "ratio"),
    })
    for P in workloads.FRAME_RANKS:
        point = per_point.get(P, {})
        metrics[f"nlconnection.passes_per_oracle_point.p{P}"] = (
            point.get("derivative_passes", 0), "count")
        metrics[f"calculus.jets_per_oracle_point.p{P}"] = (
            point.get("jet_allocs", 0), "count")
    layers = {"self_s": dict(s), "counts": dict(c),
              "traced_wall_s": prof.wall_s}
    return metrics, layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "kkgeom" / "cli.py").is_file() \
            or not (ROOT / "scenarios").is_dir():
        print(f"perfbench: no kkgeom sources under {ROOT}; run it from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # Set-ups import from cached bytecode, as an installed package does,
    # whatever PYTHONDONTWRITEBYTECODE says.
    sys.dont_write_bytecode = False
    os.chdir(ROOT)
    (ROOT / workloads.OUT_DIR).mkdir(parents=True, exist_ok=True)
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        reference = json.load(fh)

    ops = workloads.build_ops(args.workload, args.seed)
    check = Checker(reference, args.seed)
    # The profiled pass takes a few times as long as an untraced one.
    untraced = args.seconds / 2 if args.trace else args.seconds
    m = measure(args.workload, args.seed, ops, check, untraced)
    measured, detail = end_to_end(ops, m.times)
    scale = speed.NOMINAL_S / statistics.median(m.kernel_s)
    metrics = {k: (v * scale, u) for k, (v, u) in measured.items()}
    measured["setup_s"] = (statistics.median(m.setup_s), "s")
    metrics["setup_s"] = (measured["setup_s"][0] * speed.NOMINAL_S
                          / statistics.median(m.setup_kernel_s), "s")
    metrics["peak_rss_mb"] = (m.rss_mb, "MB")
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "setup_runs_s": m.setup_s,
              "setup_kernel_s": m.setup_kernel_s, "kernel_s": m.kernel_s,
              "end_to_end": {k: v for k, (v, _) in metrics.items()},
              "measured_s": {k: v for k, (v, _) in measured.items()},
              "detail": detail}
    if args.trace:
        metrics, record["layers"] = traced_pass(
            m.kk, ops, check, measured["wall_s"][0])
        record["per_layer"] = {k: v for k, (v, _) in metrics.items()}
    record.update(attempted=check.attempted, failures=check.failures)
    side = ROOT / workloads.OUT_DIR / (
        f"{args.workload}-seed{args.seed}{'-trace' if args.trace else ''}.json")
    side.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for line in check.failures[:20]:
        print(f"perfbench: FAILED {line}", file=sys.stderr)
    for key, value in detail.items():
        if key != "per_call_s":
            print(f"perfbench: {key} = {value}", file=sys.stderr)
    print(json.dumps({
        "correct": not check.failures,
        "attempted": check.attempted,
        "failed": len(check.failures),
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
