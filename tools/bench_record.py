"""Record the benchmark's metrics and counts of this tree in BENCH_<n>.json.

    python3 tools/bench_record.py 35                  # writes BENCH_35.json
    python3 tools/bench_record.py --compare BENCH_32.json BENCH_35.json

Runs ``perfbench/run.py --trace 0`` as a subprocess for each workload of
``BENCHMARK.json`` at seeds 1 and 2, and ``--trace 1`` for each workload
at seed 1, for its ``run_seconds``, from the root of the repository this
file lives in, and writes ``BENCH_<n>.json`` there with sorted keys.
Under ``runs``, per workload and seed, is the last line that an untraced
run prints (``correct``, ``attempted``, ``failed`` and the end-to-end
metrics with their units); under ``traced`` the same line of the traced
run, with only its per-layer metrics whose unit is ``count`` (Jets
built, derivative passes, ...).  The file also holds the commit the tree
is checked out at (``git rev-parse HEAD``), whether it has uncommitted
changes, the Python version and ``os.cpu_count()``.  The times are this
machine's, in perfbench's reference seconds; compare two files written
on one machine.  The counts are deterministic and compare across
machines.

``--compare A B`` prints one line per workload, seed and metric that both
files hold: the two values and, for an end-to-end metric, the ratio
B / A marked ``single-run``: each file holds one run per workload and
seed, and a ratio of one run per side reads the host's drift as much as
the change, so it decides no claim.  For a count the line ends ``same``
or ``differs``.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2)
TRACED_SEED = 1


def _git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def perfbench(workload, seed, seconds, trace=0):
    """The JSON object of the last stdout line of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


def counts(run):
    """``run`` with only its metrics whose unit is ``count``."""
    return {**run, "metrics": {name: metric
                               for name, metric in run["metrics"].items()
                               if metric["unit"] == "count"}}


def record(seconds, workloads, seeds=SEEDS):
    """The document of BENCH_<n>.json for this tree."""
    status = _git("status", "--porcelain")
    return {
        "commit": _git("rev-parse", "HEAD"),
        "uncommitted_changes": None if status is None else bool(status),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "seconds": seconds,
        "runs": {workload: {str(seed): perfbench(workload, seed, seconds)
                            for seed in seeds}
                 for workload in workloads},
        "traced": {workload: {str(TRACED_SEED): counts(perfbench(
                       workload, TRACED_SEED, seconds, trace=1))}
                   for workload in workloads},
    }


def _ratio(a, b):
    return f"{a:.6g}\t{b:.6g}\t" + (f"{b / a:.3f}" if a else "-") \
        + "\tsingle-run"


def _same(a, b):
    return f"{a:.12g}\t{b:.12g}\t" + ("same" if a == b else "differs")


def compare(before, after):
    """Lines ``workload seed metric A B B/A single-run`` for the
    end-to-end metrics that both documents hold, then ``workload seed
    metric A B same`` (or ``differs``) for the counts of their traced
    runs."""
    lines = []
    for key, mark in (("runs", _ratio), ("traced", _same)):
        for workload, seeds in sorted(after.get(key, {}).items()):
            for seed, run in sorted(seeds.items()):
                old = before.get(key, {}).get(workload, {}).get(seed)
                if old is None:
                    continue
                for name, metric in sorted(run["metrics"].items()):
                    if name in old["metrics"]:
                        lines.append(f"{workload}\t{seed}\t{name}\t" + mark(
                            old["metrics"][name]["value"], metric["value"]))
    return lines


def write(doc, path):
    """``doc`` as JSON with sorted keys, one key per line."""
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("n", nargs="?", help="write BENCH_<n>.json")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="print the ratio B / A of every metric, marked "
                    "single-run, and whether each count differs")
    args = ap.parse_args(argv)
    if args.compare:
        before, after = (json.loads(p.read_text(encoding="utf-8"))
                         for p in args.compare)
        print("# workload\tseed\tmetric\tA\tB\tB/A single-run, or for a "
              "count same/differs")
        print("\n".join(compare(before, after)))
        return 0
    if args.n is None:
        ap.error("give n, or --compare A B")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = ROOT / f"BENCH_{args.n}.json"
    write(record(bench["run_seconds"],
                 [workload["name"] for workload in bench["workloads"]]), out)
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
