"""Record the benchmark's end-to-end metrics of this tree in BENCH_<n>.json.

    python3 tools/bench_record.py 32                  # writes BENCH_32.json
    python3 tools/bench_record.py --compare BENCH_31.json BENCH_32.json

Runs ``perfbench/run.py --trace 0`` as a subprocess for each workload of
``BENCHMARK.json`` at seeds 1 and 2, for its ``run_seconds``, from the
root of the repository this file lives in, and writes ``BENCH_<n>.json``
there with sorted keys: per workload and seed the last line that
perfbench prints (``correct``, ``attempted``, ``failed`` and the metrics
with their units), plus the commit the tree is checked out at (``git
rev-parse HEAD``), whether it has uncommitted changes, the Python version
and ``os.cpu_count()``.  The times are this machine's, in
perfbench's reference seconds; compare two files written on one machine.

``--compare A B`` prints one line per workload, seed and metric that both
files hold: the two values and the ratio B / A.  Standard library only.
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


def _git(*args):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def perfbench(workload, seed, seconds):
    """The JSON object of the last stdout line of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-1])


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
    }


def compare(before, after):
    """Lines ``workload seed metric A B B/A`` for the metrics both
    documents hold."""
    lines = []
    for workload, seeds in sorted(after["runs"].items()):
        for seed, run in sorted(seeds.items()):
            old = before["runs"].get(workload, {}).get(seed)
            if old is None:
                continue
            for name, metric in sorted(run["metrics"].items()):
                if name not in old["metrics"]:
                    continue
                a, b = old["metrics"][name]["value"], metric["value"]
                ratio = f"{b / a:.3f}" if a else "-"
                lines.append(f"{workload}\t{seed}\t{name}\t{a:.6g}\t{b:.6g}"
                             f"\t{ratio}")
    return lines


def write(doc, path):
    """``doc`` as JSON with sorted keys, one key per line."""
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("n", nargs="?", help="write BENCH_<n>.json")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"),
                    help="print the ratio B / A of every metric")
    args = ap.parse_args(argv)
    if args.compare:
        before, after = (json.loads(p.read_text(encoding="utf-8"))
                         for p in args.compare)
        print("# workload\tseed\tmetric\tA\tB\tB/A")
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
