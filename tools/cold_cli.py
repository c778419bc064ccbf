"""Cold wall time of the kkgeom command line over a fixed list of calls.

Runs every call as a fresh ``python -m kkgeom`` process from the root of
the repository this file lives in (``src`` on ``PYTHONPATH``), N times,
and prints one tab-separated line per call: the median wall time in ms,
the number of kernels the call generates when it is the first call of a
fresh process, the ms those kernels took to compile, and the command
line.  Two lines come first for scale: the interpreter's own start
(``python -c pass``, which depends on the host's site-packages) and the
import of ``kkgeom.cli``.

    python3 tools/cold_cli.py            # N = 7
    python3 tools/cold_cli.py -n 3

A cold call is what a user of the command line pays: interpreter start,
import, the scenario load and the first use of every generated kernel.
Kernels are counted in a separate fresh process that wraps each module's
``compile_kernel`` and runs the call in process, so the timed processes
run unwrapped.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CALLS = [
    ["lift", "scenarios/d1.json", "--mode", "horizontal", "--steps", "400"],
    ["lift", "scenarios/d1.json", "--mode", "parallel", "--steps", "400"],
    ["compute", "scenarios/vdep.json", "--what", "curvature",
     "--at", "x1=0.1,x2=0.2,y0=1"],
    ["compute", "tests/data/gen3_seed1.json", "--what", "einstein",
     "--at", "x1=0.1,x2=0.2,x3=0.3,y0=1"],
    ["check", "scenarios/d1.json", "--suite", "all"],
]

# Run in a fresh process with the call's argv: counts the kernels its one
# in-process call generates and the seconds they take to compile, and
# prints both as JSON.
_COUNT = """\
import contextlib, io, json, sys, time
from kkgeom import calculus, cli
modules = [m for name, m in sys.modules.items() if name.startswith("kkgeom.")
           and getattr(m, "compile_kernel", None) is calculus.compile_kernel]
made, spent = 0, 0.0
def counting(*args, compile_kernel=calculus.compile_kernel):
    global made, spent
    start = time.perf_counter()
    try:
        return compile_kernel(*args)
    finally:
        made += 1
        spent += time.perf_counter() - start
for module in modules:
    module.compile_kernel = counting
with contextlib.redirect_stdout(io.StringIO()), \\
        contextlib.redirect_stderr(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps([made, spent]))
"""


def _env():
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path
                                              else ""))


def cold_ms(args, n: int) -> float:
    """The median wall time in ms of n fresh ``python *args`` processes."""
    times = []
    for _ in range(n):
        start = time.perf_counter()
        subprocess.run([sys.executable, *args], cwd=ROOT, env=_env(),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                       check=False)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def kernels(argv):
    """(kernels generated, ms spent compiling them) by ``argv`` run as the
    first call of a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _COUNT, *argv], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          check=True)
    made, spent = json.loads(proc.stdout)
    return made, spent * 1e3


def line(argv, n: int) -> str:
    """One call's line: median cold ms, kernels, their compile ms, the
    command line."""
    made, spent = kernels(argv)
    return (f"{cold_ms(['-m', 'kkgeom', *argv], n):.1f}\t{made}\t"
            f"{spent:.1f}\t{shlex.join(argv)}")


def run(calls, n: int) -> list:
    """The lines of the report over ``calls``, header first."""
    lines = ["# median_ms\tkernels\tkernel_ms\tcommand",
             f"{cold_ms(['-c', 'pass'], n):.1f}\t-\t-\tpython -c pass",
             f"{cold_ms(['-c', 'import kkgeom.cli'], n):.1f}\t-\t-\t"
             "python -c 'import kkgeom.cli'"]
    return lines + [line(argv, n) for argv in calls]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("-n", type=int, default=7,
                        help="processes per call (default 7)")
    args = parser.parse_args(argv)
    if args.n < 1:
        parser.error("-n must be at least 1")
    for text in run(CALLS, args.n):
        print(text, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
