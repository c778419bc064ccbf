"""Cold wall time of the kkgeom command line over a fixed list of calls.

Runs every call as a fresh ``python -m kkgeom`` process from the root of
the repository this file lives in (``src`` on ``PYTHONPATH``), N times,
and prints one tab-separated line per call: the median wall time in ms,
the number of kernels the call generates when it is the first call of a
fresh process, the ms those kernels took to generate and compile, and the
command line.  Two lines come first for scale: the interpreter's own start
(``python -c pass``, which depends on the host's site-packages) and the
import of ``kkgeom.cli``.  Before them, after one untimed start of the
command line (``python -m kkgeom --help``, which imports every module a
call imports and caches its bytecode unless PYTHONDONTWRITEBYTECODE is
set), a comment line counts the modules of the package with and without
a cached ``.pyc``: each start compiles the modules without one, and with
none cached every median is some 30 ms higher.

    python3 tools/cold_cli.py            # N = 7
    python3 tools/cold_cli.py -n 3

A cold call is what a user of the command line pays: interpreter start,
import, the scenario load and the first use of every generated kernel.
Kernels are counted in a separate fresh process that wraps each kernel
factory and runs the call in process, so the timed processes run
unwrapped.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "kkgeom"

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
# in-process call generates and the seconds they take, each from its
# factory's first call for a key (a miss of the factory's cache) to its
# return, so the generation (format or unroll walk) and the compile are
# both counted, and prints both as JSON.  The factories are the cached
# ``*_kernel`` functions of the package and ``calculus._jet_class``.
_COUNT = """\
import contextlib, io, json, sys, time
from kkgeom import cli
made, spent = 0, 0.0
def timed(factory):
    def call(*key):
        global made, spent
        misses = factory.cache_info().misses
        start = time.perf_counter()
        kernel = factory(*key)
        if factory.cache_info().misses != misses:
            made += 1
            spent += time.perf_counter() - start
        return kernel
    return call
for name, module in list(sys.modules.items()):
    if name.startswith("kkgeom."):
        for attr, value in list(vars(module).items()):
            if (attr.endswith("_kernel") or attr == "_jet_class") and hasattr(
                    value, "cache_info"):
                setattr(module, attr, timed(value))
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


def bytecode_counts(package: Path = PACKAGE) -> tuple:
    """(modules with, modules without) their cached ``.pyc`` where this
    interpreter looks for it, over the modules of ``package``."""
    cached = [os.path.exists(importlib.util.cache_from_source(str(path)))
              for path in package.glob("*.py")]
    return sum(cached), len(cached) - sum(cached)


def kernels(argv):
    """(kernels generated, ms spent generating them) by ``argv`` run as the
    first call of a fresh process."""
    proc = subprocess.run([sys.executable, "-c", _COUNT, *argv], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          check=True)
    made, spent = json.loads(proc.stdout)
    return made, spent * 1e3


def line(argv, n: int) -> str:
    """One call's line: median cold ms, kernels, their ms, the command
    line."""
    made, spent = kernels(argv)
    return (f"{cold_ms(['-m', 'kkgeom', *argv], n):.1f}\t{made}\t"
            f"{spent:.1f}\t{shlex.join(argv)}")


def run(calls, n: int) -> list:
    """The lines of the report over ``calls``, header first, then the
    bytecode state after one untimed start."""
    subprocess.run([sys.executable, "-m", "kkgeom", "--help"], cwd=ROOT,
                   env=_env(), stdout=subprocess.DEVNULL, check=True)
    lines = ["# median_ms\tkernels\tkernel_ms\tcommand",
             "# bytecode: {} modules cached, {} not".format(
                 *bytecode_counts()),
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
