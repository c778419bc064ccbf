"""Digest of the kkgeom command line over a fixed list of calls.

Runs every call in process through ``kkgeom.cli.main``, from the root of
the repository this file lives in, and prints one line per call: the
command line, the exit code, the sha256 of stdout and the sha256 of stderr
with its wall times removed.  Two trees that print the same digest print
the same JSON, exit codes and messages on every listed call, so a change
that must not alter any output is checked by diffing the digests of the
two trees:

    python3 tools/cli_digest.py > after.txt

``tests/golden/cli_digest.txt`` holds the recorded digest, and
``tests/test_tools.py`` checks that the tree still prints it; a change
that alters an output on purpose records it again.

The calls: ``validate`` and ``check --suite all --samples 2 --seed 1`` on
every shipped scenario and the generated p = 3 and p = 4 scenarios
``tests/data/gen3_seed1.json`` and ``tests/data/gen4_seed1.json``, every
``compute --what`` at two fixed points of each one's sampling box, and
every ``lift`` mode at ``--steps 50`` on the scenarios with a lift section.
Standard library only.
"""

from __future__ import annotations

import hashlib
import io
import os
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from kkgeom.cli import MODE_CHOICES, WHAT_CHOICES, main
from kkgeom.scenario import load_scenario

SCENARIOS = [f"scenarios/{name}.json" for name in (
    "berwald", "d1", "d1_perturbed", "flat", "nonabelian", "riccati",
    "sphere", "vdep")] + [f"tests/data/gen{P}_seed1.json" for P in (3, 4)]
LIFT_SCENARIOS = [f"scenarios/{name}.json"
                  for name in ("berwald", "d1", "flat", "riccati")]
# Where each coordinate of the two compute points sits in its box range.
POINT_FRACTIONS = (0.25, 2.0 / 3.0)

# The wall times on stderr: "(0.12 s)", "oracle 0.05s".
_TIME = re.compile(r"\d+\.\d\d ?s\b")


def _at(sc, fraction: float) -> str:
    """The ``--at`` text of the point at ``fraction`` of every range of
    the box of ``sc``."""
    ranges = sc.box.x_ranges + (sc.box.y_range,)
    names = [f"x{i + 1}" for i in range(sc.m)] + ["y0"]
    return ",".join(f"{name}={lo + fraction * (hi - lo)!r}"
                    for name, (lo, hi) in zip(names, ranges))


def calls() -> list:
    """The argv of every call, paths relative to the repository root."""
    out = []
    for path in SCENARIOS:
        out.append(["validate", path])
        out.append(["check", path, "--suite", "all", "--samples", "2",
                    "--seed", "1"])
    for path in SCENARIOS:
        sc = load_scenario(str(ROOT / path))
        for fraction in POINT_FRACTIONS:
            at = _at(sc, fraction)
            out += [["compute", path, "--what", what, "--at", at]
                    for what in WHAT_CHOICES]
    for path in LIFT_SCENARIOS:
        out += [["lift", path, "--mode", mode, "--steps", "50"]
                for mode in MODE_CHOICES]
    return out


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digest(argv) -> str:
    """One call's line: command, exit code, sha256 of stdout and of the
    timing-stripped stderr, tab-separated.  Run from the repository root."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = main(list(argv))
        except SystemExit as exc:
            rc = exc.code
    stripped = _TIME.sub("<t>", err.getvalue())
    return "\t".join((shlex.join(argv), str(rc), _sha(out.getvalue()),
                      _sha(stripped)))


def run() -> int:
    os.chdir(ROOT)
    for argv in calls():
        print(digest(argv))
    return 0


if __name__ == "__main__":
    sys.exit(run())
