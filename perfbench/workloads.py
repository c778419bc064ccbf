"""The three workloads as lists of CLI calls, and the checker for their output.

Every operation is one ``kkgeom`` command line, run in-process through
``kkgeom.cli.main``.  Paths are relative to the repository root, which is
the working directory of every run, so stdout bytes do not depend on where
the checkout lives.

* desk-certify: ``check --suite all`` on the 8 shipped scenarios at the
  default sample counts.  The command users run; at p = m = 2 it is
  dominated by depth-3 Jets in the oracle and by the metric connection.
* frame-scale: generated p = m = 3 and 4 scenarios, ``validate`` and then
  each suite as its own ``check`` call.  Oracle derivative passes per point
  grow with p, so oracle and Jet optimisations show most here.
* query-lift: ``compute`` at seeded points of vdep and the generated p = 3
  scenario, and ``lift`` in every mode on d1, berwald and riccati.  Never
  reaches the oracle: Jet depth <= 2, RK4 in floats, a scenario load per
  call and a whole trajectory written per lift.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

import scenarios

WORKLOADS = ("desk-certify", "frame-scale", "query-lift")
DEFAULT_SEED = 1
OUT_DIR = "perfbench/out"

DESK_SCENARIOS = ("flat", "d1", "nonabelian", "sphere", "vdep", "berwald",
                  "riccati", "d1_perturbed")
# The one check expected to fail: d1_perturbed carries a deliberately broken
# explicit connection next to its metric.
EXPECTED_FAILURES = {"d1_perturbed": {"compatibility"}}

FRAME_RANKS = (3, 4)
# Samples per suite call, sized so one pass takes a few seconds here.
FRAME_SAMPLES = {
    3: {"oracle": 2, "ricci-commutation": 6, "bianchi": 3,
        "compatibility": 20, "transformation": 10},
    4: {"oracle": 1, "ricci-commutation": 3, "bianchi": 2,
        "compatibility": 20, "transformation": 10},
}

QUERY_WHATS = ("frame", "nlc-curvature", "torsion", "curvature", "einstein")
QUERY_POINTS = 10
LIFT_SCENARIOS = ("d1", "berwald", "riccati")
LIFT_MODES = ("parallel", "horizontal", "vertical")
# riccati's vertical lift blows up at t = 1; t1 = 0.9 keeps every run whole.
LIFT_STEPS = 400
LIFT_ARGS = ("--t0", "0", "--t1", "0.9", "--steps", str(LIFT_STEPS))

# Compute and lift values must match the reference within this relative
# tolerance, the tightest of the suites' own tolerances (compatibility).
REL_TOL = 1e-9


@dataclass
class Op:
    """One CLI call and what its output must be."""

    key: str            # seed-independent name, used for the reference
    kind: str           # validate | check | compute | lift
    argv: list
    suite: str = ""     # check calls: the suite, "all" on desk-certify
    rank: int = 0       # frame-scale: p of the generated scenario
    points: int = 0     # check calls: sample points per suite
    expect_fail: set = field(default_factory=set)


def scenario_paths(workload: str, seed: int) -> dict:
    """Scenario name -> path for every scenario the workload reads."""
    paths = {}
    if workload == "desk-certify":
        names = DESK_SCENARIOS
    elif workload == "query-lift":
        names = ("vdep",) + LIFT_SCENARIOS
    else:
        names = ()
    for name in names:
        paths[name] = f"scenarios/{name}.json"
    ranks = {"frame-scale": FRAME_RANKS, "query-lift": (3,)}.get(workload, ())
    for P in ranks:
        paths[f"gen{P}"] = f"{OUT_DIR}/gen{P}-seed{seed}.json"
    return paths


def write_generated(workload: str, seed: int) -> None:
    for name, path in scenario_paths(workload, seed).items():
        if name.startswith("gen"):
            scenarios.write(path, scenarios.generate(int(name[3:]), seed))


def _point(rng: random.Random, m: int) -> str:
    # Inside the default box [-1, 1]^m x [0.1, 2.0] of both scenarios.
    xs = [f"x{i + 1}={rng.uniform(-0.9, 0.9):.6f}" for i in range(m)]
    return ",".join(xs + [f"y0={rng.uniform(0.2, 1.9):.6f}"])


def build_ops(workload: str, seed: int) -> list:
    """The operations of one pass, in order."""
    paths = scenario_paths(workload, seed)
    s = str(seed)
    ops = []
    if workload == "desk-certify":
        for name in DESK_SCENARIOS:
            ops.append(Op(f"check:{name}:all", "check",
                          ["check", paths[name], "--suite", "all", "--seed", s],
                          suite="all",
                          expect_fail=EXPECTED_FAILURES.get(name, set())))
    elif workload == "frame-scale":
        for P in FRAME_RANKS:
            path = paths[f"gen{P}"]
            ops.append(Op(f"validate:gen{P}", "validate",
                          ["validate", path, "--seed", s], rank=P))
            for suite, n in FRAME_SAMPLES[P].items():
                ops.append(Op(f"check:gen{P}:{suite}", "check",
                              ["check", path, "--suite", suite,
                               "--samples", str(n), "--seed", s],
                              suite=suite, rank=P, points=n))
    elif workload == "query-lift":
        for name, m in (("vdep", 2), ("gen3", 3)):
            rng = random.Random(f"{seed}:points:{name}")
            for k in range(QUERY_POINTS):
                at = _point(rng, m)
                for what in QUERY_WHATS:
                    ops.append(Op(f"compute:{name}:{what}:{k}", "compute",
                                  ["compute", paths[name], "--what", what,
                                   "--at", at]))
        for name in LIFT_SCENARIOS:
            for mode in LIFT_MODES:
                ops.append(Op(f"lift:{name}:{mode}", "lift",
                              ["lift", paths[name], "--mode", mode,
                               *LIFT_ARGS]))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# -- output checking --------------------------------------------------------


def numbers(obj) -> list:
    """Every number in a JSON value, in document order; the CLI prints
    non-finite floats as the strings "nan", "inf" and "-inf"."""
    if isinstance(obj, dict):
        return [v for x in obj.values() for v in numbers(x)]
    if isinstance(obj, list):
        return [v for x in obj for v in numbers(x)]
    if isinstance(obj, bool):
        return []
    if isinstance(obj, (int, float)):
        return [float(obj)]
    if obj in ("nan", "inf", "-inf"):
        return [float(obj)]
    return []


def lift_sample(doc: dict) -> list:
    """Eleven evenly spaced trajectory points plus the final state."""
    traj = doc["trajectory"]
    idx = sorted({round(i * (len(traj) - 1) / 10) for i in range(11)})
    return numbers([traj[i] for i in idx]) + numbers(doc["final"])


def observed(op: Op, doc: dict):
    """The part of an output that is compared with the reference."""
    if op.kind in ("check", "validate"):
        return {c["name"]: c["passed"] for c in doc["checks"]}
    if op.kind == "compute":
        return numbers(doc["values"])
    return lift_sample(doc)


def _close(got: list, want: list) -> bool:
    return len(got) == len(want) and all(
        abs(a - b) <= REL_TOL * max(1.0, abs(b)) for a, b in zip(got, want))


def check_output(op: Op, rc: int, stdout: str, reference: dict,
                 seed: int) -> str | None:
    """None when the output is as expected, else what is wrong."""
    expect_rc = 1 if op.expect_fail else 0
    if rc != expect_rc:
        return f"exit code {rc}, expected {expect_rc}"
    try:
        doc = json.loads(stdout)
        got = observed(op, doc)
    except ValueError:
        return "stdout is not one JSON document"
    except (KeyError, TypeError, IndexError) as exc:
        return f"output lacks an expected field: {exc!r}"
    ref = reference["ops"].get(op.key)
    if ref is None:
        return "no reference recorded for this operation"
    if op.kind in ("check", "validate"):
        failed = {name for name, ok in got.items() if not ok}
        if failed != op.expect_fail:
            return f"failing checks {sorted(failed)}, expected " \
                   f"{sorted(op.expect_fail)}"
        if sorted(got) != sorted(ref):
            return f"checks {sorted(got)}, expected {sorted(ref)}"
        return None
    if not all(math.isfinite(v) for v in numbers(doc)):
        return "non-finite value in output"
    if op.kind == "lift" and doc.get("completed") is not True:
        return "lift did not complete"
    # Lifts do not depend on the seed; computes are compared at the seed
    # the reference was recorded with.
    if (op.kind == "lift" or seed == reference["seed"]) \
            and not _close(got, ref):
        return f"values differ from the reference by more than {REL_TOL}"
    return None
