"""Command-line interface.

    kkgeom validate FILE [--samples N] [--seed K] [--tol T]
    kkgeom compute FILE --what W --at "x1=..,x2=..,y0=.."
    kkgeom check FILE --suite S [--tol T] [--samples N] [--seed K]
    kkgeom lift FILE --mode M [--t0 A] [--t1 B] [--steps N]

Exit codes: 0 pass, 1 failed check or runtime failure, 2 input error.
Structured output is one JSON document on stdout (byte-identical for
identical inputs: floats at 17 significant digits, no timing data); the
human-readable summary, including wall times, goes to stderr.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

from .calculus import EPoint, EvaluationDomainError, at_point
from .curvature import (
    curvature_components,
    energy_momentum,
    ricci,
    scalar_curvature,
    torsion_components,
)
from .lift import MAX_STEPS, integrate_horizontal_parallel, \
    integrate_parallel_lift, integrate_vertical_parallel
from .metric import SingularMetricError, inverse_h
from .nlconnection import nlc_curvature
from .report import emit_json
from .sampling import MAX_SAMPLES
from .scenario import Scenario, ScenarioError, bounded_count, load_scenario
from .suites import SUITES, VALIDATE_TOL, applicable_suites, run_suites, \
    run_validate

WHAT_CHOICES = ["frame", "nlc-curvature", "torsion", "curvature", "ricci",
                "scalar", "einstein"]
MODE_CHOICES = ["parallel", "horizontal", "vertical"]


def _fail(msg: str, code: int) -> int:
    print(f"kkgeom: error: {msg}", file=sys.stderr)
    return code


def _finite(text: str) -> float:
    """An argparse type: a finite float (NaN and infinities refused)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _tolerance(text: str) -> float:
    """An argparse type: a finite float >= 0."""
    value = _finite(text)
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value


def _parse_at(text: str, sc: Scenario) -> EPoint:
    values = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ScenarioError("--at", f"expected name=value, got {part!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key in values:
            raise ScenarioError("--at", f"coordinate {key!r} given twice")
        try:
            values[key] = float(raw)
        except ValueError:
            raise ScenarioError("--at", f"bad number {raw!r} for {key!r}")
    needed = [f"x{i + 1}" for i in range(sc.m)] + ["y0"]
    missing = [k for k in needed if k not in values]
    extra = [k for k in values if k not in needed]
    if missing or extra:
        raise ScenarioError(
            "--at", f"need exactly {', '.join(needed)}"
            + (f"; missing {missing}" if missing else "")
            + (f"; unknown {extra}" if extra else ""))
    xs = tuple(values[f"x{i + 1}"] for i in range(sc.m))
    y = values["y0"]
    for i, (lo, hi) in enumerate(sc.box.x_ranges):
        if not lo <= xs[i] <= hi:
            raise ScenarioError("--at", f"x{i + 1}={xs[i]} outside box "
                                        f"[{lo}, {hi}]")
    lo, hi = sc.box.y_range
    if not lo <= y <= hi:
        raise ScenarioError("--at", f"y0={y} outside box [{lo}, {hi}]")
    return EPoint(xs, y)


def _point_obj(pt: EPoint):
    return {"x": list(pt.x), "y0": pt.y}


def _check_samples(args) -> None:
    if args.samples is not None:
        bounded_count(args.samples, "--samples", MAX_SAMPLES)


def cmd_validate(args) -> int:
    _check_samples(args)
    sc = load_scenario(args.scenario)
    t0 = time.perf_counter()
    checks = run_validate(sc, samples=args.samples, seed=args.seed,
                          tol=args.tol)
    elapsed = time.perf_counter() - t0
    passed = all(c.get("passed", False) for c in checks)
    doc = {
        "command": "validate",
        "scenario": args.scenario,
        "seed": args.seed if args.seed is not None else sc.seed,
        "samples": args.samples if args.samples is not None else sc.samples,
        "checks": checks,
        "passed": passed,
    }
    print(emit_json(doc))
    for c in checks:
        status = "ok " if c.get("passed") else "FAIL"
        extra = (f"max {c['max_residual']:.3e}" if "max_residual" in c else "")
        print(f"{status} {c['name']:<28s} {extra}", file=sys.stderr)
    print(f"validate: {'pass' if passed else 'FAIL'} ({elapsed:.2f} s)",
          file=sys.stderr)
    return 0 if passed else 1


def _all_finite(node) -> bool:
    """Every number in a block (a number or a rectangular nested list)."""
    if not isinstance(node, list):
        return math.isfinite(node)
    if node and isinstance(node[0], list):
        return all(map(_all_finite, node))
    return all(map(math.isfinite, node))


def _compute_values(sc: Scenario, what: str, pt: EPoint) -> dict:
    """The ``compute --what`` blocks at ``pt``; a non-finite entry is an
    evaluation error."""
    A, N = sc.algebroid, sc.connection
    if what == "frame":
        values = {"rho": A.rho_at(pt.x), "Gamma": N.gamma_at(pt.x, pt.y),
                  "index_convention": "rho[alpha][i]; Gamma[alpha]"}
    elif what == "nlc-curvature":
        values = {"R": nlc_curvature(A, N, pt),
                  "index_convention": "R[alpha][beta], antisymmetric"}
    elif what == "torsion":
        t = torsion_components(sc.dconnection(), N, A, pt)
        values = {"Thh": t.Thh, "Tv": t.Tv, "Ph": t.Ph, "Pv": t.Pv,
                  "S00": t.S00,
                  "index_convention":
                      "Thh[upper][lower1][lower2]; Tv[lower1][lower2]; "
                      "Ph[upper][lower]; Pv[lower]"}
    elif what == "curvature":
        c = curvature_components(sc.dconnection(), N, A, pt)
        values = {"Rh": c.Rh, "Rv": c.Rv, "Ph": c.Ph, "Pv": c.Pv,
                  "Sh": c.Sh, "Sv": c.Sv,
                  "index_convention":
                      "Rh[upper][vector][pair1][pair2]; Rv[pair1][pair2]; "
                      "Ph[upper][vector][pair1]; Pv[pair1]"}
    elif what in ("ricci", "scalar", "einstein"):
        if sc.metric is None and what != "ricci":
            raise ScenarioError("metric", f"--what {what} requires a metric")
        c = curvature_components(sc.dconnection(), N, A, pt)
        ric = ricci(c)
        if what == "ricci":
            values = {"Ric": ric.Rab, "P_h0": ric.Pa0, "P_0h": ric.P0b,
                      "S00": ric.S00,
                      "index_convention": "Ric[alpha][beta]"}
        else:
            scal = scalar_curvature(ric, sc.metric, pt)
            if what == "scalar":
                values = {"scalar_curvature": scal}
            else:
                em = energy_momentum(ric, scal, sc.metric, sc.kappa, pt)
                values = {"Tab": em.Tab, "Ta0": em.Ta0, "T0b": em.T0b,
                          "T00": em.T00, "kappa": em.kappa,
                          "scalar_curvature": scal,
                          "index_convention": "Tab[alpha][beta]"}
    else:
        raise ScenarioError("--what", f"unknown block {what!r}")
    for key, block in values.items():
        if key != "index_convention" and not _all_finite(block):
            raise EvaluationDomainError(
                f"non-finite value in {what} block {key}", point=pt)
    return values


def cmd_compute(args) -> int:
    sc = load_scenario(args.scenario)
    pt = _parse_at(args.at, sc)
    what = args.what
    with at_point(pt):
        if sc.metric is not None:
            # the metric connection inverts g unchecked
            inverse_h(sc.metric, pt)
        values = _compute_values(sc, what, pt)
    doc = {"command": "compute", "scenario": args.scenario, "what": what,
           "at": _point_obj(pt), "values": values}
    print(emit_json(doc))
    print(f"compute {what} at {args.at}: done", file=sys.stderr)
    return 0


def cmd_check(args) -> int:
    _check_samples(args)
    sc = load_scenario(args.scenario)
    suites = applicable_suites(sc) if args.suite == "all" else [args.suite]
    checks = []
    timings = []
    for suite, trackers, samples, seconds in run_suites(
            sc, suites, tol=args.tol, samples=args.samples, seed=args.seed):
        timings.append((suite, seconds))
        for tracker in trackers:
            obj = tracker.to_json_obj()
            obj["suite"] = suite
            obj["samples"] = samples
            checks.append(obj)
    passed = all(c["passed"] for c in checks)
    doc = {
        "command": "check",
        "scenario": args.scenario,
        "suite": args.suite,
        "seed": args.seed if args.seed is not None else sc.seed,
        "samples": args.samples,
        "tol": args.tol,
        "checks": checks,
        "passed": passed,
    }
    print(emit_json(doc))
    times = dict(timings)
    for c in checks:
        status = "ok " if c["passed"] else "FAIL"
        print(f"{status} {c['name']:<32s} max {c['max_residual']:.3e} "
              f"tol {c['tol']:.0e}", file=sys.stderr)
    total = sum(t for _, t in timings)
    detail = ", ".join(f"{s} {t:.2f}s" for s, t in timings)
    print(f"check: {'pass' if passed else 'FAIL'} ({detail}; total {total:.2f} s)",
          file=sys.stderr)
    return 0 if passed else 1


def cmd_lift(args) -> int:
    bounded_count(args.steps, "--steps", MAX_STEPS)
    if not math.isfinite(args.t1 - args.t0):
        raise ScenarioError("--t1", f"t1 - t0 overflows (t0={args.t0!r}, "
                                    f"t1={args.t1!r})")
    sc = load_scenario(args.scenario)
    if sc.lift is None:
        raise ScenarioError("lift", "scenario has no lift section")
    c, L, y0 = sc.lift.curve, sc.lift.morphism, sc.lift.y0
    A, N = sc.algebroid, sc.connection
    if args.mode == "parallel":
        traj = integrate_parallel_lift(c, L, A, N, y0, args.steps,
                                       args.t0, args.t1)
    elif args.mode == "horizontal":
        xs0 = c.point_at(args.t0)
        g0 = L.g_at(xs0)
        z0 = tuple(g0[a] * y0 for a in range(sc.p))
        traj = integrate_horizontal_parallel(c, L, A, N, sc.dconnection(),
                                             z0, args.steps, args.t0,
                                             args.t1, y0)
    elif args.mode == "vertical":
        traj = integrate_vertical_parallel(c, A, N, sc.dconnection(), y0,
                                           args.steps, args.t0, args.t1)
    else:
        raise ScenarioError("--mode", f"unknown mode {args.mode!r}")
    doc = {
        "command": "lift",
        "scenario": args.scenario,
        "mode": args.mode,
        "t0": args.t0,
        "t1": args.t1,
        "steps": args.steps,
        "completed": traj.completed,
        "trajectory": [[s.t, list(s.state)] for s in traj.points],
        "final": {"t": traj.last.t, "state": list(traj.last.state)},
    }
    if not traj.completed:
        doc["error"] = traj.message
    print(emit_json(doc))
    state_str = ", ".join(f"{v:.12g}" for v in traj.last.state)
    print(f"lift {args.mode}: final t={traj.last.t:.6g} state=({state_str})"
          + ("" if traj.completed else f"  [{traj.message}]"),
          file=sys.stderr)
    return 0 if traj.completed else 1


class _Parser(argparse.ArgumentParser):
    """An argument parser (and, through ``add_subparsers``, its
    subparsers) that reports a bad command line in one stderr line and
    reads every token that parses as a float (``-1e-8``, ``-inf``) as a
    value, where argparse alone takes ``-1e-8`` for an option."""

    def error(self, message):
        self.exit(2, f"kkgeom: error: {message}\n")

    def _parse_optional(self, arg_string):
        if arg_string[:1] != "-":
            return None     # argparse's own answer for such a token
        try:
            float(arg_string)
        except ValueError:
            return super()._parse_optional(arg_string)
        return None


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="kkgeom",
        description="Adapted-frame geometry engine: validators, component "
                    "computations, identity suites and lift ODEs over "
                    "scenario files.")
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's own parser, by name, for :func:`main`
    parser.commands = sub.choices

    pv = sub.add_parser("validate", help="structure validators")
    pv.add_argument("scenario")
    pv.add_argument("--samples", type=int, default=None)
    pv.add_argument("--seed", type=int, default=None)
    pv.add_argument("--tol", type=_tolerance, default=VALIDATE_TOL)
    pv.set_defaults(func=cmd_validate)

    pc = sub.add_parser("compute", help="component blocks at a point")
    pc.add_argument("scenario")
    pc.add_argument("--what", required=True, choices=WHAT_CHOICES)
    pc.add_argument("--at", required=True,
                    help='point, e.g. "x1=0.2,x2=-0.4,y0=1.0"')
    pc.set_defaults(func=cmd_compute)

    pk = sub.add_parser("check", help="identity suites")
    pk.add_argument("scenario")
    pk.add_argument("--suite", default="all", choices=[*SUITES, "all"])
    pk.add_argument("--tol", type=_tolerance, default=None)
    pk.add_argument("--samples", type=int, default=None)
    pk.add_argument("--seed", type=int, default=None)
    pk.set_defaults(func=cmd_check)

    pl = sub.add_parser("lift", help="parallelism ODE integration")
    pl.add_argument("scenario")
    pl.add_argument("--mode", required=True, choices=MODE_CHOICES)
    pl.add_argument("--t0", type=_finite, default=0.0)
    pl.add_argument("--t1", type=_finite, default=1.0)
    pl.add_argument("--steps", type=int, default=1000)
    pl.set_defaults(func=cmd_lift)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on its first call (not at import)
    and reused: parsing leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    """Run one command line.  One that starts with a known command is
    parsed by that command's parser, the one the top-level parser would
    hand it to, with the same errors; any other (none, ``-h``, an
    unknown command) by the top-level parser."""
    if argv is None:
        argv = sys.argv[1:]
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = parser.parse_args(argv) if command is None \
        else command.parse_args(argv[1:])
    try:
        return args.func(args)
    except ScenarioError as exc:
        return _fail(str(exc), 2)
    except EvaluationDomainError as exc:
        where = f" at {exc.point}" if exc.point is not None else ""
        if not isinstance(exc, SingularMetricError):
            return _fail(f"evaluation error: {exc}{where}", 1)
        if exc.condition is not None:
            where = f" (condition {exc.condition}){where}"
        return _fail(f"singular metric: {exc}{where}", 1)


def entry() -> int:
    """:func:`main` on the process arguments: the ``kkgeom`` script,
    ``python -m kkgeom`` and ``python -m kkgeom.cli``.  A reader that
    closes stdout early (say, ``| head -1``) gets exit 1, not a
    ``BrokenPipeError`` traceback."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(entry())
