"""Named check suites over a scenario: validators and identity batteries.

The transformation suite is the only non-obvious construction here: it
builds the primed-chart data independently (transforming the anchor,
bracket, nonlinear-connection and metric tables, then *reconstructing* the
metric connection in the primed chart) and only then measures the residual
of the coefficient change laws, so the law is tested, not restated.
"""

from __future__ import annotations

import time

from .algebroid import (
    AlgebroidData,
    validate_anchor_compatibility,
    validate_antisymmetry,
    validate_jacobi,
)
from .calculus import EPoint, at_point
from .curvature import (
    BianchiCheck,
    OracleCheck,
    PointTables,
    RicciCommutationCheck,
    default_test_vector,
)
from .dconnection import dconnection_transformation_point
from .lift import local_invertibility_residual
from .metric import CompatibilityCheck, MetricStructure, inverse_h, \
    matrix_inverse, metric_dconnection, riemannian_flags
from .nlconnection import CoordinateChange, NonlinearConnection, \
    nlc_transformation_point
from .report import ResidualTracker
from .sampling import sample_points
from .scenario import Scenario, ScenarioError

__all__ = ["SUITE_NAMES", "SUITE_DEFAULT_SAMPLES", "SUITE_DEFAULT_TOLS",
           "run_validate", "run_suites", "applicable_suites"]

SUITE_NAMES = ["oracle", "ricci-commutation", "bianchi", "compatibility",
               "transformation"]

SUITE_DEFAULT_SAMPLES = {
    "oracle": 20,
    "ricci-commutation": 20,
    "bianchi": 6,
    "compatibility": 40,
    "transformation": 25,
}

SUITE_DEFAULT_TOLS = {
    "oracle": 1e-8,
    "ricci-commutation": 1e-6,
    "bianchi": 1e-5,
    "compatibility": 1e-9,
    "transformation": 1e-8,
}


def _det(mat):
    n = len(mat)
    a = [[float(v) for v in row] for row in mat]
    det = 1.0
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(a[r][col]))
        if a[pivot_row][col] == 0.0:
            return 0.0
        if pivot_row != col:
            a[col], a[pivot_row] = a[pivot_row], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            factor = a[r][col] / a[col][col]
            for c in range(col, n):
                a[r][c] -= factor * a[col][c]
    return det


def run_validate(sc: Scenario, samples=None, seed=None, tol: float = 1e-8):
    """Structure validators plus metric and lift-morphism sanity checks.
    Returns a list of JSON-ready check dicts."""
    n = samples if samples is not None else sc.samples
    pts = sample_points(sc.box, n, seed if seed is not None else sc.seed)
    checks = []
    for res in (
        validate_antisymmetry(sc.algebroid, pts, tol),
        validate_anchor_compatibility(sc.algebroid, pts, tol),
        validate_jacobi(sc.algebroid, pts, tol),
    ):
        checks.append(res.to_json_obj())
    if sc.metric is not None:
        sym = ResidualTracker("g_symmetry", tol)
        min_det = float("inf")
        min_g00 = float("inf")
        for pt in pts:
            with at_point(pt):
                g = sc.metric.g_at(pt.x, pt.y)
                g00 = abs(sc.metric.g00_at(pt.x, pt.y))
            for a in range(sc.p):
                for b in range(sc.p):
                    sym.update(g[a][b] - g[b][a], pt)
            # A NaN must fail the check, so it replaces the minimum and is
            # never replaced (``min`` would drop it).
            det = abs(_det(g))
            if det < min_det or det != det:
                min_det = det
            if g00 < min_g00 or g00 != g00:
                min_g00 = g00
        checks.append(sym.result().to_json_obj())
        checks.append({
            "name": "metric_nondegeneracy",
            "min_abs_det_g": min_det,
            "min_abs_g00": min_g00,
            "passed": min_det > 1e-12 and min_g00 > 1e-12,
        })
        h_flag, v_flag = riemannian_flags(sc.metric, pts)
        checks.append({
            "name": "riemannian_flags",
            "h_independent_of_y0": h_flag,
            "v_independent_of_y0": v_flag,
            "passed": True,  # informational: fiber dependence is allowed
        })
    if sc.lift is not None and sc.lift.morphism.gtilde_at is not None:
        worst = local_invertibility_residual(sc.lift.morphism, pts)
        checks.append({
            "name": "lift_local_invertibility",
            "max_residual": worst,
            "tol": tol,
            "passed": worst <= tol,
        })
    return checks


def applicable_suites(sc: Scenario):
    names = ["oracle", "ricci-commutation", "bianchi"]
    if sc.metric is not None:
        names += ["compatibility", "transformation"]
    return names


def _frame_change_data(sc: Scenario):
    """A constant invertible frame change C and the anchor, bracket,
    nonlinear-connection and metric tables in the new frame, built
    tensorially from the unprimed tables: ``(C, A', N', G')``.

    Each primed table evaluation transforms one evaluation of the unprimed
    table, with the summation order of the per-entry law.
    """
    p, m = sc.p, sc.m
    lam = [[1.0 if a == b else 0.0 for b in range(p)] for a in range(p)]
    if p == 1:
        lam[0][0] = 2.0
    else:
        lam[0][1] = 1.0  # unitriangular, det 1
    lam_inv = matrix_inverse(lam)
    C = CoordinateChange(m, p, lambda_at=lambda xs: lam,
                         lambda_inv_at=lambda xs: lam_inv)
    A, N, G = sc.algebroid, sc.connection, sc.metric
    P = range(p)

    def rho_at(xs):
        rho = A.rho_at(xs)
        return [[sum(lam_inv[a][ap] * rho[a][i] for a in P) for i in range(m)]
                for ap in P]

    def L_at(xs):
        Lv = A.L_at(xs)
        return [[[sum(lam[gp][g] * Lv[g][a][b] * lam_inv[a][ap] * lam_inv[b][bp]
                      for g in P for a in P for b in P)
                  for bp in P] for ap in P] for gp in P]

    def gamma_at(xs, y):
        gam = N.gamma_at(xs, y)
        return [sum(gam[g] * lam_inv[g][gp] for g in P) for gp in P]

    def g_at(xs, y):
        gv = G.g_at(xs, y)
        return [[sum(gv[a][b] * lam_inv[a][ap] * lam_inv[b][bp]
                     for a in P for b in P) for bp in P] for ap in P]

    return (C, AlgebroidData(m, p, rho_at, L_at),
            NonlinearConnection(p, gamma_at),
            MetricStructure(p, g_at, G.g00_at))


def _fiber_change_data(sc: Scenario, factor: float = 2.0):
    """The fiber rescale y0' = factor * y0 and the tables in the new chart,
    each table evaluation substituting into one evaluation of the unprimed
    table: ``(C, A, N', G')`` (the anchor and bracket do not change)."""
    N, G = sc.connection, sc.metric
    inv = 1.0 / factor
    C = CoordinateChange(sc.m, sc.p, phi_at=lambda xs: factor)
    N_p = NonlinearConnection(sc.p, lambda xs, y: [
        factor * v for v in N.gamma_at(xs, y * inv)])
    G_p = MetricStructure(
        sc.p, lambda xs, y: G.g_at(xs, y * inv),
        lambda xs, y: G.g00_at(xs, y * inv) * inv * inv)
    return C, sc.algebroid, N_p, G_p


class TransformationCheck:
    """The coefficient change laws under the frame change and the fiber
    rescale, each primed metric connection rebuilt once from its tables.
    ``step(pt, tables)`` reads the unprimed metric connection once for both
    changes: from ``tables.D`` when that is the metric connection, else
    (explicit tables override it) from its own evaluation at the point;
    ``finish()`` returns the four CheckResults, frame change first.
    """

    def __init__(self, sc: Scenario, tol: float = 1e-8):
        A, N = sc.algebroid, sc.connection
        own = None if sc.dconnection_is_metric else sc.metric_dconnection()
        self._args = (own, N, A)
        self._changes = []
        for kind, (C, A_p, N_p, G_p) in (("frame", _frame_change_data(sc)),
                                         ("fiber", _fiber_change_data(sc))):
            self._changes.append((
                C, N_p, metric_dconnection(G_p, sc.baseline_for(N_p), A_p, N_p),
                ResidualTracker(f"transformation.nlc_{kind}", tol),
                ResidualTracker(f"transformation.dconnection_{kind}", tol)))

    def finish(self):
        return [tracker.result() for *_, nlc, dcon in self._changes
                for tracker in (nlc, dcon)]

    def step(self, pt: EPoint, tables: PointTables):
        own, N, A = self._args
        D = tables.D if own is None else PointTables(own, N, A, pt).D
        for C, N_p, D_p, nlc, dcon in self._changes:
            nlc_transformation_point(N, N_p, C, A, pt, nlc)
            dconnection_transformation_point(D, D_p, C, A, N, pt, dcon)


_NEEDS_METRIC = {
    "compatibility": "compatibility suite requires a metric",
    "transformation": "transformation suite requires a metric (the primed "
                      "connection is rebuilt from the transformed metric)",
}


def _point_checks(sc: Scenario, names, tols):
    """The per-point check of each suite in ``names``."""
    A, N = sc.algebroid, sc.connection
    checks = {}
    for name in names:
        if name == "oracle":
            checks[name] = OracleCheck(N, A, tols[name])
        elif name == "ricci-commutation":
            def Z2(xs, y):
                return [1.0] + [0.0] * (sc.p - 1), 1.0

            checks[name] = RicciCommutationCheck(
                [default_test_vector(sc.p, sc.m), Z2], N, A, tols[name])
        elif name == "bianchi":
            checks[name] = BianchiCheck(N, A, tols[name])
        elif name == "compatibility":
            checks[name] = CompatibilityCheck(sc.metric, A, N, tols[name])
        elif name == "transformation":
            checks[name] = TransformationCheck(sc, tols[name])
    return checks


def run_suites(sc: Scenario, names, tol=None, samples=None, seed=None):
    """Run the named suites; returns ``[(name, results, seconds)]`` in the
    order of ``names``, ``results`` being a list of CheckResult.

    Every suite runs point-major.  ``sample_points`` is prefix-stable, so
    one draw of the largest sample count gives every suite its points: at
    point k, each suite whose sample count is above k runs its step there.  They share the
    point's :class:`PointTables` (coefficients once per derivative depth,
    torsion and curvature components from one pass); ``seconds`` charges that
    shared work to the first suite that runs at a point.  A metric's
    horizontal block is checked for conditioning (:func:`inverse_h`) once
    at each point, before any suite inverts it unchecked.
    """
    for name in names:
        if name not in SUITE_NAMES:
            raise ScenarioError("suite", f"unknown suite {name!r}")
        if name in _NEEDS_METRIC and sc.metric is None:
            raise ScenarioError("metric", _NEEDS_METRIC[name])
    counts = {name: samples if samples is not None
              else SUITE_DEFAULT_SAMPLES[name] for name in names}
    tols = {name: tol if tol is not None else SUITE_DEFAULT_TOLS[name]
            for name in names}
    pts = sample_points(sc.box, max(counts.values(), default=0),
                        seed if seed is not None else sc.seed)
    seconds = dict.fromkeys(names, 0.0)
    checks = _point_checks(sc, names, tols)
    D, A, N = sc.dconnection(), sc.algebroid, sc.connection
    for k, pt in enumerate(pts):
        if sc.metric is not None:
            with at_point(pt):
                inverse_h(sc.metric, pt)
        tables = PointTables(D, N, A, pt)
        for name, check in checks.items():
            if k < counts[name]:
                t0 = time.perf_counter()
                with at_point(pt):
                    check.step(pt, tables)
                seconds[name] += time.perf_counter() - t0
    return [(name, checks[name].finish(), seconds[name]) for name in names]
