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
    anchor_residual,
    antisymmetry_residual,
    jacobi_residual,
)
from .calculus import EPoint, KernelTemplate, at_point, kernel, names, rows, \
    terms
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
from .report import ResidualTracker, row_max
from .sampling import sample_points
from .scenario import Scenario, ScenarioError

__all__ = ["SUITES", "VALIDATE_TOL", "run_validate", "run_suites",
           "applicable_suites"]

# The tolerance of the ``validate`` checks that have one.
VALIDATE_TOL = 1e-8


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


def run_validate(sc: Scenario, samples=None, seed=None,
                 tol: float = VALIDATE_TOL):
    """Structure validators plus metric and lift-morphism sanity checks.
    Returns a list of JSON-ready check dicts."""
    n = samples if samples is not None else sc.samples
    pts = sample_points(sc.box, n, seed if seed is not None else sc.seed)
    checks = []
    for name, residual in (("antisymmetry", antisymmetry_residual),
                           ("anchor_compatibility", anchor_residual),
                           ("jacobi", jacobi_residual)):
        tracker = ResidualTracker(name, tol)
        for pt in pts:
            with at_point(pt):
                tracker.update(residual(sc.algebroid, pt), pt)
        checks.append(tracker.to_json_obj())
    if sc.metric is not None:
        sym = ResidualTracker("g_symmetry", tol)
        rp = range(sc.p)
        min_det = float("inf")
        min_g00 = float("inf")
        for pt in pts:
            with at_point(pt):
                g = sc.metric.g_at(pt.x, pt.y)
                g00 = abs(sc.metric.g00_at(pt.x, pt.y))
            sym.update(row_max([g[a][b] - g[b][a] for a in rp for b in rp]),
                       pt)
            # A NaN must fail the check, so it replaces the minimum and is
            # never replaced (``min`` would drop it).
            det = abs(_det(g))
            if det < min_det or det != det:
                min_det = det
            if g00 < min_g00 or g00 != g00:
                min_g00 = g00
        checks.append(sym.to_json_obj())
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


# The primed-chart tables of :func:`_frame_change_data` for p, under the
# constant frame change lam with inverse lam_inv: ``frame_change`` returns
# the evaluators of rho', L', Gamma' and g', each transforming one
# evaluation of the unprimed table in the operand order of the
# comprehensions that the kernel replaced (the reference
# ``loop_frame_change`` in ``tests/reference.py``).  With l<g> = lam[g'][g]
# and c<a>, d<b> the entries of columns a' and b' of lam_inv, the entries
# are
#
#     rho'[a'][i]     = 0 + c0 * rho[0][i] + ...
#     L'[g'][a'][b']  = 0 + l0 * L[0][0][0] * c0 * d0 + ...   (g, a, b)
#     Gamma'[g']      = 0 + Gamma[0] * c0 + ...
#     g'[a'][b']      = 0 + g[0][0] * c0 * d0 + ...           (a, b)
_FRAME_CHANGE = KernelTemplate('''\
def frame_change(lam, lam_inv, A, N, G):
    cols = list(zip(*lam_inv))
    M = range(A.m)

    def rho_at(xs):
        {r}, = A.rho_at(xs)
        return [[0{rho} for i in M] for {c}, in cols]

    def L_at(xs):
        {L}, = A.L_at(xs)
        return [[[0{Lt} for {d}, in cols] for {c}, in cols] for {l}, in lam]

    def gamma_at(xs, y):
        {G}, = N.gamma_at(xs, y)
        return [0{gamma} for {c}, in cols]

    def g_at(xs, y):
        {g}, = G.g_at(xs, y)
        return [[0{gt} for {d}, in cols] for {c}, in cols]

    return rho_at, L_at, gamma_at, g_at
''')


@kernel(_FRAME_CHANGE)
def _frame_change_kernel(p):
    """The kernel of ``_FRAME_CHANGE`` for p, generated on first use."""
    rp = range(p)
    return dict(
        r=names("r{}", rp), c=names("c{}", rp), d=names("d{}", rp),
        l=names("l{}", rp), G=names("G{}", rp), g=rows("g{}_{}", rp, rp),
        L=", ".join("(" + rows(f"L{g}_{{}}_{{}}", rp, rp) + ",)" for g in rp),
        rho=terms("c{0} * r{0}[i]", rp),
        Lt=terms("l{0} * L{0}_{1}_{2} * c{1} * d{2}", rp, rp, rp),
        gamma=terms("G{0} * c{0}", rp),
        gt=terms("g{0}_{1} * c{0} * d{1}", rp, rp))


def _frame_change_data(sc: Scenario):
    """A constant invertible frame change C and the anchor, bracket,
    nonlinear-connection and metric tables in the new frame, built
    tensorially from the unprimed tables: ``(C, A', N', G')``.

    Each primed table evaluation transforms one evaluation of the unprimed
    table, with the summation order of the per-entry law
    (``_FRAME_CHANGE``).
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
    G = sc.metric
    rho_at, L_at, gamma_at, g_at = _frame_change_kernel(p)(
        lam, lam_inv, sc.algebroid, sc.connection, G)
    return (C, AlgebroidData(m, p, rho_at, L_at),
            NonlinearConnection(p, gamma_at),
            MetricStructure(p, g_at, G.g00_at))


def _fiber_change_data(sc: Scenario):
    """The fiber rescale y0' = 2 y0 and the tables in the new chart, each
    table evaluation substituting into one evaluation of the unprimed
    table: ``(C, A, N', G')`` (the anchor and bracket do not change, and
    the metric block keeps its zero mask)."""
    N, G = sc.connection, sc.metric
    factor = 2.0
    inv = 1.0 / factor
    C = CoordinateChange(sc.m, sc.p, phi_at=lambda xs: factor)
    N_p = NonlinearConnection(sc.p, lambda xs, y: [
        factor * v for v in N.gamma_at(xs, y * inv)])
    G_p = MetricStructure(
        sc.p, lambda xs, y: G.g_at(xs, y * inv),
        lambda xs, y: G.g00_at(xs, y * inv) * inv * inv, G.g_zero)
    return C, sc.algebroid, N_p, G_p


class TransformationCheck:
    """The coefficient change laws under the frame change and the fiber
    rescale, each primed metric connection rebuilt once from its tables.
    ``step(pt, tables)`` reads the unprimed metric connection once for both
    changes: from ``tables.D`` when that is the metric connection, else
    (explicit tables override it) from its own evaluation at the point.
    It returns the largest residual at the point of each of its four
    ``names``, frame change first.
    """

    names = ("transformation.nlc_frame", "transformation.dconnection_frame",
             "transformation.nlc_fiber", "transformation.dconnection_fiber")

    def __init__(self, sc: Scenario):
        A, N = sc.algebroid, sc.connection
        own = None if sc.dconnection_is_metric else sc.metric_dconnection()
        self._args = (own, N, A)
        self._changes = [
            (C, N_p, metric_dconnection(G_p, sc.baseline_hv(N_p), A_p, N_p))
            for C, A_p, N_p, G_p in (_frame_change_data(sc),
                                     _fiber_change_data(sc))]

    def step(self, pt: EPoint, tables: PointTables):
        own, N, A = self._args
        D = tables.D if own is None else PointTables(own, N, A, pt).D
        residuals = []
        for C, N_p, D_p in self._changes:
            residuals.append(nlc_transformation_point(N, N_p, C, A, pt))
            residuals.append(
                dconnection_transformation_point(D, D_p, C, A, N, pt))
        return residuals


class Suite:
    """One row of :data:`SUITES`: the default sample count and tolerance,
    the message refusing a scenario without a metric (``None`` when the
    suite needs none), and ``check(sc)``, which builds the suite's
    per-point check on scenario ``sc``: its ``names``, and ``step(pt,
    tables)``, which returns one residual per name at a point."""

    __slots__ = ("samples", "tol", "needs_metric", "check")

    def __init__(self, samples: int, tol: float, needs_metric, check):
        self.samples = samples
        self.tol = tol
        self.needs_metric = needs_metric
        self.check = check


def _ricci_commutation_check(sc: Scenario):
    def Z2(xs, y):
        return [1.0] + [0.0] * (sc.p - 1), 1.0

    return RicciCommutationCheck([default_test_vector(sc.p, sc.m), Z2],
                                 sc.connection, sc.algebroid)


# The suites of ``check --suite``, in the order ``--suite all`` runs and
# reports them.
SUITES = {
    "oracle": Suite(20, 1e-8, None, lambda sc: OracleCheck(
        sc.connection, sc.algebroid)),
    "ricci-commutation": Suite(20, 1e-6, None, _ricci_commutation_check),
    "bianchi": Suite(6, 1e-5, None, lambda sc: BianchiCheck(
        sc.connection, sc.algebroid)),
    "compatibility": Suite(
        40, 1e-9, "compatibility suite requires a metric",
        lambda sc: CompatibilityCheck(sc.metric, sc.algebroid,
                                      sc.connection)),
    "transformation": Suite(
        25, 1e-8, "transformation suite requires a metric (the primed "
                  "connection is rebuilt from the transformed metric)",
        TransformationCheck),
}


def applicable_suites(sc: Scenario):
    """The suites that ``check --suite all`` runs on ``sc``."""
    return [name for name, suite in SUITES.items()
            if suite.needs_metric is None or sc.metric is not None]


def run_suites(sc: Scenario, names, tol=None, samples=None, seed=None):
    """Run the named suites; returns ``[(name, trackers, samples,
    seconds)]`` in the order of ``names``: one :class:`ResidualTracker` per
    name of the suite's check, each with the tolerance ``tol`` (else the
    suite's), fed the residual that ``step`` returns for it at each point,
    and the number of points the suite ran at.

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
        if name not in SUITES:
            raise ScenarioError("suite", f"unknown suite {name!r}")
        if SUITES[name].needs_metric is not None and sc.metric is None:
            raise ScenarioError("metric", SUITES[name].needs_metric)
    counts = {name: samples if samples is not None else SUITES[name].samples
              for name in names}
    pts = sample_points(sc.box, max(counts.values(), default=0),
                        seed if seed is not None else sc.seed)
    seconds = dict.fromkeys(names, 0.0)
    checks = {name: SUITES[name].check(sc) for name in names}
    trackers = {name: [ResidualTracker(
        label, tol if tol is not None else SUITES[name].tol)
        for label in check.names] for name, check in checks.items()}
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
                    residuals = check.step(pt, tables)
                for tracker, r in zip(trackers[name], residuals, strict=True):
                    tracker.update(r, pt)
                seconds[name] += time.perf_counter() - t0
    return [(name, trackers[name], counts[name], seconds[name])
            for name in names]
