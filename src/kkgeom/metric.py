"""(Pseudo)metric structures on the split bundle and compatible connections.

The metric is a symmetric horizontal block g[alpha][beta](x, y0) plus one
vertical coefficient g00(x, y0); both must be nondegenerate on the sampling
box.  ``metric_dconnection`` builds, from any baseline coefficient set, a
connection whose covariant derivatives annihilate the metric; with the
fiber-derivative (Berwald-type) baseline this is the canonical connection.
Its hh is the Koszul formula, straight-line code generated per p on first
use; the sums it replaced are the bitwise reference in
``tests/reference.py`` (``loop_koszul``).

Matrix inversion is a plain Gauss-Jordan written to run on Jet entries, so
the constructed coefficients can be differentiated again (curvature needs
first derivatives of the inverse metric, the cyclic identity suites need
second).
"""

from __future__ import annotations

import functools
import math
import sys

from .algebroid import AlgebroidData
from .calculus import (
    EPoint,
    EvaluationDomainError,
    at_point,
    compile_kernel,
    jdy,
    jval,
    primal,
    seeded_point,
)
from .dconnection import DConnectionCoeffs, h_cov_values, v_cov_values
from .nlconnection import NonlinearConnection, adapted_derivatives
from .report import ResidualTracker

__all__ = [
    "MetricStructure",
    "SingularMetricError",
    "matrix_inverse",
    "inverse_h",
    "metric_dconnection",
    "CompatibilityCheck",
    "riemannian_flags",
]


# Past this condition estimate of a horizontal block, fewer than about 4
# of the 16 significant digits of its inverse are right, so the inverse and
# everything built on it is refused.
MAX_CONDITION = 1e12
# The largest entry of g . g^-1 - I allowed, relative to max(1, condition).
RESIDUAL_TOL = 1e-12


class SingularMetricError(EvaluationDomainError):
    """Metric block not invertible at a point; carries a condition estimate."""

    def __init__(self, message, point=None, condition=None):
        super().__init__(message, point=point)
        self.condition = condition


class MetricStructure:
    """The horizontal block ``g_at(xs, y)`` (g[alpha][beta], p x p,
    symmetric) and the vertical coefficient ``g00_at(xs, y)``, as
    evaluators on E."""

    __slots__ = ("p", "g_at", "g00_at")

    def __init__(self, p: int, g_at, g00_at):
        self.p = p
        self.g_at = g_at
        self.g00_at = g00_at


def _norm1(mat):
    return max(sum(abs(mat[a][b]) for a in range(len(mat)))
               for b in range(len(mat)))


def matrix_inverse(mat, point=None):
    """Gauss-Jordan with partial pivoting; entries may be floats or Jets.
    Pivot selection uses the underlying float values."""
    n = len(mat)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(primal(aug[r][col])))
        pivot = aug[pivot_row][col]
        if abs(primal(pivot)) < 1e-300:
            raise SingularMetricError(
                f"singular matrix (pivot {primal(pivot):.3e} in column {col})",
                point=point,
            )
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col:
                factor = aug[r][col]
                if primal(factor) != 0.0:
                    aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def inverse_h(G: MetricStructure, pt: EPoint):
    """Pointwise inverse of the horizontal block, self-checked by
    multiplying back; raises EvaluationDomainError when an entry of the
    block is not finite, and SingularMetricError with a condition estimate
    when that is above MAX_CONDITION (or NaN) or the check fails."""
    g = G.g_at(pt.x, pt.y)
    if not all(math.isfinite(v) for row in g for v in row):
        raise EvaluationDomainError("non-finite value in metric block g",
                                    point=pt)
    try:
        ginv = matrix_inverse(g, point=pt)
    except SingularMetricError as exc:
        exc.condition = float("inf")
        raise
    p = G.p
    worst = 0.0
    for a in range(p):
        for b in range(p):
            acc = sum(g[a][c] * ginv[c][b] for c in range(p))
            worst = max(worst, abs(acc - (1.0 if a == b else 0.0)))
    cond = _norm1(g) * _norm1(ginv)
    # Written as ``not x <= bound`` so that a NaN is refused too.  A NaN or
    # infinite entry of ginv makes cond NaN or infinite, so past this test
    # every product above was finite and ``worst`` cannot have lost a NaN.
    if not cond <= MAX_CONDITION:
        raise SingularMetricError(
            f"ill-conditioned metric block (condition above "
            f"{MAX_CONDITION:g})", point=pt, condition=cond)
    if not worst <= RESIDUAL_TOL * max(1.0, cond):
        raise SingularMetricError(
            f"ill-conditioned metric block (residual {worst:.3e})",
            point=pt, condition=cond,
        )
    return ginv


def _float_point(xs, y):
    """The point of floats under a point that may carry Jets, to name in an
    error."""
    return EPoint(tuple(map(primal, xs)), primal(y))


def _inverse_at(mat, xs, y):
    """:func:`matrix_inverse` of a metric block evaluated at (xs, y); a
    singular block names the point."""
    try:
        return matrix_inverse(mat)
    except SingularMetricError as exc:
        exc.point = _float_point(xs, y)
        raise


# The Koszul formula of the metric connection's hh at p, from the values
# gv and adapted derivatives gd (gd[c][e][b] = delta_c g[e][b]) of the
# horizontal metric block, its inverse gi and the bracket table Lv:
#
#     t_e = gd[c][e][b] + gd[b][e][c] - gd[e][b][c] + (0 + (th = 0) + ...)
#     hh[a][b][c] = 0.5 * (0.0 + gi[a][0] * t_0 + ...)
#
# with the bracket terms gv[th][e] * Lv[th][c][b] - gv[b][th] * Lv[th][c][e]
# - gv[th][c] * Lv[th][b][e] for each th.  The kernel runs over (b, c);
# ``{terms}`` writes out every t_e and ``{outs}`` every hh[a][b][c].
_KOSZUL_LINE = sys._getframe().f_lineno + 2
_KOSZUL = '''\
def koszul(gv, gd, gi, Lv):
    {gv_rows}, = gv
    {gd_rows}, = gd
    {L_rows}, = Lv
    {gi}, = gi
    out = [[[None] * {p} for _ in {R}] for _ in {R}]
    {out_rows}, = out
    for b in {R}:
        gvb = gv[b]; gdb = gd[b]; {per_b}
        for c in {R}:
            gdc = gd[c]; {per_c}
            {terms}
            {outs}
    return out
'''


@functools.cache
def _koszul_kernel(p):
    """The kernel of ``_KOSZUL`` for p, generated on first use."""
    rp = range(p)

    def names(fmt):
        return ", ".join(fmt.format(th) for th in rp)

    def theta(e, th):
        return (f"(gv{th}[{e}] * L{th}c[b] - gvb[{th}] * L{th}c[{e}]"
                f" - gv{th}[c] * L{th}b[{e}])")

    source = _KOSZUL.format(
        p=p, R=repr(tuple(rp)),
        gv_rows=names("gv{}"), gd_rows=names("gd{}"), L_rows=names("L{}"),
        gi=", ".join("(" + ", ".join(f"gi{a}_{e}" for e in rp) + ",)"
                     for a in rp),
        out_rows=names("O{}"),
        per_b="; ".join(f"L{th}b = L{th}[b]; O{th}b = O{th}[b]" for th in rp),
        per_c="; ".join(f"L{th}c = L{th}[c]" for th in rp),
        terms="; ".join(
            f"t{e} = gdc[{e}][b] + gdb[{e}][c] - gd{e}[b][c] + (0"
            + "".join(f" + {theta(e, th)}" for th in rp) + ")" for e in rp),
        outs="; ".join(
            f"O{a}b[c] = 0.5 * (0.0"
            + "".join(f" + gi{a}_{e} * t{e}" for e in rp) + ")" for a in rp))
    return compile_kernel(source, "koszul", __file__, _KOSZUL_LINE, {})


def metric_dconnection(G: MetricStructure, baseline: DConnectionCoeffs,
                       A: AlgebroidData, N: NonlinearConnection) -> DConnectionCoeffs:
    """Metric-compatible coefficients built over a baseline (ring) set.

    hh is the Koszul-type combination of adapted derivatives of g and the
    bracket table; hv and vh correct the baseline by half the baseline
    covariant derivative of the metric blocks; vv is half the logarithmic
    fiber derivative of g00.
    """
    p = G.p

    def hh_at(xs, y):
        g_vals, g_delta, _ = adapted_derivatives(G.g_at, xs, y, A, N)
        ginv = _inverse_at(g_vals, xs, y)
        return _koszul_kernel(p)(g_vals, g_delta, ginv, A.L_at(xs))

    def hv_at(xs, y):
        vals, delta, _ = adapted_derivatives(
            lambda jxs, jy: [G.g00_at(jxs, jy)], xs, y, A, N)
        g00 = vals[0]
        if primal(g00) == 0.0:
            raise SingularMetricError("g00 vanishes",
                                      point=_float_point(xs, y))
        hv0 = baseline.hv_at(xs, y)
        return [
            hv0[c] + 0.5 * (delta[c][0] - 2.0 * hv0[c] * g00) / g00
            for c in range(p)
        ]

    def vh_at(xs, y):
        jxs, jy = seeded_point(xs, y)
        gj = G.g_at(jxs, jy)
        g_vals = [[jval(v) for v in row] for row in gj]
        g_dy = [[jdy(v) for v in row] for row in gj]
        ginv = _inverse_at(g_vals, xs, y)
        vh0 = baseline.vh_at(xs, y)
        # The ring terms do not depend on the upper index a.
        rings = [[g_dy[b][e] - sum(
                      vh0[th][b] * g_vals[th][e] + vh0[th][e] * g_vals[b][th]
                      for th in range(p))
                  for e in range(p)] for b in range(p)]
        out = [[None] * p for _ in range(p)]
        for a in range(p):
            for b in range(p):
                acc = 0.0
                for gi, ring in zip(ginv[a], rings[b]):
                    acc = acc + gi * ring
                out[a][b] = vh0[a][b] + 0.5 * acc
        return out

    def vv_at(xs, y):
        jxs, jy = seeded_point(xs, y)
        g00j = G.g00_at(jxs, jy)
        g00 = jval(g00j)
        if primal(g00) == 0.0:
            raise SingularMetricError("g00 vanishes",
                                      point=_float_point(xs, y))
        return 0.5 * jdy(g00j) / g00

    return DConnectionCoeffs(p, hh_at, hv_at, vh_at, vv_at)


def _compatibility_values(G: MetricStructure, D: DConnectionCoeffs,
                          A: AlgebroidData, N: NonlinearConnection, pt):
    """The horizontal and vertical covariant derivatives of g (valence
    (0, 2)) and of g00 (vertical valence (0, 2)) at pt, from one derivative
    pass over both blocks."""
    (g, g00), delta, (g_dy, g00_dy) = adapted_derivatives(
        lambda jxs, jy: [G.g_at(jxs, jy), G.g00_at(jxs, jy)],
        pt.x, pt.y, A, N)
    Hh, Hv, Vh, Vv = D.all_at(pt.x, pt.y)
    return (h_cov_values(g, [d[0] for d in delta], 0, 2, 0, Hh, Hv),
            v_cov_values(g, g_dy, 0, 2, 0, Vh, Vv),
            h_cov_values(g00, [d[1] for d in delta], 0, 0, -2, Hh, Hv),
            v_cov_values(g00, g00_dy, 0, 0, -2, Vh, Vv))


class CompatibilityCheck:
    """The four covariant-constancy residual families: horizontal and
    vertical derivatives of both metric blocks (:func:`_compatibility_values`).
    ``step(pt, tables)`` checks one point (it reads only the point's
    coefficients ``tables.D``); ``finish()`` returns the one CheckResult,
    as a list."""

    def __init__(self, G: MetricStructure, A: AlgebroidData,
                 N: NonlinearConnection, tol: float = 1e-9):
        self._args = (G, A, N)
        self._tracker = ResidualTracker("compatibility", tol)

    def finish(self):
        return [self._tracker.result()]

    def step(self, pt: EPoint, tables):
        G, A, N = self._args
        tracker, p = self._tracker, G.p
        vh, vv, v0h, v0v = _compatibility_values(G, tables.D, A, N, pt)
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    tracker.update(vh[a][b][c], pt)
                tracker.update(vv[a][b], pt)
        for c in range(p):
            tracker.update(v0h[c], pt)
        tracker.update(v0v, pt)


def riemannian_flags(G: MetricStructure, samples, tol: float = 1e-12):
    """(h-block independent of y0, vertical coefficient independent of y0)."""
    max_h = 0.0
    max_v = 0.0
    for pt in samples:
        with at_point(pt):
            jxs, jy = seeded_point(pt.x, pt.y)
            gj = G.g_at(jxs, jy)
            g00j = G.g00_at(jxs, jy)
        for row in gj:
            for v in row:
                max_h = max(max_h, abs(jdy(v)))
        max_v = max(max_v, abs(jdy(g00j)))
    return max_h <= tol, max_v <= tol
