"""(Pseudo)metric structures on the split bundle and compatible connections.

The metric is a symmetric horizontal block g[alpha][beta](x, y0) plus one
vertical coefficient g00(x, y0); both must be nondegenerate on the sampling
box.  ``metric_dconnection`` builds, over the hv of a baseline (zero or
the fiber-derivative one), a connection whose covariant derivatives
annihilate the metric; with the fiber-derivative (Berwald-type) baseline
this is the canonical connection.  Its hh is the Koszul formula and its vh
the raised fiber derivative of g, each straight-line code generated per p
on first use; the sums they replaced are the bitwise references in
``tests/reference.py`` (``loop_koszul``, ``loop_vh``).  Each metric block
is evaluated once per point: vh reads the pass over g that hh makes, and
vv the pass over g00 that hv makes, when asked at the same point objects.

Matrix inversion is a plain Gauss-Jordan written to run on Jet entries, so
the constructed coefficients can be differentiated again (curvature needs
first derivatives of the inverse metric, the cyclic identity suites need
second).  It is straight-line code generated per n on first use, with the
operations of the loop that it replaced (``loop_matrix_inverse``), and so
is the self-check of ``inverse_h`` per p (``loop_inverse_check``).
"""

from __future__ import annotations

import math

from .algebroid import AlgebroidData
from .calculus import (
    EPoint,
    EvaluationDomainError,
    KernelTemplate,
    at_point,
    fiber_seeded_point,
    jdy,
    jval,
    kernel,
    names,
    primal,
    rows,
    terms,
)
from .dconnection import DConnectionCoeffs, h_cov_values, v_cov_values
from .nlconnection import NonlinearConnection, adapted_derivatives
from .report import row_max

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


# Gauss-Jordan with partial pivoting on the n x 2n matrix [mat | I], for n:
# the entries are the locals a<r>_<j>, and ``{columns}`` writes out each
# column c in turn with ``_INVERSE_COLUMN``.  The pivot is the first row
# r >= c whose |primal| is largest (``max``'s choice, a NaN included:
# ``_INVERSE_PICK`` tests each row below c), its row is swapped into row
# c, a pivot below 1e-300 in size raises, row c is divided by the pivot
# and every other row whose factor a<r>_<c> has a non-zero primal loses
# factor times row c (``_INVERSE_ELIMINATE``), each over all 2n columns,
# as the loop of the reference ``loop_matrix_inverse`` in
# ``tests/reference.py`` does.  Only the lines of ``_INVERSE`` keep their
# line numbers here; a column's lines follow its own.
_INVERSE = KernelTemplate('''\
def inverse(mat):
    {rows}, = mat
    {identity}
{columns}    return [{out}]
''')
_INVERSE_COLUMN = '''\
    k = abs(primal(a{c}_{c})); r = {c}
{pick}{swap}    if k < 1e-300: raise _singular_pivot(a{c}_{c}, {c})
    pivot = a{c}_{c}
    {divide}
{eliminate}'''
_INVERSE_PICK = '''\
    kk = abs(primal(a{r}_{c}))
    if kk > k: k = kk; r = {r}
'''
_INVERSE_ELIMINATE = '''\
    f = a{r}_{c}
    if primal(f) != 0.0: {subtract}
'''


def _singular_pivot(pivot, col):
    """The error of a pivot below 1e-300 in size in column ``col``."""
    return SingularMetricError(
        f"singular matrix (pivot {primal(pivot):.3e} in column {col})")


@kernel(_INVERSE, primal=primal, _singular_pivot=_singular_pivot)
def _inverse_kernel(n):
    """The kernel of ``_INVERSE`` for n, generated on first use."""
    rn, r2n = range(n), range(2 * n)
    row = [names("a{}_{}", [r], r2n) for r in rn]
    columns = "".join(_INVERSE_COLUMN.format(
        c=c,
        pick="".join(_INVERSE_PICK.format(r=r, c=c)
                     for r in range(c + 1, n)),
        swap="".join(f"    {'el' if r > c + 1 else ''}if r == {r}: "
                     f"{row[c]}, {row[r]} = {row[r]}, {row[c]}\n"
                     for r in range(c + 1, n)),
        divide="; ".join(f"a{c}_{j} = a{c}_{j} / pivot" for j in r2n),
        eliminate="".join(_INVERSE_ELIMINATE.format(
            r=r, c=c, subtract="; ".join(
                f"a{r}_{j} = a{r}_{j} - f * a{c}_{j}" for j in r2n))
            for r in rn if r != c)) for c in rn)
    return dict(
        rows=rows("a{}_{}", rn, rn),
        identity="; ".join(f"a{r}_{n + j} = {1.0 if r == j else 0.0}"
                           for r in rn for j in rn),
        columns=columns,
        out=", ".join("[" + ", ".join(f"a{r}_{n + j}" for j in rn) + "]"
                      for r in rn))


def matrix_inverse(mat):
    """Gauss-Jordan with partial pivoting; entries may be floats or Jets.
    Pivot selection uses the underlying float values.  Runs the kernel of
    ``_INVERSE`` for ``len(mat)``."""
    return _inverse_kernel(len(mat))(mat)


# The self-check of a float inverse gi of the block g at p: the largest
# entry of g . gi - I, and the condition estimate ||g||_1 ||gi||_1, each
# sum as the generator sums of the reference ``loop_inverse_check`` in
# ``tests/reference.py`` write it and each maximum as ``max`` takes it
# (the first of equal values; a NaN replaces nothing, and a first column
# sum that is NaN stays):
#
#     r<a>_<b> = abs((0 + g<a>_0 * gi0_<b> + ...) - I<a><b>)
#     n1(m)    = max over b of (0 + abs(m0_<b>) + abs(m1_<b>) + ...)
#
# with the residuals taken over (a, b) in order.
_INVERSE_CHECK = KernelTemplate('''\
def inverse_check(g, gi):
    {g}, = g
    {gi}, = gi
    worst = 0.0
    {residuals}
    {norm_g}
    {norm_gi}
    return worst, ng * ngi
''')


@kernel(_INVERSE_CHECK)
def _inverse_check_kernel(p):
    """The kernel of ``_INVERSE_CHECK`` for p, generated on first use."""
    rp = range(p)

    def norm(m, out):
        cols = ["(0" + "".join(f" + abs({m}{a}_{b})" for a in rp) + ")"
                for b in rp]
        return "; ".join([f"{out} = {cols[0]}"]
                         + [f"n = {col}; {out} = n if n > {out} else {out}"
                            for col in cols[1:]])

    return dict(
        g=rows("g{}_{}", rp, rp), gi=rows("gi{}_{}", rp, rp),
        residuals="; ".join(
            "r = abs((0" + terms("g{0}_{2} * gi{2}_{1}", [a], [b], rp)
            + f") - {1.0 if a == b else 0.0}); "
            f"worst = r if r > worst else worst"
            for a in rp for b in rp),
        norm_g=norm("g", "ng"), norm_gi=norm("gi", "ngi"))


def inverse_h(G: MetricStructure, pt: EPoint):
    """Pointwise inverse of the horizontal block, self-checked by
    multiplying back; raises EvaluationDomainError when an entry of the
    block is not finite, and SingularMetricError with a condition estimate
    when that is above MAX_CONDITION (or NaN) or the check fails.  The
    check runs the kernel of ``_INVERSE_CHECK``."""
    g = G.g_at(pt.x, pt.y)
    if not all(math.isfinite(v) for row in g for v in row):
        raise EvaluationDomainError("non-finite value in metric block g",
                                    point=pt)
    try:
        ginv = matrix_inverse(g)
    except SingularMetricError as exc:
        exc.point, exc.condition = pt, float("inf")
        raise
    worst, cond = _inverse_check_kernel(G.p)(g, ginv)
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
_KOSZUL = KernelTemplate('''\
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
''')


@kernel(_KOSZUL)
def _koszul_kernel(p):
    """The kernel of ``_KOSZUL`` for p, generated on first use."""
    rp = range(p)

    def theta(e, th):
        return (f"(gv{th}[{e}] * L{th}c[b] - gvb[{th}] * L{th}c[{e}]"
                f" - gv{th}[c] * L{th}b[{e}])")

    return dict(
        p=p, R=repr(tuple(rp)), gv_rows=names("gv{}", rp),
        gd_rows=names("gd{}", rp), L_rows=names("L{}", rp),
        gi=rows("gi{}_{}", rp, rp), out_rows=names("O{}", rp),
        per_b="; ".join(f"L{th}b = L{th}[b]; O{th}b = O{th}[b]" for th in rp),
        per_c="; ".join(f"L{th}c = L{th}[c]" for th in rp),
        terms="; ".join(
            f"t{e} = gdc[{e}][b] + gdb[{e}][c] - gd{e}[b][c] + (0"
            + "".join(f" + {theta(e, th)}" for th in rp) + ")" for e in rp),
        outs="; ".join(f"O{a}b[c] = 0.5 * (0.0"
                       + terms("gi{0}_{1} * t{1}", [a], rp) + ")"
                       for a in rp))


# vh of the metric connection at p: half the fiber derivatives g_dy of the
# horizontal metric block, raised by its inverse gi,
#
#     vh[a][b] = 0.5 * (0.0 + gi[a][0] * g_dy[b][0] + ...)
#
# as the loop of the reference ``loop_vh`` in ``tests/reference.py`` sums
# it.  The kernel runs over b; ``{outs}`` writes out every vh[a][b].
_VH = KernelTemplate('''\
def vh(g_dy, gi):
    {gi}, = gi
    out = [[None] * {p} for _ in {R}]
    {out_rows}, = out
    for b in {R}:
        dyb = g_dy[b]
        {outs}
    return out
''')


@kernel(_VH)
def _vh_kernel(p):
    """The kernel of ``_VH`` for p, generated on first use."""
    rp = range(p)
    return dict(
        p=p, R=repr(tuple(rp)), gi=rows("gi{}_{}", rp, rp),
        out_rows=names("O{}", rp),
        outs="; ".join(f"O{a}[b] = 0.5 * (0.0"
                       + terms("gi{0}_{1} * dyb[{1}]", [a], rp) + ")"
                       for a in rp))


def metric_dconnection(G: MetricStructure, baseline_hv,
                       A: AlgebroidData, N: NonlinearConnection) -> DConnectionCoeffs:
    """Metric-compatible coefficients built over a baseline's hv, the
    evaluator ``baseline_hv(xs, y)`` of its p entries.

    hh is the Koszul-type combination of adapted derivatives of g and the
    bracket table; hv corrects the baseline's hv by half its covariant
    derivative of g00; vh is half the fiber derivative of g, raised by the
    inverse of g; vv is half the logarithmic fiber derivative of g00.  A
    baseline enters through its hv alone: both baselines a scenario can
    name (zero and the fiber-derivative one, :func:`~kkgeom.dconnection.
    berwald`) have zero hh, vh and vv.

    Each block is evaluated once per point: hh's derivative pass over g
    gives its values, fiber derivatives and (once inverted) inverse, which
    vh reads; hv's pass over g00 gives its value and fiber derivative,
    which vv reads.  The suites ask for one family at a time (bianchi asks
    for hh and hv alone at depth two), so each pass leaves its block in a
    one-entry memo with the point objects it was asked at, and vh or vv
    asked at the very same objects reads it, in one read of the entry.
    Only a tuple ``xs`` is left: with a float or Jet ``y``, the point
    cannot change under the objects compared.  A family asked alone
    evaluates its own block: vh and vv read only its values and d/dy0, so
    they evaluate it at ``fiber_seeded_point`` (at a float point only y is
    seeded), and a lift's vv reads neither rho, Gamma nor g.
    """
    p = G.p
    g_last, g00_last = [(None, None, None)], [(None, None, None)]

    def hh_at(xs, y):
        g_vals, g_delta, g_dy = adapted_derivatives(G.g_at, xs, y, A, N)
        ginv = _inverse_at(g_vals, xs, y)
        if type(xs) is tuple:
            g_last[0] = (xs, y, (g_dy, ginv))
        return _koszul_kernel(p)(g_vals, g_delta, ginv, A.L_at(xs))

    def hv_at(xs, y):
        (g00,), delta, (g00_dy,) = adapted_derivatives(
            lambda jxs, jy: [G.g00_at(jxs, jy)], xs, y, A, N)
        if primal(g00) == 0.0:
            raise SingularMetricError("g00 vanishes",
                                      point=_float_point(xs, y))
        if type(xs) is tuple:
            g00_last[0] = (xs, y, (g00, g00_dy))
        hv0 = baseline_hv(xs, y)
        return [
            hv0[c] + 0.5 * (delta[c][0] - 2.0 * hv0[c] * g00) / g00
            for c in range(p)
        ]

    def vh_at(xs, y):
        xs0, y0, block = g_last[0]
        if xs0 is not xs or y0 is not y:
            gj = G.g_at(*fiber_seeded_point(xs, y))
            block = ([[jdy(v) for v in row] for row in gj], _inverse_at(
                [[jval(v) for v in row] for row in gj], xs, y))
        return _vh_kernel(p)(*block)

    def vv_at(xs, y):
        xs0, y0, block = g00_last[0]
        if xs0 is xs and y0 is y:
            g00, g00_dy = block
        else:
            g00j = G.g00_at(*fiber_seeded_point(xs, y))
            g00, g00_dy = jval(g00j), jdy(g00j)
            if primal(g00) == 0.0:
                raise SingularMetricError("g00 vanishes",
                                          point=_float_point(xs, y))
        return 0.5 * g00_dy / g00

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
    ``step(pt, tables)`` returns the largest residual at one point, as a
    one-entry list for its one name (it reads only the point's
    coefficients ``tables.D``)."""

    names = ("compatibility",)

    def __init__(self, G: MetricStructure, A: AlgebroidData,
                 N: NonlinearConnection):
        self._args = (G, A, N)

    def step(self, pt: EPoint, tables):
        G, A, N = self._args
        hg, vg, hg00, vg00 = _compatibility_values(G, tables.D, A, N, pt)
        rows = [r for plane in hg for r in plane] + vg + [hg00, [vg00]]
        return [row_max([v for row in rows for v in row])]


def riemannian_flags(G: MetricStructure, samples):
    """(h-block independent of y0, vertical coefficient independent of y0):
    every |d/dy0| of the block over ``samples`` at most 1e-12, so a NaN
    derivative makes its flag false.  The blocks are read at
    ``fiber_seeded_point``, y alone seeded, so an x-only factor that
    overflows stays a float and adds no NaN to d/dy0."""
    h_dy, v_dy = [], []
    for pt in samples:
        with at_point(pt):
            jxs, jy = fiber_seeded_point(pt.x, pt.y)
            gj = G.g_at(jxs, jy)
            g00j = G.g00_at(jxs, jy)
        h_dy += [jdy(v) for row in gj for v in row]
        v_dy.append(jdy(g00j))
    return (all(abs(d) <= 1e-12 for d in h_dy),
            all(abs(d) <= 1e-12 for d in v_dy))
