"""Nonlinear fiber connection: adapted-frame derivative and its curvature.

The connection is a table of p coefficients Gamma[gamma](x, y0), given by
the one function that evaluates it on E; the adapted frame operators act
on scalar fields as

    delta_gamma f = rho[gamma][i] df/dx_i - Gamma[gamma] df/dy0,

and the vertical operator is plain d/dy0.  Tensor components everywhere in
this package are stored with respect to this frame.  The frame's bracket
defect is the antisymmetric matrix ``nlc_curvature``.  Everything evaluates
on floats or Jets alike, so the operators nest.  The walk of one
derivative pass is straight-line code, generated per (p, m) on first use;
the per-leaf loop it replaced is the bitwise reference in
``tests/reference.py`` (``loop_split``).  So are the sums of the Gamma
change law (``loop_gamma_law``).  The walk is keyed by the zero mask of
rho (``AlgebroidData.rho_zero``) too: it leaves out the terms of a
structurally zero rho entry (reference ``loop_masked_split``), and is
resolved once per algebroid, on its first pass.
"""

from __future__ import annotations

import functools
import operator

from .algebroid import AlgebroidData
from .calculus import (
    EPoint,
    EvaluationDomainError,
    Jet,
    KernelTemplate,
    jdx,
    kernel,
    names,
    rows,
    seeded_point,
    structural,
    terms,
)
from .exprlang import zero_table

__all__ = [
    "NonlinearConnection",
    "CoordinateChange",
    "adapted_derivatives",
    "nlc_curvature",
    "bracket_curvature",
    "nlc_transformation_point",
]


class NonlinearConnection:
    """Coefficients of the horizontal/vertical split: ``gamma_at(xs, y)``
    returns Gamma[gamma] (p entries)."""

    __slots__ = ("p", "gamma_at")

    def __init__(self, p: int, gamma_at):
        self.p = p
        self.gamma_at = gamma_at

    @staticmethod
    def zero(p: int) -> "NonlinearConnection":
        return NonlinearConnection(p, zero_table(p, 1))


def adapted_derivatives(array_fn, xs, y, A: AlgebroidData, N: NonlinearConnection):
    """Evaluate ``array_fn`` (nested lists of scalars) at a jointly seeded
    point and return (values, [delta_gamma structure for each gamma], ddy).

    This is the workhorse: one evaluation of the underlying fields yields the
    adapted derivatives of every component at once, and it nests (callers may
    pass Jet-valued xs, y).  One walk over the output gives all three; each
    delta is ``(0 + rho[gamma][0] * d_0 s + ... + rho[gamma][m-1] *
    d_{m-1} s) - Gamma[gamma] * d_y s``, the sum taken in the order of i
    from the integer 0, as ``sum`` takes it.
    """
    rho = A.rho_at(xs)
    gam = N.gamma_at(xs, y)
    jxs, jy = seeded_point(xs, y)
    out = array_fn(jxs, jy)
    split = A.split
    if split is None:
        split = A.split = _split_kernel(A.p, A.m, structural(A.rho_zero))
    if isinstance(out, list):
        return split(out, rho, gam)
    vals, deltas, ddy = split([out], rho, gam)
    return vals[0], [d[0] for d in deltas], ddy[0]


# The walk of :func:`adapted_derivatives` over one list, for p directions
# and m base coordinates: ``{r}`` unpacks rho into r<g>_<i>, ``{G}`` Gamma
# into G<g>, ``{D}`` names the p delta lists D<g>, ``{d}`` a leaf's m
# partials d<i>, and ``{append}`` appends one delta per direction, each in
# the operand order of :func:`adapted_derivatives`.  A float leaf has zero
# partials; an entry that is a list is walked by the same kernel, and
# ``{append_sub}`` appends its deltas.  The recursion is a call of a
# module-level function, so no closure cycle keeps the Jets alive.
#
# Under a zero mask of rho, ``{append}`` leaves out each term r<g>_<i> *
# d<i> whose r<g>_<i> is a structural zero, a float zero at every point.
# Such a term is a float zero when d<i> has finite leaves, and a sum from
# the integer 0 keeps its bits without it.  So ``{guard}`` sends a leaf
# with a non-finite leaf in a partial that a left-out term reads to the
# full sums: the test ``d<i> * 0.0`` is a float zero exactly when
# d<i>'s leaves are finite (``calculus``'s structural zero).
_SPLIT = KernelTemplate('''\
def split(row, rho, gam):
    {r} = rho
    {G} = gam
    vals, ddy = [], []
    {D}, = {empty}
    for s in row:
        if isinstance(s, Jet):
            vals.append(s.value)
            {d}, = s.dx
            dy = s.dy{guard}
        elif isinstance(s, list):
            v, d, dy = split(s, rho, gam)
            vals.append(v); ddy.append(dy); {append_sub}
            continue
        else:
            vals.append(s)
            {d_zero} = dy = 0.0
        ddy.append(dy)
        {append}
    return vals, [{D}], ddy
''')


@kernel(_SPLIT, Jet=Jet)
def _split_kernel(p, m, rho_zero=None):
    """The kernel of ``_SPLIT`` for p directions and m base coordinates,
    under the zero mask ``rho_zero`` of rho (None: no entry is known to be
    zero), generated on first use."""
    rm, rp = range(m), range(p)
    zero = rho_zero or ((False,) * m,) * p

    def append(live):
        return "; ".join(f"D{g}.append((0"
                         + terms("r{0}_{1} * d{1}", [g], live(g))
                         + f") - G{g} * dy)" for g in rp)

    dead = sorted({i for g in rp for i in rm if zero[g][i]})
    guard = "" if not dead else (
        f"\n            if (0.0{terms('d{0} * 0.0', dead)}) != 0.0:"
        f"\n                ddy.append(dy); {append(lambda g: rm)}"
        "\n                continue")
    return dict(
        r=rows("r{}_{}", rp, rm) + ",", G=names("G{}", rp) + ",",
        D=names("D{}", rp), empty=", ".join("[]" for g in rp) + ",",
        d=names("d{}", rm), d_zero=" = ".join(f"d{i}" for i in rm),
        append_sub="; ".join(f"D{g}.append(d[{g}])" for g in rp),
        append=append(lambda g: [i for i in rm if not zero[g][i]]),
        guard=guard)


def bracket_curvature(gam, gam_delta, Lv):
    """The bracket curvature R[alpha][beta] = delta_beta Gamma_alpha
    - delta_alpha Gamma_beta + L[g][alpha][beta] Gamma_g from the Gamma
    values, their adapted derivatives ``gam_delta[beta][alpha]`` and the
    bracket table; generic over Jets."""
    p = len(gam)
    return [
        [
            gam_delta[b][a] - gam_delta[a][b]
            + functools.reduce(operator.add,
                               (Lv[g][a][b] * gam[g] for g in range(p)), 0)
            for b in range(p)
        ]
        for a in range(p)
    ]


def nlc_curvature(A: AlgebroidData, N: NonlinearConnection, pt: EPoint):
    """Bracket curvature matrix at a point, as plain floats."""
    gam, gam_delta, _ = adapted_derivatives(N.gamma_at, pt.x, pt.y, A, N)
    out = bracket_curvature(gam, gam_delta, A.L_at(pt.x))
    # antisymmetric by construction whenever the bracket table is
    if not all(abs(out[a][b] + out[b][a]) <= 1e-12 * (1.0 + abs(out[a][b]))
               for a in range(A.p) for b in range(A.p)):
        raise EvaluationDomainError(
            "bracket curvature not antisymmetric (is the L table "
            "antisymmetric?)", point=pt)
    return out


def _unit_scale(xs):
    return 1.0


def _identity_at(p):
    return lambda xs: [[1.0 if a == b else 0.0 for b in range(p)]
                       for a in range(p)]


class CoordinateChange:
    """A fibred chart change, as evaluators on M: the base map
    ``base_at(xs)`` (x -> x'), the fiber rescale ``phi_at(xs)`` (y0' =
    phi(x) y0), and the frame change ``lambda_at(xs)`` (Lambda[a'][a], row
    = new index) with its pointwise inverse ``lambda_inv_at(xs)``
    (Lambda[a][a']).  Each one left out is the identity.
    """

    __slots__ = ("m", "base_at", "phi_at", "lambda_at", "lambda_inv_at")

    def __init__(self, m: int, p: int, base_at=list, phi_at=None,
                 lambda_at=None, lambda_inv_at=None):
        self.m = m
        self.base_at = base_at
        self.phi_at = phi_at or _unit_scale
        self.lambda_at = lambda_at or _identity_at(p)
        self.lambda_inv_at = lambda_inv_at or _identity_at(p)

    def phi_grad_at(self, xs):
        if self.phi_at is _unit_scale:
            return [0.0] * self.m
        out = self.phi_at(seeded_point(xs, 0.0)[0])
        return [jdx(out, i) for i in range(self.m)]

    def push(self, pt: EPoint) -> EPoint:
        return EPoint(self.base_at(pt.x), self.phi_at(pt.x) * pt.y)


# The Gamma change law of :func:`nlc_transformation_point` for p and m at
# fiber coordinate y, its residuals scanned per g' in the order of the loop
# that the kernel replaced (the reference ``loop_gamma_law`` in
# ``tests/reference.py``) and the largest returned:
# with s<g> = (0 + rho[g][0] * dphi[0] + ...) and c<g> the entries of
# column g' of Laminv,
#
#     Gamma'[g'] - (0 + (-s0 * y0 + phi * Gamma[0]) * c0 + ...)
_GAMMA_LAW = KernelTemplate('''\
def gamma_law(y, phi, dphi, rho, gam, gam_p, lam_inv):
    {d}, = dphi
    {r}, = rho
    {G}, = gam
    {li}, = lam_inv
    {s}
    worst = 0.0
    for gp in {R}:
        {c}
        r = abs(gam_p[gp] - (0{terms}))
        if r >= worst or r != r:
            worst = r
    return worst
''')


@kernel(_GAMMA_LAW)
def _gamma_law_kernel(p, m):
    """The kernel of ``_GAMMA_LAW`` for p and m, generated on first use."""
    rp, rm = range(p), range(m)
    return dict(
        R=repr(tuple(rp)), d=names("d{}", rm), r=rows("r{}_{}", rp, rm),
        G=names("G{}", rp), li=names("li{}", rp),
        s="; ".join(f"s{g} = (0" + terms("r{0}_{1} * d{1}", [g], rm) + ")"
                    for g in rp),
        c="; ".join(f"c{g} = li{g}[gp]" for g in rp),
        terms=terms("(-s{0} * y + phi * G{0}) * c{0}", rp))


def nlc_transformation_point(N, N_primed, C, A, pt):
    """The largest residual at pt of the connection-coefficient change law

        Gamma'_{g'}(x', y0') = [ -rho^k_g y0 dphi/dx_k + phi Gamma_g ] Lam^g_{g'}

    with all right-hand quantities evaluated in the unprimed chart and the
    left side at the pushed-forward point; infinite where phi = 0.  The
    sums run in one kernel generated per (p, m) (``_GAMMA_LAW``)."""
    phi = C.phi_at(pt.x)
    if phi == 0.0:
        return float("inf")
    dphi = C.phi_grad_at(pt.x)
    lam_inv = C.lambda_inv_at(pt.x)
    rho = A.rho_at(pt.x)
    gam = N.gamma_at(pt.x, pt.y)
    pushed = C.push(pt)
    return _gamma_law_kernel(A.p, A.m)(pt.y, phi, dphi, rho, gam,
                                       N_primed.gamma_at(pushed.x, pushed.y),
                                       lam_inv)
