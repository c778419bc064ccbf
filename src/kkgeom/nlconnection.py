"""Nonlinear fiber connection: adapted-frame derivative and its curvature.

The connection is a p-tuple of coefficient fields Gamma[gamma](x, y0); the
adapted frame operators act on scalar fields as

    delta_gamma f = rho[gamma][i] df/dx_i - Gamma[gamma] df/dy0,

and the vertical operator is plain d/dy0.  Tensor components everywhere in
this package are stored with respect to this frame.  The frame's bracket
defect is the antisymmetric matrix ``nlc_curvature``.  Everything evaluates
on floats or Jets alike, so the operators nest.
"""

from __future__ import annotations

from operator import mul

from .algebroid import AlgebroidData
from .calculus import (
    EPoint,
    EvaluationDomainError,
    Jet,
    constant,
    jdx,
    seeded_point,
)
from .report import CheckResult, ResidualTracker

__all__ = [
    "NonlinearConnection",
    "CoordinateChange",
    "adapted_derivatives",
    "nlc_curvature",
    "bracket_curvature",
    "nlc_transformation_point",
]


class NonlinearConnection:
    """Coefficients Gamma[gamma](x, y0) of the horizontal/vertical split."""

    __slots__ = ("p", "gamma")

    def __init__(self, p: int, gamma: tuple):
        if len(gamma) != p:
            raise ValueError(f"Gamma table must have {p} entries")
        self.p = p
        self.gamma = gamma  # p fields on E

    def gamma_at(self, xs, y):
        return [g(xs, y) for g in self.gamma]

    @staticmethod
    def zero(p: int) -> "NonlinearConnection":
        return NonlinearConnection(p, (constant(0.0),) * p)


def adapted_derivatives(array_fn, xs, y, A: AlgebroidData, N: NonlinearConnection):
    """Evaluate ``array_fn`` (nested lists of scalars) at a jointly seeded
    point and return (values, [delta_gamma structure for each gamma], ddy).

    This is the workhorse: one evaluation of the underlying fields yields the
    adapted derivatives of every component at once, and it nests (callers may
    pass Jet-valued xs, y).  One walk over the output gives all three; each
    delta is ``sum(rho[gamma][i] * d_i s) - Gamma[gamma] * d_y s`` with the
    sum taken in the order of i, from 0.
    """
    rho = A.rho_at(xs)
    gam = N.gamma_at(xs, y)
    jxs, jy = seeded_point(xs, y)
    out = array_fn(jxs, jy)
    return _split(out, tuple(zip(rho, gam)), (0.0,) * A.m)


def _split(node, pairs, zeros):
    """:func:`adapted_derivatives` of one node; module-level recursion, so
    no closure cycle keeps the Jets alive after the call."""
    if isinstance(node, list):
        vals, ddy = [], []
        deltas = [[] for _ in pairs]
        for sub in node:
            v, d, dy = _split(sub, pairs, zeros)
            vals.append(v)
            ddy.append(dy)
            for acc, dg in zip(deltas, d):
                acc.append(dg)
        return vals, deltas, ddy
    if isinstance(node, Jet):
        v, dx, dy = node.value, node.dx, node.dy
    else:
        v, dx, dy = node, zeros, 0.0
    return v, [sum(map(mul, r, dx)) - g * dy for r, g in pairs], dy


def bracket_curvature(gam, gam_delta, Lv):
    """The bracket curvature R[alpha][beta] = delta_beta Gamma_alpha
    - delta_alpha Gamma_beta + L[g][alpha][beta] Gamma_g from the Gamma
    values, their adapted derivatives ``gam_delta[beta][alpha]`` and the
    bracket table; generic over Jets."""
    p = len(gam)
    return [
        [
            gam_delta[b][a] - gam_delta[a][b]
            + sum(Lv[g][a][b] * gam[g] for g in range(p))
            for b in range(p)
        ]
        for a in range(p)
    ]


def nlc_curvature(A: AlgebroidData, N: NonlinearConnection, pt: EPoint):
    """Bracket curvature matrix at a point, as plain floats."""
    gam, gam_delta, _ = adapted_derivatives(
        lambda jxs, jy: N.gamma_at(jxs, jy), pt.x, pt.y, A, N)
    out = bracket_curvature(gam, gam_delta, A.L_at(pt.x))
    # antisymmetric by construction whenever the bracket table is
    if not all(abs(out[a][b] + out[b][a]) <= 1e-12 * (1.0 + abs(out[a][b]))
               for a in range(A.p) for b in range(A.p)):
        raise EvaluationDomainError(
            "bracket curvature not antisymmetric (is the L table "
            "antisymmetric?)", point=pt)
    return out


class CoordinateChange:
    """A fibred chart change: base map x -> x', linear fiber rescale
    y0' = phi(x) * y0, and frame change Lambda (with pointwise inverse).

    ``base``/``base_inverse`` are m-tuples of fields on M (None = identity).
    ``frame`` is Lambda[a'][a] (row = new index), ``frame_inverse`` its
    pointwise inverse Lambda[a][a'].
    """

    __slots__ = ("m", "p", "base", "base_inverse", "fiber_scale", "frame",
                 "frame_inverse")

    def __init__(self, m: int, p: int, base: tuple | None = None,
                 base_inverse: tuple | None = None,
                 fiber_scale=None,
                 frame: tuple | None = None,
                 frame_inverse: tuple | None = None):
        self.m = m
        self.p = p
        self.base = base
        self.base_inverse = base_inverse
        self.fiber_scale = fiber_scale
        self.frame = frame
        self.frame_inverse = frame_inverse

    def base_at(self, xs):
        if self.base is None:
            return list(xs)
        return [f(xs, 0.0) for f in self.base]

    def base_inverse_at(self, xs_p):
        if self.base_inverse is None:
            return list(xs_p)
        return [f(xs_p, 0.0) for f in self.base_inverse]

    def phi_at(self, xs):
        return 1.0 if self.fiber_scale is None else self.fiber_scale(xs, 0.0)

    def phi_grad_at(self, xs):
        if self.fiber_scale is None:
            return [0.0] * self.m
        jxs, _ = seeded_point(xs, 0.0)
        out = self.fiber_scale(jxs, 0.0)
        return [jdx(out, i) for i in range(self.m)]

    def lambda_at(self, xs):
        if self.frame is None:
            return [[1.0 if a == b else 0.0 for b in range(self.p)]
                    for a in range(self.p)]
        return [[f(xs, 0.0) for f in row] for row in self.frame]

    def lambda_inv_at(self, xs):
        if self.frame_inverse is None:
            return [[1.0 if a == b else 0.0 for b in range(self.p)]
                    for a in range(self.p)]
        return [[f(xs, 0.0) for f in row] for row in self.frame_inverse]

    def push(self, pt: EPoint) -> EPoint:
        return EPoint(self.base_at(pt.x), self.phi_at(pt.x) * pt.y)

    def self_check(self, samples, tol: float = 1e-10) -> CheckResult:
        """base o inverse = id and Lambda . Lambda^-1 = I on samples."""
        tracker = ResidualTracker("chart_change", tol)
        for pt in samples:
            back = self.base_inverse_at(tuple(self.base_at(pt.x)))
            for i in range(self.m):
                tracker.update(back[i] - pt.x[i], pt)
            lam = self.lambda_at(pt.x)
            inv = self.lambda_inv_at(pt.x)
            for a in range(self.p):
                for b in range(self.p):
                    acc = sum(lam[a][c] * inv[c][b] for c in range(self.p))
                    tracker.update(acc - (1.0 if a == b else 0.0), pt)
            if abs(self.phi_at(pt.x)) < 1e-15:
                tracker.update(float("inf"), pt)
        return tracker.result()


def nlc_transformation_point(N, N_primed, C, A, pt, tracker):
    """Residual at pt, into ``tracker``, of the connection-coefficient
    change law

        Gamma'_{g'}(x', y0') = [ -rho^k_g y0 dphi/dx_k + phi Gamma_g ] Lam^g_{g'}

    with all right-hand quantities evaluated in the unprimed chart and the
    left side at the pushed-forward point."""
    p = A.p
    phi = C.phi_at(pt.x)
    if phi == 0.0:
        tracker.update(float("inf"), pt)
        return
    dphi = C.phi_grad_at(pt.x)
    lam_inv = C.lambda_inv_at(pt.x)
    rho = A.rho_at(pt.x)
    gam = N.gamma_at(pt.x, pt.y)
    pushed = C.push(pt)
    gam_p = N_primed.gamma_at(pushed.x, pushed.y)
    rho_dphi = [sum(rho[g][k] * dphi[k] for k in range(A.m))
                for g in range(p)]
    for gp in range(p):
        rhs = sum((-rho_dphi[g] * pt.y + phi * gam[g]) * lam_inv[g][gp]
                  for g in range(p))
        tracker.update(gam_p[gp] - rhs, pt)
