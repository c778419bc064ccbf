"""Anchored frame data on the base manifold and its consistency checks.

The data is a p-column anchor table rho[alpha][i] and a bracket-coefficient
table L[gamma][alpha][beta] on M, each given by the one function that
evaluates the whole table at a base point, so that the frame
vector fields X_alpha = rho[alpha][i] d/dx_i close under commutator:

    [X_alpha, X_beta] = L[gamma][alpha][beta] X_gamma.

Three sample-based validators certify antisymmetry of L, the commutator
closure (anchor compatibility), and the Jacobi identity.  All identity
suites downstream assume data that passes these.
"""

from __future__ import annotations

from operator import mul

from .calculus import at_point, jdx, jval, seeded_point
from .report import CheckResult, ResidualTracker

__all__ = ["AlgebroidData", "validate_antisymmetry",
           "validate_anchor_compatibility", "validate_jacobi"]

DEFAULT_VALIDATOR_TOL = 1e-8


class AlgebroidData:
    """The anchor and bracket tables as evaluators on M: ``rho_at(xs)``
    returns rho[alpha][i] (p x m), ``L_at(xs)`` returns
    L[gamma][alpha][beta] (p x p x p), entries float or Jet."""

    __slots__ = ("m", "p", "rho_at", "L_at")

    def __init__(self, m: int, p: int, rho_at, L_at):
        self.m = m
        self.p = p
        self.rho_at = rho_at
        self.L_at = L_at


def validate_antisymmetry(A: AlgebroidData, samples,
                          tol: float = DEFAULT_VALIDATOR_TOL) -> CheckResult:
    """max |L^g_{ab} + L^g_{ba}| over samples and indices."""
    tracker = ResidualTracker("antisymmetry", tol)
    for pt in samples:
        with at_point(pt):
            Lv = A.L_at(pt.x)
        for g in range(A.p):
            for a in range(A.p):
                for b in range(A.p):
                    tracker.update(Lv[g][a][b] + Lv[g][b][a], pt)
    return tracker.result()


def validate_anchor_compatibility(A: AlgebroidData, samples,
                                  tol: float = DEFAULT_VALIDATOR_TOL) -> CheckResult:
    """max |L^g_{ab} rho^k_g - (rho^i_a d_i rho^k_b - rho^j_b d_j rho^k_a)|."""
    tracker = ResidualTracker("anchor_compatibility", tol)
    m, p = A.m, A.p
    for pt in samples:
        with at_point(pt):
            jrho = A.rho_at(seeded_point(pt.x, pt.y)[0])
            rho = [[jval(jrho[a][i]) for i in range(m)] for a in range(p)]
            drho = [[[jdx(jrho[a][i], k) for k in range(m)] for i in range(m)]
                    for a in range(p)]
            Lv = A.L_at(pt.x)
        for a in range(p):
            for b in range(p):
                for k in range(m):
                    lhs = sum(Lv[g][a][b] * rho[g][k] for g in range(p))
                    rhs = sum(map(mul, rho[a], drho[b][k])) \
                        - sum(map(mul, rho[b], drho[a][k]))
                    tracker.update(lhs - rhs, pt)
    return tracker.result()


def validate_jacobi(A: AlgebroidData, samples,
                    tol: float = DEFAULT_VALIDATOR_TOL) -> CheckResult:
    """Cyclic sum of rho^i_a d_i L^d_{bc} + L^d_{ae} L^e_{bc} must vanish."""
    tracker = ResidualTracker("jacobi", tol)
    m, p = A.m, A.p
    for pt in samples:
        with at_point(pt):
            rho = A.rho_at(pt.x)
            jL = A.L_at(seeded_point(pt.x, pt.y)[0])
            Lv = [[[jval(jL[g][a][b]) for b in range(p)] for a in range(p)]
                  for g in range(p)]
            dL = [[[[jdx(jL[g][a][b], k) for k in range(m)] for b in range(p)]
                   for a in range(p)] for g in range(p)]

        # Lcol[b][c][e] = L^e_{bc}
        Lcol = [[[Lv[e][b][c] for e in range(p)] for c in range(p)]
                for b in range(p)]

        def term(a, b, c, d):
            out = sum(map(mul, rho[a], dL[d][b][c]))
            out += sum(map(mul, Lv[d][a], Lcol[b][c]))
            return out

        # Each term enters three cyclic sums; evaluate it once.
        T = [[[[term(a, b, c, d) for d in range(p)] for c in range(p)]
              for b in range(p)] for a in range(p)]
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        tracker.update(
                            T[a][b][c][d] + T[b][c][a][d] + T[c][a][b][d],
                            pt,
                        )
    return tracker.result()

