"""Anchored frame data on the base manifold and its consistency checks.

The data is a p-column anchor table rho[alpha][i] (each entry a field on M)
and a bracket-coefficient table L[gamma][alpha][beta], so that the frame
vector fields X_alpha = rho[alpha][i] d/dx_i close under commutator:

    [X_alpha, X_beta] = L[gamma][alpha][beta] X_gamma.

Three sample-based validators certify antisymmetry of L, the commutator
closure (anchor compatibility), and the Jacobi identity.  All identity
suites downstream assume data that passes these.
"""

from __future__ import annotations

from operator import mul

from .calculus import at_point, constant, jdx, jval, seeded_point
from .report import CheckResult, ResidualTracker

__all__ = ["AlgebroidData", "validate_antisymmetry",
           "validate_anchor_compatibility", "validate_jacobi"]

DEFAULT_VALIDATOR_TOL = 1e-8


class AlgebroidData:
    """Anchor and bracket tables, both pulled back to fields on M."""

    __slots__ = ("m", "p", "rho", "L")

    def __init__(self, m: int, p: int, rho: tuple, L: tuple):
        if len(rho) != p or any(len(row) != m for row in rho):
            raise ValueError(f"rho table must be {p}x{m}")
        if (len(L) != p
                or any(len(a) != p for a in L)
                or any(len(b) != p for a in L for b in a)):
            raise ValueError(f"L table must be {p}^3")
        self.m = m
        self.p = p
        self.rho = rho      # rho[alpha][i] -> field, shape p x m
        self.L = L          # L[gamma][alpha][beta] -> field, shape p x p x p

    def rho_at(self, xs):
        """Anchor values at base point xs (entries float or Jet)."""
        return [[self.rho[a][i](xs, 0.0) for i in range(self.m)]
                for a in range(self.p)]

    def L_at(self, xs):
        return [[[self.L[g][a][b](xs, 0.0) for b in range(self.p)]
                 for a in range(self.p)] for g in range(self.p)]

    @staticmethod
    def identity(m: int) -> "AlgebroidData":
        """Coordinate frame: rho = Id (p = m), L = 0."""
        rho = tuple(
            tuple(constant(1.0 if i == a else 0.0) for i in range(m))
            for a in range(m)
        )
        zero = constant(0.0)
        L = tuple(tuple((zero,) * m for _ in range(m)) for _ in range(m))
        return AlgebroidData(m, m, rho, L)


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
            jxs, _ = seeded_point(pt.x, pt.y)
            jrho = [[A.rho[a][i](jxs, 0.0) for i in range(m)] for a in range(p)]
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
            jxs, _ = seeded_point(pt.x, pt.y)
            jL = [[[A.L[g][a][b](jxs, 0.0) for b in range(p)] for a in range(p)]
                  for g in range(p)]
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

