"""Anchored frame data on the base manifold and its consistency checks.

The data is a p-column anchor table rho[alpha][i] and a bracket-coefficient
table L[gamma][alpha][beta] on M, each given by the one function that
evaluates the whole table at a base point, so that the frame
vector fields X_alpha = rho[alpha][i] d/dx_i close under commutator:

    [X_alpha, X_beta] = L[gamma][alpha][beta] X_gamma.

Three sample-based validators certify antisymmetry of L, the commutator
closure (anchor compatibility), and the Jacobi identity.  All identity
suites downstream assume data that passes these.  The sums of the last two
are straight-line code generated per (p, m) on first use, in the operand
order of the loops they replaced (the references in
``tests/reference.py``).
"""

from __future__ import annotations

import functools
import sys

from .calculus import at_point, compile_kernel, jdx, jval, seeded_point
from .report import ResidualTracker

__all__ = ["AlgebroidData", "validate_antisymmetry",
           "validate_anchor_compatibility", "validate_jacobi"]


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
                          tol: float) -> ResidualTracker:
    """max |L^g_{ab} + L^g_{ba}| over samples and indices."""
    tracker = ResidualTracker("antisymmetry", tol)
    for pt in samples:
        with at_point(pt):
            Lv = A.L_at(pt.x)
        for g in range(A.p):
            for a in range(A.p):
                for b in range(A.p):
                    tracker.update(Lv[g][a][b] + Lv[g][b][a], pt)
    return tracker


# The anchor-compatibility residuals at pt for p frames and m base
# coordinates, fed to ``update`` per (a, b, k) in the order of the loops
# that the kernel replaced (the reference ``loop_anchor_compatibility`` in
# ``tests/reference.py``):
#
#     (0 + L[0][a][b] * rho[0][k] + ..)
#         - ((0 + rho[a][0] * drho[b][k][0] + ..)
#            - (0 + rho[b][0] * drho[a][k][0] + ..))
#
# with ra<i> = rho[a][i], rb<i> = rho[b][i], l<g> = L[g][a][b], c<g> =
# rho[g][k], q<i> = drho[b][k][i] and s<i> = drho[a][k][i].
_ANCHOR_LINE = sys._getframe().f_lineno + 2
_ANCHOR = '''\
def anchor(update, pt, rho, drho, Lv):
    {L}, = Lv
    columns = list(zip(*rho))
    for a in {P}:
        {ra}, = rho[a]
        drho_a = drho[a]
        for b in {P}:
            {rb}, = rho[b]
            drho_b = drho[b]
            {l}
            for k in {M}:
                {c}, = columns[k]
                {q}, = drho_b[k]
                {s}, = drho_a[k]
                update((0{lhs}) - ((0{rhs_a}) - (0{rhs_b})), pt)
'''


@functools.cache
def _anchor_kernel(p, m):
    """The kernel of ``_ANCHOR`` for p and m, generated on first use."""
    rp, rm = range(p), range(m)
    source = _ANCHOR.format(
        P=repr(tuple(rp)), M=repr(tuple(rm)),
        L=", ".join(f"L{g}" for g in rp),
        ra=", ".join(f"ra{i}" for i in rm), rb=", ".join(f"rb{i}" for i in rm),
        l="; ".join(f"l{g} = L{g}[a][b]" for g in rp),
        c=", ".join(f"c{g}" for g in rp), q=", ".join(f"q{i}" for i in rm),
        s=", ".join(f"s{i}" for i in rm),
        lhs="".join(f" + l{g} * c{g}" for g in rp),
        rhs_a="".join(f" + ra{i} * q{i}" for i in rm),
        rhs_b="".join(f" + rb{i} * s{i}" for i in rm))
    return compile_kernel(source, "anchor", __file__, _ANCHOR_LINE, {})


def validate_anchor_compatibility(A: AlgebroidData, samples,
                                  tol: float) -> ResidualTracker:
    """max |L^g_{ab} rho^k_g - (rho^i_a d_i rho^k_b - rho^j_b d_j rho^k_a)|."""
    tracker = ResidualTracker("anchor_compatibility", tol)
    m, p = A.m, A.p
    anchor = _anchor_kernel(p, m)
    for pt in samples:
        with at_point(pt):
            jrho = A.rho_at(seeded_point(pt.x, pt.y)[0])
            rho = [[jval(jrho[a][i]) for i in range(m)] for a in range(p)]
            drho = [[[jdx(jrho[a][i], k) for k in range(m)] for i in range(m)]
                    for a in range(p)]
            Lv = A.L_at(pt.x)
        anchor(tracker.update, pt, rho, drho, Lv)
    return tracker


# The Jacobi terms at one point for p frames and m base coordinates,
#
#     T[a][b][c][d] = (0 + rho[a][0] * dL[d][b][c][0] + ..)
#                     + (0 + L[d][a][0] * L[0][b][c] + ..)
#
# each of which enters three cyclic sums, in the order of the loops that
# the kernel replaced (the reference ``loop_jacobi`` in
# ``tests/reference.py``), with r<i> = rho[a][i], q<i> = dL[d][b][c][i],
# n<e> = L[d][a][e] and l<e> = L[e][b][c]; ``by_a[a]`` holds the rows
# L[d][a] and ``by_bc[b][c]`` the gradients dL[d][b][c], over d.
_JACOBI_LINE = sys._getframe().f_lineno + 2
_JACOBI = '''\
def jacobi(rho, Lv, dL):
    {L}, = Lv
    by_a = list(zip(*Lv))
    by_bc = [list(zip(*col)) for col in zip(*dL)]
    T = []
    for a in {P}:
        {r}, = rho[a]
        rows_a = by_a[a]
        Ta = []
        for b in {P}:
            by_b = by_bc[b]
            Tab = []
            for c in {P}:
                {l}
                Tabc = []
                for ({q},), ({n},) in zip(by_b[c], rows_a):
                    Tabc.append((0{dterm}) + (0{lterm}))
                Tab.append(Tabc)
            Ta.append(Tab)
        T.append(Ta)
    return T
'''


@functools.cache
def _jacobi_kernel(p, m):
    """The kernel of ``_JACOBI`` for p and m, generated on first use."""
    rp, rm = range(p), range(m)
    source = _JACOBI.format(
        P=repr(tuple(rp)), L=", ".join(f"L{e}" for e in rp),
        r=", ".join(f"r{i}" for i in rm),
        l="; ".join(f"l{e} = L{e}[b][c]" for e in rp),
        q=", ".join(f"q{i}" for i in rm), n=", ".join(f"n{e}" for e in rp),
        dterm="".join(f" + r{i} * q{i}" for i in rm),
        lterm="".join(f" + n{e} * l{e}" for e in rp))
    return compile_kernel(source, "jacobi", __file__, _JACOBI_LINE, {})


def validate_jacobi(A: AlgebroidData, samples,
                    tol: float) -> ResidualTracker:
    """Cyclic sum of rho^i_a d_i L^d_{bc} + L^d_{ae} L^e_{bc} must vanish."""
    tracker = ResidualTracker("jacobi", tol)
    m, p = A.m, A.p
    jacobi = _jacobi_kernel(p, m)
    for pt in samples:
        with at_point(pt):
            rho = A.rho_at(pt.x)
            jL = A.L_at(seeded_point(pt.x, pt.y)[0])
            Lv = [[[jval(jL[g][a][b]) for b in range(p)] for a in range(p)]
                  for g in range(p)]
            dL = [[[[jdx(jL[g][a][b], k) for k in range(m)] for b in range(p)]
                   for a in range(p)] for g in range(p)]

        # Each term enters three cyclic sums; evaluate it once.
        T = jacobi(rho, Lv, dL)
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    for d in range(p):
                        tracker.update(
                            T[a][b][c][d] + T[b][c][a][d] + T[c][a][b][d],
                            pt,
                        )
    return tracker
