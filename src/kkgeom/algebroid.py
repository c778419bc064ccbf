"""Anchored frame data on the base manifold and its consistency checks.

The data is a p-column anchor table rho[alpha][i] and a bracket-coefficient
table L[gamma][alpha][beta] on M, each given by the one function that
evaluates the whole table at a base point, so that the frame
vector fields X_alpha = rho[alpha][i] d/dx_i close under commutator:

    [X_alpha, X_beta] = L[gamma][alpha][beta] X_gamma.

Three sample-based validators certify antisymmetry of L, the commutator
closure (anchor compatibility), and the Jacobi identity.  All identity
suites downstream assume data that passes these.  The last two are
straight-line code generated per (p, m) on first use, in the operand order
of the loops they replaced (the references in ``tests/reference.py``).
Each takes the table seeded for the x-derivatives as it is, splits every
entry into its value and gradient itself, and feeds its check one value
per sample point: the largest residual, scanned as
:func:`~kkgeom.report.row_max` scans.  Their sums start from 0.0, which
adds as the loops' integer 0 does.
"""

from __future__ import annotations

import functools
import sys

from .calculus import Jet, at_point, compile_kernel, seeded_point
from .report import ResidualTracker, row_max

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
    r = range(A.p)
    for pt in samples:
        with at_point(pt):
            Lv = A.L_at(pt.x)
        tracker.update(row_max([Lg[a][b] + Lg[b][a] for Lg in Lv for a in r
                                for b in r]), pt)
    return tracker


def _names(fmt, indices):
    """``fmt`` formatted with each index."""
    return [fmt.format(i) for i in indices]


def _split_lines(entries, values, grads, indent):
    """Generated lines that split each seeded entry e<k> of a table row into
    its value v<k> and its x-gradient w<k> (``Z``, the zero gradient, for a
    float entry): what ``jval`` and ``jdx`` return, with one ``isinstance``
    per entry."""
    pad = " " * indent
    return "\n".join(
        f"{pad}if isinstance({e}, Jet):\n"
        f"{pad}    {v} = {e}.value; {w} = {e}.dx\n"
        f"{pad}else:\n"
        f"{pad}    {v} = {e}; {w} = Z"
        for e, v, w in zip(entries, values, grads))


# The anchor-compatibility residuals at pt for p frames and m base
# coordinates, scanned per (a, b, k) in the order of the loops that the
# kernel replaced (the reference ``loop_anchor_compatibility`` in
# ``tests/reference.py``), their largest fed to ``update`` once:
#
#     (0.0 + L[0][a][b] * rho[0][k] + ..)
#         - ((0.0 + rho[a][0] * drho[b][k][0] + ..)
#            - (0.0 + rho[b][0] * drho[a][k][0] + ..))
#
# with ra<i> = rho[a][i], rb<i> = rho[b][i], l<g> = L[g][a][b], c<g> =
# rho[g][k], q<i> = drho[b][k][i] and s<i> = drho[a][k][i], where rho and
# drho[a][k] = d/dx rho[a][k] are split from the seeded table ``jrho``.
_ANCHOR_LINE = sys._getframe().f_lineno + 2
_ANCHOR = '''\
def anchor(update, pt, jrho, Lv):
    {L}, = Lv
    rho = []
    drho = []
    for {e}, in jrho:
{split}
        rho.append(({v},))
        drho.append(({w},))
    columns = list(zip(*rho))
    worst = 0.0
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
                r = abs((0.0{lhs}) - ((0.0{rhs_a}) - (0.0{rhs_b})))
                if r >= worst or r != r:
                    worst = r
    update(worst, pt)
'''


@functools.cache
def _anchor_kernel(p, m):
    """The kernel of ``_ANCHOR`` for p and m, generated on first use."""
    rp, rm = range(p), range(m)
    e, v, w = _names("e{}", rm), _names("v{}", rm), _names("w{}", rm)
    source = _ANCHOR.format(
        P=repr(tuple(rp)), M=repr(tuple(rm)),
        L=", ".join(f"L{g}" for g in rp), e=", ".join(e),
        split=_split_lines(e, v, w, 8), v=", ".join(v), w=", ".join(w),
        ra=", ".join(f"ra{i}" for i in rm), rb=", ".join(f"rb{i}" for i in rm),
        l="; ".join(f"l{g} = L{g}[a][b]" for g in rp),
        c=", ".join(f"c{g}" for g in rp), q=", ".join(f"q{i}" for i in rm),
        s=", ".join(f"s{i}" for i in rm),
        lhs="".join(f" + l{g} * c{g}" for g in rp),
        rhs_a="".join(f" + ra{i} * q{i}" for i in rm),
        rhs_b="".join(f" + rb{i} * s{i}" for i in rm))
    return compile_kernel(source, "anchor", __file__, _ANCHOR_LINE,
                          {"Jet": Jet, "Z": (0.0,) * m})


def validate_anchor_compatibility(A: AlgebroidData, samples,
                                  tol: float) -> ResidualTracker:
    """max |L^g_{ab} rho^k_g - (rho^i_a d_i rho^k_b - rho^j_b d_j rho^k_a)|."""
    tracker = ResidualTracker("anchor_compatibility", tol)
    anchor = _anchor_kernel(A.p, A.m)
    for pt in samples:
        with at_point(pt):
            jrho = A.rho_at(seeded_point(pt.x, pt.y)[0])
            Lv = A.L_at(pt.x)
        anchor(tracker.update, pt, jrho, Lv)
    return tracker


# The Jacobi residuals at one point for p frames and m base coordinates:
# the terms
#
#     T[a][b][c][d] = (0.0 + rho[a][0] * dL[d][b][c][0] + ..)
#                     + (0.0 + L[d][a][0] * L[0][b][c] + ..)
#
# and their cyclic sums T[a][b][c][d] + T[b][c][a][d] + T[c][a][b][d],
# scanned per (a, b, c, d) in the order of the loops that the kernel
# replaced (the reference ``loop_jacobi`` in ``tests/reference.py``), their
# largest fed to ``update`` once.  L and dL[g][a][b] = d/dx L[g][a][b] are
# split from the seeded table ``jL``.  With r<i> = rho[a][i], n<d>_<e> =
# L[d][a][e], l<e> = L[e][b][c] and q<d>_<i> = dL[d][b][c][i], the terms of
# (a, b, c) are one tuple over d; x<d>, y<d> and z<d> are those of the three
# cyclic terms.
_JACOBI_LINE = sys._getframe().f_lineno + 2
_JACOBI = '''\
def jacobi(update, pt, rho, jL):
    L = []
    dL = []
    for plane in jL:
        Lg = []
        dLg = []
        for {e}, in plane:
{split}
            Lg.append(({v},))
            dLg.append(({w},))
        L.append(Lg)
        dL.append(dLg)
    by_a = list(zip(*L))
    l_bc = [list(zip(*col)) for col in zip(*L)]
    q_bc = [list(zip(*col)) for col in zip(*dL)]
    T = []
    for a in {P}:
        {r}, = rho[a]
        {n}, = by_a[a]
        Ta = []
        for b in {P}:
            l_b = l_bc[b]
            q_b = q_bc[b]
            Tab = []
            for c in {P}:
                {l}, = l_b[c]
                {q}, = q_b[c]
                Tab.append(({terms},))
            Ta.append(Tab)
        T.append(Ta)
    worst = 0.0
    for a in {P}:
        Ta = T[a]
        for b in {P}:
            Tab = Ta[b]
            Tb = T[b]
            for c in {P}:
                {x}, = Tab[c]
                {y}, = Tb[c][a]
                {z}, = T[c][a][b]
{scan}
    update(worst, pt)
'''


@functools.cache
def _jacobi_kernel(p, m):
    """The kernel of ``_JACOBI`` for p and m, generated on first use."""
    rp, rm = range(p), range(m)

    def rows(fmt, inner):
        return ", ".join("(" + ", ".join(fmt.format(d, k) for k in inner)
                         + ",)" for d in rp)

    e, v, w = _names("e{}", rp), _names("v{}", rp), _names("w{}", rp)
    source = _JACOBI.format(
        P=repr(tuple(rp)), e=", ".join(e), split=_split_lines(e, v, w, 12),
        v=", ".join(v), w=", ".join(w),
        r=", ".join(_names("r{}", rm)), n=rows("n{}_{}", rp),
        l=", ".join(_names("l{}", rp)), q=rows("q{}_{}", rm),
        terms=", ".join(
            "(0.0" + "".join(f" + r{i} * q{d}_{i}" for i in rm) + ") + (0.0"
            + "".join(f" + n{d}_{k} * l{k}" for k in rp) + ")" for d in rp),
        x=", ".join(_names("x{}", rp)), y=", ".join(_names("y{}", rp)),
        z=", ".join(_names("z{}", rp)),
        scan="\n".join(f"                r = abs(x{d} + y{d} + z{d})\n"
                       "                if r >= worst or r != r:\n"
                       "                    worst = r" for d in rp))
    return compile_kernel(source, "jacobi", __file__, _JACOBI_LINE,
                          {"Jet": Jet, "Z": (0.0,) * m})


def validate_jacobi(A: AlgebroidData, samples,
                    tol: float) -> ResidualTracker:
    """Cyclic sum of rho^i_a d_i L^d_{bc} + L^d_{ae} L^e_{bc} must vanish."""
    tracker = ResidualTracker("jacobi", tol)
    jacobi = _jacobi_kernel(A.p, A.m)
    for pt in samples:
        with at_point(pt):
            rho = A.rho_at(pt.x)
            jL = A.L_at(seeded_point(pt.x, pt.y)[0])
        jacobi(tracker.update, pt, rho, jL)
    return tracker
