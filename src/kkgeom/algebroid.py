"""Anchored frame data on the base manifold and its consistency checks.

The data is a p-column anchor table rho[alpha][i] and a bracket-coefficient
table L[gamma][alpha][beta] on M, each given by the one function that
evaluates the whole table at a base point, so that the frame
vector fields X_alpha = rho[alpha][i] d/dx_i close under commutator:

    [X_alpha, X_beta] = L[gamma][alpha][beta] X_gamma.

Three per-point residuals certify antisymmetry of L, the commutator
closure (anchor compatibility), and the Jacobi identity; the ``validate``
command checks them over its samples.  All identity suites downstream
assume data that passes these.  The last two are straight-line code
generated per (p, m) on first use, in the operand order of the loops they
replaced (the references in ``tests/reference.py``).  Each takes the table
seeded for the x-derivatives as it is, splits every entry into its value
and gradient itself, and returns the largest residual at the point,
scanned as :func:`~kkgeom.report.row_max` scans.  Their sums start from
0.0, which adds as the loops' integer 0 does.
"""

from __future__ import annotations

from .calculus import EPoint, Jet, KernelTemplate, kernel, names, rows, \
    seeded_point, terms
from .report import row_max

__all__ = ["AlgebroidData", "antisymmetry_residual", "anchor_residual",
           "jacobi_residual"]


class AlgebroidData:
    """The anchor and bracket tables as evaluators on M: ``rho_at(xs)``
    returns rho[alpha][i] (p x m), ``L_at(xs)`` returns
    L[gamma][alpha][beta] (p x p x p), entries float or Jet.

    ``rho_zero`` and ``L_zero``, when known, are the tables' zero masks
    (nested tuples of bools, True where the entry is a float zero at every
    point, as a scenario load finds them); None says nothing is known.
    ``split`` is the walk of ``nlconnection.adapted_derivatives`` for
    ``rho_zero``, resolved on the first pass."""

    __slots__ = ("m", "p", "rho_at", "L_at", "rho_zero", "L_zero", "split")

    def __init__(self, m: int, p: int, rho_at, L_at, rho_zero=None,
                 L_zero=None):
        self.m = m
        self.p = p
        self.rho_at = rho_at
        self.L_at = L_at
        self.rho_zero = rho_zero
        self.L_zero = L_zero
        self.split = None


def antisymmetry_residual(A: AlgebroidData, pt: EPoint) -> float:
    """max |L^g_{ab} + L^g_{ba}| at pt over the indices."""
    r = range(A.p)
    return row_max([Lg[a][b] + Lg[b][a] for Lg in A.L_at(pt.x) for a in r
                    for b in r])


def _split_lines(n, indent):
    """Generated lines that split each seeded entry e<k> of a table row of
    n entries into its value v<k> and its x-gradient w<k> (``Z``, the zero
    gradient, for a float entry): what ``jval`` and ``jdx`` return, with
    one ``isinstance`` per entry."""
    pad = " " * indent
    return "\n".join(
        f"{pad}if isinstance(e{k}, Jet):\n"
        f"{pad}    v{k} = e{k}.value; w{k} = e{k}.dx\n"
        f"{pad}else:\n"
        f"{pad}    v{k} = e{k}; w{k} = Z"
        for k in range(n))


# The anchor-compatibility residuals at pt for p frames and m base
# coordinates, scanned per (a, b, k) in the order of the loops that the
# kernel replaced (the reference ``loop_anchor_compatibility`` in
# ``tests/reference.py``), their largest returned:
#
#     (0.0 + L[0][a][b] * rho[0][k] + ..)
#         - ((0.0 + rho[a][0] * drho[b][k][0] + ..)
#            - (0.0 + rho[b][0] * drho[a][k][0] + ..))
#
# with ra<i> = rho[a][i], rb<i> = rho[b][i], l<g> = L[g][a][b], c<g> =
# rho[g][k], q<i> = drho[b][k][i] and s<i> = drho[a][k][i], where rho and
# drho[a][k] = d/dx rho[a][k] are split from the seeded table ``jrho``.
_ANCHOR = KernelTemplate('''\
def anchor(jrho, Lv):
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
    return worst
''')


@kernel(_ANCHOR, Jet=Jet)
def _anchor_kernel(p, m):
    """The kernel of ``_ANCHOR`` for p and m, generated on first use."""
    rp, rm = range(p), range(m)
    return dict(
        P=repr(tuple(rp)), M=repr(tuple(rm)), L=names("L{}", rp),
        e=names("e{}", rm), split=_split_lines(m, 8), v=names("v{}", rm),
        w=names("w{}", rm), ra=names("ra{}", rm), rb=names("rb{}", rm),
        l="; ".join(f"l{g} = L{g}[a][b]" for g in rp), c=names("c{}", rp),
        q=names("q{}", rm), s=names("s{}", rm), lhs=terms("l{0} * c{0}", rp),
        rhs_a=terms("ra{0} * q{0}", rm),
        rhs_b=terms("rb{0} * s{0}", rm)), {"Z": (0.0,) * m}


def anchor_residual(A: AlgebroidData, pt: EPoint) -> float:
    """max |L^g_{ab} rho^k_g - (rho^i_a d_i rho^k_b - rho^j_b d_j rho^k_a)|
    at pt."""
    return _anchor_kernel(A.p, A.m)(A.rho_at(seeded_point(pt.x, pt.y)[0]),
                                    A.L_at(pt.x))


# The Jacobi residuals at one point for p frames and m base coordinates:
# the terms
#
#     T[a][b][c][d] = (0.0 + rho[a][0] * dL[d][b][c][0] + ..)
#                     + (0.0 + L[d][a][0] * L[0][b][c] + ..)
#
# and their cyclic sums T[a][b][c][d] + T[b][c][a][d] + T[c][a][b][d],
# scanned per (a, b, c, d) in the order of the loops that the kernel
# replaced (the reference ``loop_jacobi`` in ``tests/reference.py``), their
# largest returned.  L and dL[g][a][b] = d/dx L[g][a][b] are
# split from the seeded table ``jL``.  With r<i> = rho[a][i], n<d>_<e> =
# L[d][a][e], l<e> = L[e][b][c] and q<d>_<i> = dL[d][b][c][i], the terms of
# (a, b, c) are one tuple over d; x<d>, y<d> and z<d> are those of the three
# cyclic terms.
_JACOBI = KernelTemplate('''\
def jacobi(rho, jL):
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
    return worst
''')


@kernel(_JACOBI, Jet=Jet)
def _jacobi_kernel(p, m):
    """The kernel of ``_JACOBI`` for p and m, generated on first use."""
    rp, rm = range(p), range(m)
    scan = "\n".join(f"                r = abs(x{d} + y{d} + z{d})\n"
                     "                if r >= worst or r != r:\n"
                     "                    worst = r" for d in rp)
    return dict(
        P=repr(tuple(rp)), e=names("e{}", rp), split=_split_lines(p, 12),
        v=names("v{}", rp), w=names("w{}", rp), r=names("r{}", rm),
        n=rows("n{}_{}", rp, rp), l=names("l{}", rp), q=rows("q{}_{}", rp, rm),
        terms=", ".join("(0.0" + terms("r{1} * q{0}_{1}", [d], rm)
                        + ") + (0.0" + terms("n{0}_{1} * l{1}", [d], rp)
                        + ")" for d in rp),
        x=names("x{}", rp), y=names("y{}", rp), z=names("z{}", rp),
        scan=scan), {"Z": (0.0,) * m}


def jacobi_residual(A: AlgebroidData, pt: EPoint) -> float:
    """max |cyclic sum of rho^i_a d_i L^d_{bc} + L^d_{ae} L^e_{bc}| at pt,
    which must vanish."""
    return _jacobi_kernel(A.p, A.m)(A.rho_at(pt.x),
                                    A.L_at(seeded_point(pt.x, pt.y)[0]))
