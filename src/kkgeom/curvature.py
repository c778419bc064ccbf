"""Torsion, curvature, Ricci blocks, Einstein blocks, and identity suites.

Index conventions (all 0-based):

    Thh[a][b][c]      = hh[a][b][c] - hh[a][c][b] - L[a][c][b]
    Tv[b][c]          = bracket curvature R[b][c]
    Ph_t[a][b]        = vh[a][b]
    Pv_t[b]           = dGamma_b/dy0 - hv[b]
    Rh[a][b][c][e]    : curvature of two horizontal frames on a horizontal
                        frame; antisymmetric in (c, e)
    Rv[c][e], Pc_h[a][eps][c], Pc_v[c], Sh, Sv : the remaining families

The component formulas are fixed by the covariant-derivative/bracket
definitions; every family is cross-checked at sample points against a
direct evaluation of those definitions for all frame fields at once
(``frame_definitions``), which uses only the frame coefficients, the raw
bracket table and nested differentiation.  The comparison is one table:
a row per frame pair (torsion) or triple (curvature) that a family
covers, each holding the definition's pair and the family's entries.
The definition side is the arbiter.

The per-entry sums are straight-line code generated per p on first use,
each performing the float and Jet operations of the loop it replaced in
the same order: the differences of ``frame_definitions``, the Rh/Rv
formula and the contractions of the commutation and Bianchi checks.  The
loops are the bitwise references in ``tests/reference.py``.
"""

from __future__ import annotations

import functools
import operator

from .algebroid import AlgebroidData
from .calculus import EPoint, Jet, KernelTemplate, kernel, names, primal, \
    rows, terms
from .dconnection import (
    DConnectionCoeffs,
    bracket_pairs,
    frame_derivatives,
    h_cov_values,
    v_cov_values,
)
from .exprlang import compile_expr, parse
from .metric import MetricStructure, SingularMetricError, inverse_h
from .nlconnection import (
    NonlinearConnection,
    adapted_derivatives,
    bracket_curvature,
)
from .report import row_max

__all__ = [
    "TorsionComponents",
    "CurvatureComponents",
    "RicciTensor",
    "EnergyMomentum",
    "torsion_components_at",
    "torsion_components",
    "curvature_components_at",
    "curvature_components",
    "frame_definitions",
    "ricci",
    "scalar_curvature",
    "energy_momentum",
    "PointTables",
    "OracleCheck",
    "RicciCommutationCheck",
    "BianchiCheck",
    "default_test_vector",
]


class TorsionComponents:
    """Floats at a float point, Jets at a Jet point."""

    __slots__ = ("Thh", "Tv", "Ph", "Pv", "S00")

    def __init__(self, Thh: list, Tv: list, Ph: list, Pv: list, S00: float):
        self.Thh = Thh      # [a][b][c]
        self.Tv = Tv        # [b][c]
        self.Ph = Ph        # [a][b]
        self.Pv = Pv        # [b]
        self.S00 = S00


class CurvatureComponents:
    """Floats at a float point, Jets at a Jet point."""

    __slots__ = ("Rh", "Rv", "Ph", "Pv", "Sh", "Sv")

    def __init__(self, Rh: list, Rv: list, Ph: list, Pv: list, Sh: list,
                 Sv: float):
        self.Rh = Rh        # [a][b][c][e]
        self.Rv = Rv        # [c][e]
        self.Ph = Ph        # [a][eps][c]
        self.Pv = Pv        # [c]
        self.Sh = Sh        # [a][b]
        self.Sv = Sv


class RicciTensor:
    __slots__ = ("Rab", "Pa0", "P0b", "S00")

    def __init__(self, Rab: list, Pa0: list, P0b: list, S00: float):
        self.Rab = Rab      # [a][b] = Rh[g][a][b][g]
        self.Pa0 = Pa0      # [a] = Pc_h[b][a][b]
        self.P0b = P0b      # [b] = Pc_v[b]
        self.S00 = S00


class EnergyMomentum:
    __slots__ = ("Tab", "Ta0", "T0b", "T00", "kappa")

    def __init__(self, Tab: list, Ta0: list, T0b: list, T00: float,
                 kappa: float):
        self.Tab = Tab
        self.Ta0 = Ta0
        self.T0b = T0b
        self.T00 = T00
        self.kappa = kappa


def _thh(Hh, Lv):
    """The Thh family from the hh coefficients and the bracket table."""
    p = len(Hh)
    return [
        [
            [Hh[a][b][c] - Hh[a][c][b] - Lv[a][c][b] for c in range(p)]
            for b in range(p)
        ]
        for a in range(p)
    ]


def _torsion(Hh, Hv, Vh, Vv, Lv, R, gam_dy) -> TorsionComponents:
    """The torsion block from the coefficients, the bracket table, the
    bracket curvature R and the fiber derivatives of Gamma."""
    return TorsionComponents(
        Thh=_thh(Hh, Lv), Tv=R, Ph=Vh,
        Pv=[gam_dy[b] - Hv[b] for b in range(len(Hv))], S00=Vv - Vv)


def torsion_components_at(D: DConnectionCoeffs, N: NonlinearConnection,
                          A: AlgebroidData, xs, y) -> TorsionComponents:
    """The torsion block at a point, generic over Jets: the coefficients at
    the point and one derivative pass over Gamma."""
    coeffs = D.all_at(xs, y)
    Lv = A.L_at(xs)
    gam, gam_delta, gam_dy = adapted_derivatives(
        lambda jxs, jy: N.gamma_at(jxs, jy), xs, y, A, N)
    return _torsion(*coeffs, Lv, bracket_curvature(gam, gam_delta, Lv), gam_dy)


def torsion_components(D, N, A, pt: EPoint) -> TorsionComponents:
    return torsion_components_at(D, N, A, pt.x, pt.y)


# Rh and Rv for p, from the arguments of :func:`_rh_rv`: loops over (a, b,
# c) for Rh and over c for Rv, with the entries e of each row and the sums
# over t written out in the operand order of the comprehensions that the
# kernel replaced (the reference ``loop_rh_rv`` in ``tests/reference.py``):
#
#     Rh[a][b][c][e] = dH<e>[a][b][c] - dH<c>[a][b][e]
#         + (0 + (Hh[a][t][e] * Hh[t][b][c] - Hh[a][t][c] * Hh[t][b][e]) + ..)
#         + R[c][e] * Vh[a][b] + (0 + Lv[t][c][e] * Hh[a][b][t] + ..)
#     Rv[c][e] = dv<e>[c] - dv<c>[e] + Hv[e] * Hv[c] - Hv[c] * Hv[e]
#         + R[c][e] * Vv + (0 + Lv[t][c][e] * Hv[t] + ..)
#
# with dH<g> = delta[g][0] and dv<g> = delta[g][1].  Per (a, b, c) the
# names bound are A<t>_<e> = Hh[a][t][e], B<t> = Hh[a][b][t], C<t>_<e> =
# Hh[t][b][e], ac<t> = Hh[a][t][c], hc<t> = Hh[t][b][c], dab<e> =
# dH<e>[a][b], dc<e> = dH<c>[a][b][e], Rc<e> = R[c][e] and Lc<t>_<e> =
# Lv[t][c][e].
_RH_RV = KernelTemplate('''\
def rh_rv(Hh, Hv, Vh, Vv, delta, R, Lv):
    {H}, = Hh
    {L}, = Lv
    {hv}, = Hv
    dH = [d[0] for d in delta]
    {dv}, = dvs = [d[1] for d in delta]
    Rh = []
    for a in {R}:
        {Ha}, = Ha = Hh[a]
        {A}
        dHa = [d[a] for d in dH]
        Vha = Vh[a]
        Rha = []
        for b in {R}:
            {B}, = Ha[b]
            {C}
            {dab}, = dabs = [d[b] for d in dHa]
            vab = Vha[b]
            Rhab = []
            for c in {R}:
                {dc}, = dabs[c]
                {ac}
                {hc}
                {Rc}, = R[c]
                {Lc}
                Rhab.append([{rh}])
            Rha.append(Rhab)
        Rh.append(Rha)
    Rv = []
    for c in {R}:
        hvc = Hv[c]
        {dc}, = dvs[c]
        {Rc}, = R[c]
        {Lc}
        Rv.append([{rv}])
    return Rh, Rv
''')


@kernel(_RH_RV)
def _rh_rv_kernel(p):
    """The kernel of ``_RH_RV`` for p, generated on first use."""
    rp = range(p)
    return dict(
        R=repr(tuple(rp)), H=names("H{}", rp), L=names("L{}", rp),
        hv=names("hv{}", rp), dv=names("dv{}", rp), Ha=names("Ha{}", rp),
        B=names("B{}", rp), dab=names("dab{}", rp), dc=names("dc{}", rp),
        Rc=names("Rc{}", rp),
        A="; ".join(f"{rows('A{}_{}', [t], rp)} = Ha{t}" for t in rp),
        C="; ".join(f"T{t} = H{t}[b]; {rows('C{}_{}', [t], rp)} = T{t}"
                    for t in rp),
        Lc="; ".join(f"{rows('Lc{}_{}', [t], rp)} = L{t}[c]" for t in rp),
        ac="; ".join(f"ac{t} = Ha{t}[c]" for t in rp),
        hc="; ".join(f"hc{t} = T{t}[c]" for t in rp),
        rh=", ".join(
            f"dab{e}[c] - dc{e} + (0"
            + terms("(A{0}_{1} * hc{0} - ac{0} * C{0}_{1})", rp, [e])
            + f") + Rc{e} * vab + (0" + terms("Lc{0}_{1} * B{0}", rp, [e])
            + ")" for e in rp),
        rv=", ".join(
            f"dv{e}[c] - dc{e} + hv{e} * hvc - hvc * hv{e} + Rc{e} * Vv + (0"
            + terms("Lc{0}_{1} * hv{0}", rp, [e]) + ")" for e in rp))


def _rh_rv(Hh, Hv, Vh, Vv, delta, R, Lv):
    """The Rh and Rv families from the coefficients, the adapted
    derivatives ``delta[g][0]`` of hh and ``delta[g][1]`` of hv, the
    bracket curvature R and the bracket table, through one generated
    kernel per p."""
    return _rh_rv_kernel(len(Hv))(Hh, Hv, Vh, Vv, delta, R, Lv)


def curvature_components_at(D: DConnectionCoeffs, N: NonlinearConnection,
                            A: AlgebroidData, xs, y):
    """``(torsion, curvature)`` blocks at a point, generic over Jets.

    One joint differentiation pass over the four coefficient families and
    Gamma supplies every value and derivative both blocks need; its values
    are the coefficients at the point, bit for bit.
    """
    p = D.p
    vals, delta, ddy = adapted_derivatives(
        lambda jxs, jy: D.all_at(jxs, jy) + [N.gamma_at(jxs, jy)],
        xs, y, A, N)
    Hh, Hv, Vh, Vv, gam = vals
    dHh, dHv, dVh, dVv, gam_dy = ddy
    Lv = A.L_at(xs)
    R = bracket_curvature(gam, [d[4] for d in delta], Lv)
    Rh, Rv = _rh_rv(Hh, Hv, Vh, Vv, delta, R, Lv)
    Pc_h = [
        [
            [
                dHh[a][eps][c] - delta[c][2][a][eps]
                + functools.reduce(operator.add, (
                    Vh[a][t] * Hh[t][eps][c] - Hh[a][t][c] * Vh[t][eps]
                    for t in range(p)), 0)
                + gam_dy[c] * Vh[a][eps]
                for c in range(p)
            ]
            for eps in range(p)
        ]
        for a in range(p)
    ]
    Pc_v = [
        dHv[c] - delta[c][3] + Vv * Hv[c] - Hv[c] * Vv + gam_dy[c] * Vv
        for c in range(p)
    ]
    # The two families with a doubled vertical argument telescope to zero;
    # they are computed verbatim so the cancellation is exact in floats.
    Sh = [
        [
            dVh[a][b] - dVh[a][b]
            + functools.reduce(operator.add, (Vh[a][t] * Vh[t][b]
                                              - Vh[a][t] * Vh[t][b]
                                              for t in range(p)), 0)
            for b in range(p)
        ]
        for a in range(p)
    ]
    Sv = dVv - dVv + Vv * Vv - Vv * Vv
    return (_torsion(Hh, Hv, Vh, Vv, Lv, R, gam_dy),
            CurvatureComponents(Rh=Rh, Rv=Rv, Ph=Pc_h, Pv=Pc_v, Sh=Sh, Sv=Sv))


def curvature_components(D, N, A, pt: EPoint) -> CurvatureComponents:
    return curvature_components_at(D, N, A, pt.x, pt.y)[1]


def ricci(curv: CurvatureComponents) -> RicciTensor:
    """Contractions of the curvature families."""
    p = len(curv.Pv)
    Rab = [[functools.reduce(operator.add,
                             (curv.Rh[g][a][b][g] for g in range(p)), 0)
            for b in range(p)] for a in range(p)]
    Pa0 = [functools.reduce(operator.add,
                            (curv.Ph[b][a][b] for b in range(p)), 0)
           for a in range(p)]
    P0b = list(curv.Pv)
    return RicciTensor(Rab=Rab, Pa0=Pa0, P0b=P0b, S00=curv.Sv)


def scalar_curvature(ric: RicciTensor, G: MetricStructure, pt: EPoint) -> float:
    """Double contraction of the Ricci blocks with the inverse metric."""
    ginv = inverse_h(G, pt)
    p = G.p
    out = functools.reduce(operator.add, (
        ric.Rab[a][b] * ginv[a][b] for a in range(p) for b in range(p)), 0)
    g00 = G.g00_at(pt.x, pt.y)
    if g00 == 0.0:
        raise SingularMetricError("g00 vanishes", point=pt)
    return out + ric.S00 / g00


def energy_momentum(ric: RicciTensor, scalar: float, G: MetricStructure,
                    kappa: float, pt: EPoint) -> EnergyMomentum:
    """Source blocks solving the field equations: the horizontal block is
    (Ric - scalar/2 g)/kappa, the mixed blocks come from the P-contractions
    (note the sign flip on the h-0 block), and the vertical block is
    (S00 - scalar/2 g00)/kappa."""
    if kappa == 0.0:
        raise ValueError("kappa must be nonzero")
    p = G.p
    g = G.g_at(pt.x, pt.y)
    g00 = G.g00_at(pt.x, pt.y)
    Tab = [[(ric.Rab[a][b] - 0.5 * scalar * g[a][b]) / kappa for b in range(p)]
           for a in range(p)]
    Ta0 = [-ric.Pa0[a] / kappa for a in range(p)]
    T0b = [ric.P0b[b] / kappa for b in range(p)]
    T00 = (ric.S00 - 0.5 * scalar * g00) / kappa
    return EnergyMomentum(Tab=Tab, Ta0=Ta0, T0b=T0b, T00=T00, kappa=kappa)


# The definitions of :func:`frame_definitions` for p, from ``second[i][k]``
# = D_{e_i} e_k, ``second[i][n + n * j + k]`` = D_{e_i} D_{e_j} e_k (n =
# p + 1 frames) and the brackets ``br[x][y]``: the torsion u - w - z of
# every frame pair and the curvature u - w - z of every triple, with the
# components of each difference written out.  For curvature z is the
# contraction X^l D_{e_l} e_x along X = [e_y, e_z] (the loop of
# :func:`~kkgeom.dconnection.frame_contract`), (0.0 + b0 * e0_a + ... +
# bv * e<p>_a), e<l>_a being component a of D_{e_l} e_x.  The reference
# is ``loop_frames`` in ``tests/reference.py``.
_FRAMES = KernelTemplate('''\
def frames(second, br):
    torsion = []
    for x, (brx, sx) in enumerate(zip(br, second)):
        row = []
        for ({z}, zv), ({u}, uv), ({w}, wv) in zip(
                brx, sx, [s[x] for s in second]):
            row.append(([{torsion}], uv - wv - zv))
        torsion.append(row)
    curvature = []
    for x in {RN}:
        {e}
        plane = []
        for y, (sy, bry) in enumerate(zip(second, br)):
            row = []
            for z, ({b}, bv) in enumerate(bry):
                {u}, uv = sy[{n} + {n} * z + x]
                {w}, wv = second[z][{n} + {n} * y + x]
                row.append(([{curvature}], uv - wv - (0.0{contract_v})))
            plane.append(row)
        curvature.append(plane)
    return torsion, curvature
''')


@kernel(_FRAMES)
def _frames_kernel(p):
    """The kernel of ``_FRAMES`` for p, generated on first use."""
    rp, rn = range(p), range(p + 1)

    def contract(a):
        return terms("b{0} * e{0}_{1}", rp, [a]) + f" + bv * e{p}_{a}"

    return dict(
        RN=repr(tuple(rn)), n=p + 1, z=f"({names('z{}', rp)},)",
        u=f"({names('u{}', rp)},)", w=f"({names('w{}', rp)},)",
        b=f"({names('b{}', rp)},)",
        torsion=", ".join(f"u{a} - w{a} - z{a}" for a in rp),
        e="; ".join(f"({names('e{}_{}', [l], rp)},), e{l}_v = second[{l}][x]"
                    for l in rn),
        curvature=", ".join(f"u{a} - w{a} - (0.0{contract(a)})" for a in rp),
        contract_v=contract("v"))


def frame_definitions(D: DConnectionCoeffs, N: NonlinearConnection,
                      A: AlgebroidData, pt: EPoint):
    """Torsion and curvature of every frame pair and triple at pt, straight
    from the definitions.

    Frame index p is the vertical frame.  Returns ``(torsion, curvature)``
    with ``torsion[x][y] = D_{e_x} e_y - D_{e_y} e_x - [e_x, e_y]`` and
    ``curvature[x][y][z] = D_{e_y} D_{e_z} e_x - D_{e_z} D_{e_y} e_x
    - D_{[e_y, e_z]} e_x`` as ``(h_list, v)`` pairs.  Two nested
    :func:`frame_derivatives` passes give D_{e_j} e_k and D_{e_i} D_{e_j}
    e_k for all indices; brackets come from one :func:`bracket_pairs`
    evaluation over every frame pair; one generated kernel per p takes
    the differences.
    """
    p = D.p
    n = p + 1
    frames = [[[1.0 if a == k else 0.0 for a in range(p)],
               1.0 if k == p else 0.0] for k in range(n)]
    first_at = frame_derivatives(lambda xs, y: frames, A, N, D)
    # The frames ride along in the outer pass, so it returns D_{e_i} e_k
    # (at index k) next to D_{e_i} D_{e_j} e_k (at index n + n*j + k).
    second = frame_derivatives(
        lambda xs, y: frames + [w for row in first_at(xs, y) for w in row],
        A, N, D)(pt.x, pt.y)
    # the frames as vector fields, for every bracket pair
    fields = [lambda xs, y, f=f: f for f in frames]
    pairs = [(x, y) for x in range(n) for y in range(n)]
    flat = bracket_pairs(fields, pairs, A, N)(pt.x, pt.y)
    return _frames_kernel(p)(second, [flat[n * x:n * x + n]
                                      for x in range(n)])


class PointTables:
    """What the suites visiting one sample point share, each computed on
    first use: the coefficient set ``D`` bound to the point, and the
    torsion and curvature ``components``.

    The suites evaluate at the point and at its iterated ``seeded_point``
    seedings only, so one input per Jet depth reaches an evaluator here:
    each family of ``D``, and each evaluator wrapped by :meth:`per_depth`,
    runs once per depth.
    """

    def __init__(self, D: DConnectionCoeffs, N: NonlinearConnection,
                 A: AlgebroidData, pt: EPoint):
        self.pt = pt
        self.D = DConnectionCoeffs(D.p, *map(self.per_depth, (
            D.hh_at, D.hv_at, D.vh_at, D.vv_at)))
        self._args = (self.D, N, A, pt.x, pt.y)
        self._components = None

    def per_depth(self, fn):
        """``fn(xs, y)`` remembered per Jet nesting depth of ``y``.  A call
        at another point raises ValueError; a call that raises stores
        nothing.  Repeated calls return the same object: callers must not
        mutate it.  The first call with given point objects checks the
        point and finds its depth; a call with the very ``xs`` and ``y`` of
        an answered call (held here, so their ids stay theirs) is answered
        by that identity alone."""
        pt = self.pt
        memo, seen = {}, {}

        def at(xs, y):
            hit = seen.get(id(y))
            if hit is not None and hit[0] is xs:
                return hit[2]
            depth, y0 = 0, y
            while isinstance(y0, Jet):
                depth, y0 = depth + 1, y0.value
            if y0 != pt.y or tuple(map(primal, xs)) != pt.x:
                raise ValueError(f"evaluation at {tuple(map(primal, xs))}, "
                                 f"{y0} through the tables of {pt}")
            if depth not in memo:
                memo[depth] = fn(xs, y)
            if type(xs) is tuple:
                seen[id(y)] = (xs, y, memo[depth])
            return memo[depth]

        return at

    @property
    def components(self):
        """``(torsion, curvature)`` at the point, from one
        :func:`curvature_components_at` pass over ``D``."""
        if self._components is None:
            self._components = curvature_components_at(*self._args)
        return self._components


class OracleCheck:
    """Definition-vs-components equivalence over every frame pair/triple.

    At each sample point the definition side comes from
    :func:`frame_definitions` (two nested derivative passes, whatever p),
    which never uses the component formulas; each torsion and curvature
    family is compared with it entry by entry.  This is the load-bearing
    certification of the component formulas.  ``step(pt, tables)`` returns
    the largest residual at one point of each of its ``names``.
    """

    names = ("oracle.torsion", "oracle.curvature")

    def __init__(self, N: NonlinearConnection, A: AlgebroidData):
        self._args = (N, A)

    def step(self, pt: EPoint, tables: PointTables):
        tors, curv = tables.components
        T, C = frame_definitions(tables.D, *self._args, pt)
        return _oracle_point(tors, curv, T, C, len(tors.Pv))


def _oracle_point(tors, curv, T, C, p):
    """Compare each family with the definitions at one point.  A row is
    (the definition's ``(h, v)`` pair, the component h entries, the
    component v entry), with zeros for a part that must vanish; z is the
    vertical frame.  Returns the largest difference of the torsion rows
    and of the curvature rows (:func:`row_max`)."""
    r, z, zeros = range(p), p, [0.0] * p
    torsion = (
        [(T[c][b], [tors.Thh[a][b][c] for a in r], tors.Tv[b][c])
         for b in r for c in r]
        + [(T[z][b], [tors.Ph[a][b] for a in r], tors.Pv[b]) for b in r]
        + [(T[z][z], zeros, tors.S00)])
    # (X, Y, Z) = (frame b, frame e, frame c) for Rh
    curvature = (
        [(C[b][e][c], [curv.Rh[a][b][c][e] for a in r], 0.0)
         for b in r for c in r for e in r]
        + [(C[z][e][c], zeros, curv.Rv[c][e]) for c in r for e in r]
        + [(C[eps][z][c], [curv.Ph[a][eps][c] for a in r], 0.0)
           for eps in r for c in r]
        + [(C[z][z][c], zeros, curv.Pv[c]) for c in r]
        + [(C[b][z][z], [curv.Sh[a][b] for a in r], 0.0) for b in r]
        + [(C[z][z][z], zeros, curv.Sv)])
    worst = []
    for rows in (torsion, curvature):
        residuals = []
        for (h, v), comp_h, comp_v in rows:
            residuals += [h[a] - comp_h[a] for a in r]
            residuals.append(v - comp_v)
        worst.append(row_max(residuals))
    return worst


def default_test_vector(p: int, m: int):
    """Fixed test field for the commutation suite: h-components cycle
    through a small set of smooth expressions (restricted to the declared
    base dimension), vertical component x1*y0."""
    def source(a):
        if a == 0 and m >= 2:
            return "x2"
        if a <= 1:
            return "sin(x1)"
        i = (a % m) + 1
        return f"x{i}*y0" if a % 2 == 0 else f"cos(x{i})"

    return compile_expr(([parse(source(a), m) for a in range(p)],
                         parse("x1*y0", m)), "X, Y")


class RicciCommutationCheck:
    """Second-covariant-derivative commutation for the horizontal part of
    each test field Z (and, separately, its vertical component), checked
    against the curvature and torsion blocks:

        Z|c|b - Z|b|c         = Rh[.][.][c][b] Z + Thh[.][b][c] Z|. + Tv[b][c] Z|v
        (Z|c)|v - (Z|v)|c     = Pc_h[.][.][c] Z - Pv_t[c] Z|v - Ph_t[.][c] Z|.

    with the left sides from nested differentiation of the coefficients and
    the fields only (:func:`_commutation_values`).  ``step(pt, tables)``
    returns the largest residual at one point of each field, named
    ``ricci_commutation_k`` for the k-th field (from 1) in ``names``.
    """

    def __init__(self, fields, N: NonlinearConnection, A: AlgebroidData):
        self._fields = fields
        self._args = (N, A)
        self.names = [f"ricci_commutation_{k}"
                      for k in range(1, len(fields) + 1)]

    def step(self, pt: EPoint, tables: PointTables):
        tors, curv = tables.components
        values = _commutation_values(self._fields, tables.D, *self._args, pt)
        commutation = _commutation_kernel(len(tors.Pv))
        return [commutation(*Z(pt.x, pt.y), tensors, tors, curv)
                for Z, tensors in zip(self._fields, values)]


def _commutation_values(fields, D, N, A, pt):
    """Per field Z = (h, v), at pt: ``[A2, A1, B1, A1v, B1h, C2, C1, D1,
    C1v, D1h]`` with A1 = h(Z.h), A2 = h(A1), B1 = v(Z.h), A1v = v(A1),
    B1h = h(B1), and C, D the same for Z.v (h/v: horizontal/vertical
    covariant derivative).  An inner pass at the seeded point gives A1, B1,
    C1 and D1 of every field; the outer pass their values and derivatives."""
    def first_at(xs, y):
        vals, delta, ddy = adapted_derivatives(
            lambda jxs, jy: [[list(h), v] for h, v in
                             (Z(jxs, jy) for Z in fields)],
            xs, y, A, N)
        Hh, Hv, Vh, Vv = D.all_at(xs, y)
        return [[h_cov_values(h, [d[k][0] for d in delta], 1, 0, 0, Hh, Hv),
                 v_cov_values(h, ddy[k][0], 1, 0, 0, Vh, Vv),
                 h_cov_values(v, [d[k][1] for d in delta], 0, 0, 1, Hh, Hv),
                 v_cov_values(v, ddy[k][1], 0, 0, 1, Vh, Vv)]
                for k, (h, v) in enumerate(vals)]

    vals, delta, ddy = adapted_derivatives(first_at, pt.x, pt.y, A, N)
    Hh, Hv, Vh, Vv = D.all_at(pt.x, pt.y)
    out = []
    for k, (a1, b1, c1, d1) in enumerate(vals):
        dk = [d[k] for d in delta]
        out.append([
            h_cov_values(a1, [d[0] for d in dk], 1, 1, 0, Hh, Hv), a1, b1,
            v_cov_values(a1, ddy[k][0], 1, 1, 0, Vh, Vv),
            h_cov_values(b1, [d[1] for d in dk], 1, 0, -1, Hh, Hv),
            h_cov_values(c1, [d[2] for d in dk], 0, 1, 1, Hh, Hv), c1, d1,
            v_cov_values(c1, ddy[k][2], 0, 1, 1, Vh, Vv),
            h_cov_values(d1, [d[3] for d in dk], 0, 0, 0, Hh, Hv)])
    return out


# The residuals of one field Z = (Zh, Yv) at a point, scanned in the order
# of the loops that the kernel replaced (the reference ``loop_commutation``
# in ``tests/reference.py``), their largest returned: per
# (al, c, b)
#
#     a2[al][c][b] - a2[al][b][c] - ((0 + Rh[al][t][c][b] * Zh[t] + ..)
#         + (0 + Thh[t][b][c] * a1[al][t] + ..) + Tv[b][c] * b1[al])
#
# then per (al, c), (c, b) and c the other three, with the sums over t
# written out.  The names bound are Z<t> = Zh[t], T<t> = Thh[t], P<t> =
# tors.Ph[t], A<t> = a1[al][t], C<t> = c1[t], Rh<t> = Rh[al][t], Rhc<t> =
# Rh[al][t][c] and Ph<t> = curv.Ph[al][t].
_COMMUTATION = KernelTemplate('''\
def commutation(Zh, Yv, tensors, tors, curv):
    a2, a1, b1, a1v, b1h, c2, c1, d1, c1v, d1h = tensors
    Tv, Pvt = tors.Tv, tors.Pv
    {Z}, = Zh
    {T}, = tors.Thh
    {P}, = tors.Ph
    worst = 0.0
    for al in {R}:
        a2al = a2[al]; b1al = b1[al]
        {A}, = a1[al]
        {Rh}, = curv.Rh[al]
        {Ph}, = curv.Ph[al]
        for c in {R}:
            a2alc = a2al[c]; {Rhc}
            for b in {R}:
                lhs = a2alc[b] - a2al[b][c]
                r = abs(lhs - ((0{rz}) + (0{ta}) + Tv[b][c] * b1al))
                if r >= worst or r != r:
                    worst = r
        a1val = a1v[al]; b1hal = b1h[al]
        for c in {R}:
            lhs = a1val[c] - b1hal[c]
            r = abs(lhs - ((0{pz}) - Pvt[c] * b1al - (0{pa})))
            if r >= worst or r != r:
                worst = r
    {C}, = c1
    Rv, Pcv = curv.Rv, curv.Pv
    for c in {R}:
        c2c = c2[c]; Rvc = Rv[c]
        for b in {R}:
            lhs = c2c[b] - c2[b][c]
            r = abs(lhs - (Rvc[b] * Yv + (0{tc}) + Tv[b][c] * d1))
            if r >= worst or r != r:
                worst = r
        lhs = c1v[c] - d1h[c]
        r = abs(lhs - (Pcv[c] * Yv - Pvt[c] * d1 - (0{pc})))
        if r >= worst or r != r:
            worst = r
    return worst
''')


@kernel(_COMMUTATION)
def _commutation_kernel(p):
    """The kernel of ``_COMMUTATION`` for p, generated on first use."""
    rp = range(p)
    return dict(
        R=repr(tuple(rp)), Z=names("Z{}", rp), T=names("T{}", rp),
        P=names("P{}", rp), A=names("A{}", rp), Rh=names("Rh{}", rp),
        Ph=names("Ph{}", rp), C=names("C{}", rp),
        Rhc="; ".join(f"Rhc{t} = Rh{t}[c]" for t in rp),
        rz=terms("Rhc{0}[b] * Z{0}", rp), ta=terms("T{0}[b][c] * A{0}", rp),
        pz=terms("Ph{0}[c] * Z{0}", rp), pa=terms("P{0}[c] * A{0}", rp),
        tc=terms("T{0}[b][c] * C{0}", rp), pc=terms("P{0}[c] * C{0}", rp))


class BianchiCheck:
    """Cyclic component identities tying torsion, curvature and their
    covariant derivatives.  First family (cyclic over three horizontal frame
    slots, both output blocks) and second family (cyclic over the three
    direction slots with the vector slot fixed).  Valid data makes all four
    residuals vanish; any persistent nonzero indicates a formula error and
    is reported, never absorbed.  ``step(pt, tables)`` returns the largest
    residual at one point of each of its ``names``.
    """

    names = ("bianchi1_h", "bianchi1_v", "bianchi2_h", "bianchi2_v")

    def __init__(self, N: NonlinearConnection, A: AlgebroidData):
        self._N, self._A = N, A

    def step(self, pt: EPoint, tables: PointTables):
        tors, curv = tables.components
        return _bianchi_kernel(len(tors.Pv))(
            tors, curv, *_bianchi_values(tables.D, self._N, self._A, pt))


# The four cyclic sums at a point, scanned in the order of the loops that
# the kernel replaced (the reference ``loop_bianchi`` in
# ``tests/reference.py``), the largest of each family returned, in the
# order 1h, 1v, 2h, 2v.  Each sum is written out over its three cyclic
# terms (x, yy, z), each term in the order of the accumulating loop from
# 0.0; the first family, per (b, c, d) and then al,
#
#     0.0 + (Rh[al][z][yy][x] - dThh[al][z][yy][x])
#         - (0 + Thh[0][yy][x] * Thh[al][z][0] + ..) - Tv[yy][x] * Ph[al][z]
#         + ...   (the next two cyclic terms)
#
# and the second the same way with + and dRh, Rh[al][be], Pc_h[al][be].
# s<k>_<t> = Thh[t][yy][x] and tv<k> = Tv[yy][x] for the k-th cyclic term
# do not depend on al (or be).
_BIANCHI = KernelTemplate('''\
def bianchi(tors, curv, dThh, dTv, dRh, dRv):
    Thh, Tv, Pvt = tors.Thh, tors.Tv, tors.Pv
    Rv, Pcv = curv.Rv, curv.Pv
    {T}, = Thh
    first = list(zip(curv.Rh, dThh, Thh, tors.Ph))
    worst_1h = worst_1v = worst_2h = worst_2v = 0.0
    for b in {R}:
        for c in {R}:
            for d in {R}:
                {s1}
                tv0 = Tv[c][b]; tv1 = Tv[d][c]; tv2 = Tv[b][d]
                for Ral, dal, Tal, Pal in first:
                    r = abs(0.0 + (Ral[d][c][b] - dal[d][c][b]) - (0{t0})
                            - tv0 * Pal[d] + (Ral[b][d][c] - dal[b][d][c])
                            - (0{t1}) - tv1 * Pal[b]
                            + (Ral[c][b][d] - dal[c][b][d]) - (0{t2})
                            - tv2 * Pal[c])
                    if r >= worst_1h or r != r:
                        worst_1h = r
                r = abs(0.0 - dTv[d][c][b] - (0{v0}) - tv0 * Pvt[d]
                        - dTv[b][d][c] - (0{v1}) - tv1 * Pvt[b]
                        - dTv[c][b][d] - (0{v2}) - tv2 * Pvt[c])
                if r >= worst_1v or r != r:
                    worst_1v = r
    for be in {R}:
        second = [(dR[be], Rr[be], Pc[be])
                  for dR, Rr, Pc in zip(dRh, curv.Rh, curv.Ph)]
        for c in {R}:
            for t in {R}:
                for l in {R}:
                    {s2}
                    tv0 = Tv[t][l]; tv1 = Tv[c][t]; tv2 = Tv[l][c]
                    for dR, Rr, Pc in second:
                        r = abs(0.0 + dR[c][t][l] + (0{r0}) + tv0 * Pc[c]
                                + dR[l][c][t] + (0{r1}) + tv1 * Pc[l]
                                + dR[t][l][c] + (0{r2}) + tv2 * Pc[t])
                        if r >= worst_2h or r != r:
                            worst_2h = r
    for c in {R}:
        for t in {R}:
            for l in {R}:
                {s2}
                tv0 = Tv[t][l]; tv1 = Tv[c][t]; tv2 = Tv[l][c]
                r = abs(0.0 + dRv[c][t][l] + (0{w0}) + tv0 * Pcv[c]
                        + dRv[l][c][t] + (0{w1}) + tv1 * Pcv[l]
                        + dRv[t][l][c] + (0{w2}) + tv2 * Pcv[t])
                if r >= worst_2v or r != r:
                    worst_2v = r
    return worst_1h, worst_1v, worst_2h, worst_2v
''')


@kernel(_BIANCHI)
def _bianchi_kernel(p):
    """The kernel of ``_BIANCHI`` for p, generated on first use."""
    rp = range(p)

    def bind(pairs):
        # s<k>_<t> = Thh[t][yy][x] for the cyclic terms' (yy, x) pairs
        return "; ".join(f"s{k}_{t} = T{t}[{yy}][{x}]"
                         for k, (yy, x) in enumerate(pairs) for t in rp)

    return dict(
        R=repr(tuple(rp)), T=names("T{}", rp),
        s1=bind([("c", "b"), ("d", "c"), ("b", "d")]),
        s2=bind([("t", "l"), ("c", "t"), ("l", "c")]),
        t0=terms("s0_{0} * Tal[d][{0}]", rp),
        t1=terms("s1_{0} * Tal[b][{0}]", rp),
        t2=terms("s2_{0} * Tal[c][{0}]", rp),
        v0=terms("s0_{0} * Tv[d][{0}]", rp),
        v1=terms("s1_{0} * Tv[b][{0}]", rp),
        v2=terms("s2_{0} * Tv[c][{0}]", rp),
        r0=terms("s0_{0} * Rr[c][{0}]", rp),
        r1=terms("s1_{0} * Rr[l][{0}]", rp),
        r2=terms("s2_{0} * Rr[t][{0}]", rp),
        w0=terms("s0_{0} * Rv[c][{0}]", rp),
        w1=terms("s1_{0} * Rv[l][{0}]", rp),
        w2=terms("s2_{0} * Rv[t][{0}]", rp))


def _bianchi_values(D, N, A, pt):
    """The horizontal covariant derivatives of Thh, Tv, Rh and Rv at pt,
    from one derivative pass over the four.  At its seeded point, one pass
    over hh, hv and Gamma gives Thh, Tv = R, Rh and Rv, which read vh and
    vv there."""
    def tensors_at(xs, y):
        (Hh, Hv, gam), delta, _ = adapted_derivatives(
            lambda jxs, jy: [D.hh_at(jxs, jy), D.hv_at(jxs, jy),
                             N.gamma_at(jxs, jy)], xs, y, A, N)
        Lv = A.L_at(xs)
        R = bracket_curvature(gam, [d[2] for d in delta], Lv)
        Rh, Rv = _rh_rv(Hh, Hv, D.vh_at(xs, y), D.vv_at(xs, y), delta, R, Lv)
        return [_thh(Hh, Lv), R, Rh, Rv]

    vals, delta, _ = adapted_derivatives(tensors_at, pt.x, pt.y, A, N)
    Hh, Hv = D.hh_at(pt.x, pt.y), D.hv_at(pt.x, pt.y)
    # valences (rh, sh, rv - sv) of Thh, Tv, Rh, Rv
    return [h_cov_values(vals[k], [d[k] for d in delta], rh, sh, w, Hh, Hv)
            for k, (rh, sh, w) in enumerate(
                ((1, 2, 0), (0, 2, 1), (1, 3, 0), (0, 2, 0)))]
