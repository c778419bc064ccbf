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
"""

from __future__ import annotations

from .algebroid import AlgebroidData
from .calculus import EPoint, Jet, primal
from .dconnection import (
    DConnectionCoeffs,
    bracket_pairs,
    frame_contract,
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
from .report import ResidualTracker

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


def _rh_rv(Hh, Hv, Vh, Vv, delta, R, Lv):
    """The Rh and Rv families from the coefficients, the adapted
    derivatives ``delta[g][0]`` of hh and ``delta[g][1]`` of hv, the
    bracket curvature R and the bracket table."""
    p = len(Hv)
    Rh = [
        [
            [
                [
                    delta[e][0][a][b][c] - delta[c][0][a][b][e]
                    + sum(Hh[a][t][e] * Hh[t][b][c] - Hh[a][t][c] * Hh[t][b][e]
                          for t in range(p))
                    + R[c][e] * Vh[a][b]
                    + sum(Lv[t][c][e] * Hh[a][b][t] for t in range(p))
                    for e in range(p)
                ]
                for c in range(p)
            ]
            for b in range(p)
        ]
        for a in range(p)
    ]
    Rv = [
        [
            delta[e][1][c] - delta[c][1][e]
            + Hv[e] * Hv[c] - Hv[c] * Hv[e]
            + R[c][e] * Vv
            + sum(Lv[t][c][e] * Hv[t] for t in range(p))
            for e in range(p)
        ]
        for c in range(p)
    ]
    return Rh, Rv


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
                + sum(Vh[a][t] * Hh[t][eps][c] - Hh[a][t][c] * Vh[t][eps]
                      for t in range(p))
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
            + sum(Vh[a][t] * Vh[t][b] - Vh[a][t] * Vh[t][b] for t in range(p))
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
    Rab = [[sum(curv.Rh[g][a][b][g] for g in range(p)) for b in range(p)]
           for a in range(p)]
    Pa0 = [sum(curv.Ph[b][a][b] for b in range(p)) for a in range(p)]
    P0b = list(curv.Pv)
    return RicciTensor(Rab=Rab, Pa0=Pa0, P0b=P0b, S00=curv.Sv)


def scalar_curvature(ric: RicciTensor, G: MetricStructure, pt: EPoint) -> float:
    """Double contraction of the Ricci blocks with the inverse metric."""
    ginv = inverse_h(G, pt)
    p = G.p
    out = sum(ric.Rab[a][b] * ginv[a][b] for a in range(p) for b in range(p))
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
    evaluation over every frame pair.
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
    br = [flat[n * x:n * x + n] for x in range(n)]

    def dd(i, j, k):
        return second[i][n + n * j + k]

    def diff3(u, w, z):
        return ([u[0][a] - w[0][a] - z[0][a] for a in range(p)],
                u[1] - w[1] - z[1])

    torsion = [[diff3(second[x][y], second[y][x], br[x][y])
                for y in range(n)] for x in range(n)]
    curvature = [
        [
            [
                diff3(dd(y, z, x), dd(z, y, x),
                      frame_contract(list(br[y][z][0]) + [br[y][z][1]],
                                     [second[l][x] for l in range(n)]))
                for z in range(n)
            ]
            for y in range(n)
        ]
        for x in range(n)
    ]
    return torsion, curvature


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
        mutate it."""
        pt = self.pt
        memo = {}

        def at(xs, y):
            depth, y0 = 0, y
            while isinstance(y0, Jet):
                depth, y0 = depth + 1, y0.value
            if y0 != pt.y or tuple(map(primal, xs)) != pt.x:
                raise ValueError(f"evaluation at {tuple(map(primal, xs))}, "
                                 f"{y0} through the tables of {pt}")
            if depth not in memo:
                memo[depth] = fn(xs, y)
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
    certification of the component formulas.  ``step(pt, tables)`` checks
    one point; ``trackers`` are its two checks (torsion, curvature).
    """

    def __init__(self, N: NonlinearConnection, A: AlgebroidData, tol: float):
        self._args = (N, A)
        self.trackers = [ResidualTracker("oracle.torsion", tol),
                         ResidualTracker("oracle.curvature", tol)]

    def step(self, pt: EPoint, tables: PointTables):
        tors, curv = tables.components
        T, C = frame_definitions(tables.D, *self._args, pt)
        _oracle_point(tors, curv, T, C, pt, len(tors.Pv), *self.trackers)


def _oracle_point(tors, curv, T, C, pt, p, t_tracker, c_tracker):
    """Compare each family with the definitions at pt.  A row is (the
    definition's ``(h, v)`` pair, the component h entries, the component v
    entry), with zeros for a part that must vanish; z is the vertical
    frame."""
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
    for tracker, rows in ((t_tracker, torsion), (c_tracker, curvature)):
        for (h, v), comp_h, comp_v in rows:
            for a in r:
                tracker.update(h[a] - comp_h[a], pt)
            tracker.update(v - comp_v, pt)


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
    checks every field at one point; ``trackers`` has one check per
    field, ``ricci_commutation_k`` for the k-th field (from 1).
    """

    def __init__(self, fields, N: NonlinearConnection, A: AlgebroidData,
                 tol: float):
        self._fields = fields
        self._args = (N, A)
        self.trackers = [ResidualTracker(f"ricci_commutation_{k}", tol)
                         for k in range(1, len(fields) + 1)]

    def step(self, pt: EPoint, tables: PointTables):
        tors, curv = tables.components
        values = _commutation_values(self._fields, tables.D, *self._args, pt)
        for Z, tensors, tracker in zip(self._fields, values, self.trackers):
            _commutation_point(Z, tensors, tors, curv, pt, tracker)


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


def _commutation_point(Z, tensors, tors, curv, pt, tracker):
    p = len(tors.Pv)
    Zh, Yv = Z(pt.x, pt.y)
    a2, a1, b1, a1v, b1h, c2, c1, d1, c1v, d1h = tensors
    for al in range(p):
        for c in range(p):
            for b in range(p):
                lhs = a2[al][c][b] - a2[al][b][c]
                rhs = sum(curv.Rh[al][t][c][b] * Zh[t] for t in range(p))
                rhs += sum(tors.Thh[t][b][c] * a1[al][t] for t in range(p))
                rhs += tors.Tv[b][c] * b1[al]
                tracker.update(lhs - rhs, pt)
        for c in range(p):
            lhs = a1v[al][c] - b1h[al][c]
            rhs = sum(curv.Ph[al][t][c] * Zh[t] for t in range(p))
            rhs -= tors.Pv[c] * b1[al]
            rhs -= sum(tors.Ph[t][c] * a1[al][t] for t in range(p))
            tracker.update(lhs - rhs, pt)
    for c in range(p):
        for b in range(p):
            lhs = c2[c][b] - c2[b][c]
            rhs = curv.Rv[c][b] * Yv
            rhs += sum(tors.Thh[t][b][c] * c1[t] for t in range(p))
            rhs += tors.Tv[b][c] * d1
            tracker.update(lhs - rhs, pt)
        lhs = c1v[c] - d1h[c]
        rhs = curv.Pv[c] * Yv
        rhs -= tors.Pv[c] * d1
        rhs -= sum(tors.Ph[t][c] * c1[t] for t in range(p))
        tracker.update(lhs - rhs, pt)


class BianchiCheck:
    """Cyclic component identities tying torsion, curvature and their
    covariant derivatives.  First family (cyclic over three horizontal frame
    slots, both output blocks) and second family (cyclic over the three
    direction slots with the vector slot fixed).  Valid data makes all four
    residuals vanish; any persistent nonzero indicates a formula error and
    is reported, never absorbed.  ``step(pt, tables)`` checks one point;
    ``trackers`` are its four checks.
    """

    def __init__(self, N: NonlinearConnection, A: AlgebroidData, tol: float):
        self._N, self._A = N, A
        self.trackers = [ResidualTracker(name, tol) for name in (
            "bianchi1_h", "bianchi1_v", "bianchi2_h", "bianchi2_v")]

    def step(self, pt: EPoint, tables: PointTables):
        tors, curv = tables.components
        t1h, t1v, t2h, t2v = self.trackers
        Thh, Tv = tors.Thh, tors.Tv
        Pht, Pvt = tors.Ph, tors.Pv
        Rh, Rv = curv.Rh, curv.Rv
        Pch, Pcv = curv.Ph, curv.Pv
        p = len(Pvt)
        dThh, dTv, dRh, dRv = _bianchi_values(tables.D, self._N, self._A, pt)

        for b in range(p):
            for c in range(p):
                for d in range(p):
                    cyc = [(b, c, d), (c, d, b), (d, b, c)]
                    for al in range(p):
                        acc = 0.0
                        for (x, yy, z) in cyc:
                            acc += Rh[al][z][yy][x] - dThh[al][z][yy][x]
                            acc -= sum(Thh[lam][yy][x] * Thh[al][z][lam]
                                       for lam in range(p))
                            acc -= Tv[yy][x] * Pht[al][z]
                        t1h.update(acc, pt)
                    acc = 0.0
                    for (x, yy, z) in cyc:
                        acc -= dTv[z][yy][x]
                        acc -= sum(Thh[lam][yy][x] * Tv[z][lam]
                                   for lam in range(p))
                        acc -= Tv[yy][x] * Pvt[z]
                    t1v.update(acc, pt)

        for be in range(p):
            for c in range(p):
                for t in range(p):
                    for l in range(p):
                        cyc = [(l, t, c), (t, c, l), (c, l, t)]
                        for al in range(p):
                            acc = 0.0
                            for (x, yy, z) in cyc:
                                acc += dRh[al][be][z][yy][x]
                                acc += sum(Thh[mu][yy][x] * Rh[al][be][z][mu]
                                           for mu in range(p))
                                acc += Tv[yy][x] * Pch[al][be][z]
                            t2h.update(acc, pt)
        for c in range(p):
            for t in range(p):
                for l in range(p):
                    cyc = [(l, t, c), (t, c, l), (c, l, t)]
                    acc = 0.0
                    for (x, yy, z) in cyc:
                        acc += dRv[z][yy][x]
                        acc += sum(Thh[mu][yy][x] * Rv[z][mu] for mu in range(p))
                        acc += Tv[yy][x] * Pcv[z]
                    t2v.update(acc, pt)


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
