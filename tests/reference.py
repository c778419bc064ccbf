"""Reference code for the tests, kept out of the package because no
command runs it: nested covariant derivatives of a block tensor, exact and
finite-difference partials of one field, the torsion and curvature of
single vector fields straight from their definitions, a printer for
parsed expressions, and the per-entry loops that the generated kernels
replaced: the adapted-derivative split, the Leibniz rule (over flattened
blocks, through ``_flat`` and ``_nested``), the matrix inverse, the
Koszul formula and the vh rings of the metric connection, the oracle's
brackets, frame derivatives and differences, the Rh/Rv formula,
the commutation and Bianchi contractions, the anchor and Jacobi sums of
the validators, the transformation suite's primed-chart tables and
change laws, the self-check of a float metric inverse, and a lift's RK4
step and right sides; the residual checks as they fed their trackers,
one ``update`` per entry (the anchor, Jacobi, commutation, Bianchi and
change-law loops, and the antisymmetry, ``g_symmetry``, compatibility
and oracle rows), where the package returns one scanned value per check
and point (:func:`scanned` turns such a loop into a function that does
the same); and the fully recursive JSON emitter that
``report.emit_json`` replaced.  The engine's batched and generated kernels
are compared against these, the emitter against the recursive one, and the
parser against the printer."""

import itertools
import json
from itertools import repeat

from kkgeom.calculus import Jet, jdx, jdy, jval, primal, seeded_point
from kkgeom.dconnection import (
    bracket_d_vectors,
    cov_deriv_along,
    frame_contract,
    h_cov_values,
    v_cov_values,
)
from kkgeom.exprlang import BinOp, Call, Neg, Num, Var
from kkgeom import metric
from kkgeom.metric import SingularMetricError
from kkgeom.nlconnection import adapted_derivatives
from kkgeom.report import _SCALARS, ResidualTracker, _scalar


def cov_deriv(values_at, valence, steps, A, N, D):
    """The covariant derivatives ``steps`` ('h' horizontal, 'v' vertical,
    applied left to right) of the block tensor with evaluator ``values_at``
    and valence ``(rh, sh, w)``: rh contravariant and sh covariant
    horizontal slots, vertical weight w = rv - sv.  Each step is one
    ``adapted_derivatives`` pass and ``h_cov_values`` (the direction slot
    appended last) or ``v_cov_values`` (one more covariant vertical slot)."""
    rh, sh, w = valence
    for kind in steps:
        values_at = _cov_step(values_at, kind, rh, sh, w, A, N, D)
        sh, w = (sh + 1, w) if kind == "h" else (sh, w - 1)
    return values_at


def _cov_step(values_at, kind, rh, sh, w, A, N, D):
    def at(xs, y):
        vals, delta, ddy = adapted_derivatives(values_at, xs, y, A, N)
        if kind == "h":
            return h_cov_values(vals, delta, rh, sh, w,
                                D.hh_at(xs, y), D.hv_at(xs, y))
        return v_cov_values(vals, ddy, rh, sh, w,
                            D.vh_at(xs, y), D.vv_at(xs, y))
    return at


def partial(f, pt, direction):
    """Exact partial df/dx_i (direction i = 1..m) or df/dy0 (direction
    'v') at pt, from one seeded evaluation."""
    out = f(*seeded_point(pt.x, pt.y))
    if direction == "v":
        return primal(jdy(out))
    return primal(jdx(out, int(direction) - 1))


def fd_partial(f, pt, direction, h=1e-5):
    """Central finite difference (f(pt + h e) - f(pt - h e)) / 2h: the slow,
    independent cross-check for :func:`partial`."""
    if h <= 0.0:
        raise ValueError("step h must be positive")

    def at(step):
        if direction == "v":
            return primal(f(pt.x, pt.y + step))
        xs = list(pt.x)
        xs[int(direction) - 1] += step
        return primal(f(tuple(xs), pt.y))

    return (at(h) - at(-h)) / (2.0 * h)


def _floats(W, pt):
    h, v = W(pt.x, pt.y)
    return [primal(w) for w in h], primal(v)


def _difference(t1, t2, t3, pt):
    (h1, v1), (h2, v2), (h3, v3) = (_floats(t, pt) for t in (t1, t2, t3))
    return [a - b - c for a, b, c in zip(h1, h2, h3)], v1 - v2 - v3


def torsion_from_definition(X, Y, D, N, A, pt):
    """D_X Y - D_Y X - [X, Y] at pt, straight from the definitions."""
    return _difference(cov_deriv_along(X, Y, A, N, D),
                       cov_deriv_along(Y, X, A, N, D),
                       bracket_d_vectors(X, Y, A, N), pt)


def curvature_from_definition(X, Y, Z, D, N, A, pt):
    """D_Y(D_Z X) - D_Z(D_Y X) - D_{[Y,Z]} X at pt (the curvature acting on
    X along the pair (Y, Z)), with the bracket from the oracle formula."""
    return _difference(
        cov_deriv_along(Y, cov_deriv_along(Z, X, A, N, D), A, N, D),
        cov_deriv_along(Z, cov_deriv_along(Y, X, A, N, D), A, N, D),
        cov_deriv_along(bracket_d_vectors(Y, Z, A, N), X, A, N, D), pt)


def _sum(terms):
    """``sum(terms)`` written out as Python 3.11's ``sum`` adds: from the
    integer 0, left to right (3.12's compensates float sums, so the
    references do not call it)."""
    acc = 0
    for term in terms:
        acc = acc + term
    return acc


def _dot(row, col):
    """``sum(map(mul, row, col))``, through :func:`_sum`."""
    return _sum(a * b for a, b in zip(row, col))


def loop_split(node, pairs, zeros):
    """The per-leaf walk that the generated split of
    ``nlconnection.adapted_derivatives`` replaced: (values, [delta_g structure for each g], ddy) of ``node``,
    with ``pairs`` the (rho[g], Gamma[g]) pairs and ``zeros`` the m
    partials of a float leaf; each delta is ``dot(rho[g], dx) - Gamma[g] *
    dy``."""
    if isinstance(node, list):
        vals, ddy = [], []
        deltas = [[] for _ in pairs]
        for sub in node:
            v, d, dy = loop_split(sub, pairs, zeros)
            vals.append(v)
            ddy.append(dy)
            for acc, dg in zip(deltas, d):
                acc.append(dg)
        return vals, deltas, ddy
    if isinstance(node, Jet):
        v, dx, dy = node.value, node.dx, node.dy
    else:
        v, dx, dy = node, zeros, 0.0
    return v, [_dot(r, dx) - g * dy for r, g in pairs], dy


def loop_adapted_derivatives(array_fn, xs, y, A, N):
    """``nlconnection.adapted_derivatives`` through :func:`loop_split`."""
    rho = A.rho_at(xs)
    gam = N.gamma_at(xs, y)
    out = array_fn(*seeded_point(xs, y))
    return loop_split(out, tuple(zip(rho, gam)), (0.0,) * A.m)


def _flat(node, rank):
    """The leaves of a nested list of depth ``rank``, in index order: the
    layout that :func:`loop_leibniz` walks (the package's kernel indexes
    the nested lists)."""
    flat = [node]
    for _ in range(rank):
        flat = [v for sub in flat for v in sub]
    return flat


def _nested(flat, p, rank):
    """Inverse of :func:`_flat`."""
    for _ in range(rank):
        flat = [flat[i:i + p] for i in range(0, len(flat), p)]
    return flat[0]


def loop_leibniz(base, flat, rh, rank, up, down, vweight, vcoeff):
    """The product-and-slice loop that the Leibniz kernels of
    ``dconnection`` replaced: ``base`` plus, per slot k of the tensor with
    leaves ``flat``, ``+ dot(up[i_k], T[.., :, ..])`` (the first ``rh``
    slots) or ``- dot(down[i_k], T[.., :, ..])``, then ``+ vweight *
    vcoeff * T``."""
    p = len(up)
    out = []
    for i, idx in enumerate(itertools.product(range(p), repeat=rank)):
        acc = base[i]
        for k, ik in enumerate(idx):
            st = p ** (rank - 1 - k)
            terms = flat[i - ik * st:i + (p - ik) * st:st]
            if k < rh:
                acc = acc + _dot(up[ik], terms)
            else:
                acc = acc - _dot(down[ik], terms)
        if vweight:
            acc = acc + vweight * vcoeff * flat[i]
        out.append(acc)
    return out


def loop_h_cov_values(vals, delta, rh, sh, vweight, Hh, Hv):
    """``dconnection.h_cov_values`` as it was: one :func:`loop_leibniz`
    per direction g, over the coefficient matrices Hh[a][th][g] and
    Hh[th][b][g] built for it."""
    p, rank = len(Hv), rh + sh
    flat = _flat(vals, rank)
    rp = range(p)
    per_g = [loop_leibniz(_flat(delta[g], rank), flat, rh, rank,
                          [[Hh[a][th][g] for th in rp] for a in rp],
                          [[Hh[th][b][g] for th in rp] for b in rp],
                          vweight, Hv[g]) for g in rp]
    return _nested([v for row in zip(*per_g) for v in row], p, rank + 1)


def loop_v_cov_values(vals, ddy, rh, sh, vweight, Vh, Vv):
    """``dconnection.v_cov_values`` as it was, through
    :func:`loop_leibniz`."""
    rank = rh + sh
    return _nested(loop_leibniz(_flat(ddy, rank), _flat(vals, rank), rh,
                                rank, Vh, list(zip(*Vh)), vweight, Vv),
                   len(Vh), rank)


def loop_matrix_inverse(mat):
    """The Gauss-Jordan loop that ``metric``'s inverse kernel replaced:
    partial pivoting on the underlying float values, every division and
    elimination over all 2n columns of [mat | I]."""
    n = len(mat)
    aug = [list(row) + [1.0 if i == j else 0.0 for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        pivot_row = max(range(col, n), key=lambda r: abs(primal(aug[r][col])))
        pivot = aug[pivot_row][col]
        if abs(primal(pivot)) < 1e-300:
            raise SingularMetricError(
                f"singular matrix (pivot {primal(pivot):.3e} in column {col})")
        aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        pivot = aug[col][col]
        aug[col] = [v / pivot for v in aug[col]]
        for r in range(n):
            if r != col:
                factor = aug[r][col]
                if primal(factor) != 0.0:
                    aug[r] = [v - factor * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def loop_vh(g_dy, ginv):
    """The contraction of ``metric_dconnection``'s vh that the vh kernel
    replaced: half the fiber derivatives of g, raised by its inverse."""
    p = len(g_dy)
    out = [[None] * p for _ in range(p)]
    for a in range(p):
        for b in range(p):
            acc = 0.0
            for gi, dy in zip(ginv[a], g_dy[b]):
                acc = acc + gi * dy
            out[a][b] = 0.5 * acc
    return out


def loop_koszul(g_vals, g_delta, ginv, Lv):
    """The sums of ``metric_dconnection``'s hh that the Koszul kernel
    replaced: per (b, c) the terms t_e, each with its bracket sum over th,
    then hh[a][b][c] = 0.5 * dot(ginv[a], t) from 0.0."""
    rp = range(len(g_vals))
    out = [[[None] * len(rp) for _ in rp] for _ in rp]
    for b in rp:
        for c in rp:
            terms = []
            for e in rp:
                bracket = 0
                for th in rp:
                    bracket = bracket + (g_vals[th][e] * Lv[th][c][b]
                                         - g_vals[b][th] * Lv[th][c][e]
                                         - g_vals[th][c] * Lv[th][b][e])
                terms.append(g_delta[c][e][b] + g_delta[b][e][c]
                             - g_delta[e][b][c] + bracket)
            for a in rp:
                acc = 0.0
                for gi, term in zip(ginv[a], terms):
                    acc = acc + gi * term
                out[a][b][c] = 0.5 * acc
    return out



def loop_bracket(rho, Lv, gam, nat, pairs):
    """The pair loop of ``dconnection.bracket_pairs`` that the bracket
    kernel replaced, from rho, L, the Gamma values and each field's
    natural components ``(h, v, dh, dv, yh, yv)``: ``rho_apply`` sums the
    anchor over a gradient again for every pair."""
    p, m = len(rho), len(rho[0])

    def rho_apply(Zh, Zv, dF, yF):
        return _sum(Zh[a] * _sum(rho[a][i] * dF[i] for i in range(m))
                    for a in range(p)) + Zv * yF

    out = []
    for i, j in pairs:
        Xh, Xv, dXh, dXv, yXh, yXv = nat[i]
        Yh, Yv, dYh, dYv, yYh, yYv = nat[j]
        out_h = []
        for g in range(p):
            acc = rho_apply(Xh, Xv, dYh[g], yYh[g]) \
                - rho_apply(Yh, Yv, dXh[g], yXh[g])
            acc = acc + _sum(Xh[a] * Yh[b] * Lv[g][a][b]
                             for a in range(p) for b in range(p))
            out_h.append(acc)
        out_v = rho_apply(Xh, Xv, dYv, yYv) - rho_apply(Yh, Yv, dXv, yXv)
        out.append((out_h, out_v + _sum(gam[g] * out_h[g] for g in range(p))))
    return out


def loop_frame_derivatives(vals, delta, ddy, Hh, Hv, Vh, Vv):
    """The two Leibniz comprehensions of ``dconnection.frame_derivatives``
    that its kernel replaced."""
    p = len(Hv)
    out = [
        [[[delta[g][k][0][a] + _sum(Hh[a][b][g] * Wh[b] for b in range(p))
           for a in range(p)],
          delta[g][k][1] + Hv[g] * Wv]
         for k, (Wh, Wv) in enumerate(vals)]
        for g in range(p)
    ]
    out.append(
        [[[ddy[k][0][a] + _sum(Vh[a][b] * Wh[b] for b in range(p))
           for a in range(p)],
          ddy[k][1] + Vv * Wv]
         for k, (Wh, Wv) in enumerate(vals)])
    return out


def loop_frames(second, br):
    """The differences of ``curvature.frame_definitions`` that its kernel
    replaced: one ``diff3`` per frame pair and one ``diff3`` over a
    ``frame_contract`` per frame triple."""
    n = len(second)
    p = n - 1

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


def loop_rh_rv(Hh, Hv, Vh, Vv, delta, R, Lv):
    """The comprehensions of ``curvature._rh_rv`` that its kernel
    replaced."""
    p = len(Hv)
    Rh = [
        [
            [
                [
                    delta[e][0][a][b][c] - delta[c][0][a][b][e]
                    + _sum(Hh[a][t][e] * Hh[t][b][c]
                           - Hh[a][t][c] * Hh[t][b][e] for t in range(p))
                    + R[c][e] * Vh[a][b]
                    + _sum(Lv[t][c][e] * Hh[a][b][t] for t in range(p))
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
            + _sum(Lv[t][c][e] * Hv[t] for t in range(p))
            for e in range(p)
        ]
        for c in range(p)
    ]
    return Rh, Rv


def loop_commutation(update, Zh, Yv, tensors, tors, curv):
    """The loops of ``curvature._commutation_point`` that the commutation
    kernel replaced, for the field Z = (Zh, Yv)."""
    p = len(tors.Pv)
    a2, a1, b1, a1v, b1h, c2, c1, d1, c1v, d1h = tensors
    for al in range(p):
        for c in range(p):
            for b in range(p):
                lhs = a2[al][c][b] - a2[al][b][c]
                rhs = _sum(curv.Rh[al][t][c][b] * Zh[t] for t in range(p))
                rhs += _sum(tors.Thh[t][b][c] * a1[al][t] for t in range(p))
                rhs += tors.Tv[b][c] * b1[al]
                update(lhs - rhs)
        for c in range(p):
            lhs = a1v[al][c] - b1h[al][c]
            rhs = _sum(curv.Ph[al][t][c] * Zh[t] for t in range(p))
            rhs -= tors.Pv[c] * b1[al]
            rhs -= _sum(tors.Ph[t][c] * a1[al][t] for t in range(p))
            update(lhs - rhs)
    for c in range(p):
        for b in range(p):
            lhs = c2[c][b] - c2[b][c]
            rhs = curv.Rv[c][b] * Yv
            rhs += _sum(tors.Thh[t][b][c] * c1[t] for t in range(p))
            rhs += tors.Tv[b][c] * d1
            update(lhs - rhs)
        lhs = c1v[c] - d1h[c]
        rhs = curv.Pv[c] * Yv
        rhs -= tors.Pv[c] * d1
        rhs -= _sum(tors.Ph[t][c] * c1[t] for t in range(p))
        update(lhs - rhs)


def loop_bianchi(u1h, u1v, u2h, u2v, tors, curv, dThh, dTv, dRh, dRv):
    """The loops of ``curvature.BianchiCheck.step`` that the Bianchi
    kernel replaced, feeding the four checks' ``update``."""
    Thh, Tv = tors.Thh, tors.Tv
    Pht, Pvt = tors.Ph, tors.Pv
    Rh, Rv = curv.Rh, curv.Rv
    Pch, Pcv = curv.Ph, curv.Pv
    p = len(Pvt)
    for b in range(p):
        for c in range(p):
            for d in range(p):
                cyc = [(b, c, d), (c, d, b), (d, b, c)]
                for al in range(p):
                    acc = 0.0
                    for (x, yy, z) in cyc:
                        acc += Rh[al][z][yy][x] - dThh[al][z][yy][x]
                        acc -= _sum(Thh[lam][yy][x] * Thh[al][z][lam]
                                    for lam in range(p))
                        acc -= Tv[yy][x] * Pht[al][z]
                    u1h(acc)
                acc = 0.0
                for (x, yy, z) in cyc:
                    acc -= dTv[z][yy][x]
                    acc -= _sum(Thh[lam][yy][x] * Tv[z][lam]
                                for lam in range(p))
                    acc -= Tv[yy][x] * Pvt[z]
                u1v(acc)
    for be in range(p):
        for c in range(p):
            for t in range(p):
                for l in range(p):
                    cyc = [(l, t, c), (t, c, l), (c, l, t)]
                    for al in range(p):
                        acc = 0.0
                        for (x, yy, z) in cyc:
                            acc += dRh[al][be][z][yy][x]
                            acc += _sum(Thh[mu][yy][x] * Rh[al][be][z][mu]
                                        for mu in range(p))
                            acc += Tv[yy][x] * Pch[al][be][z]
                        u2h(acc)
    for c in range(p):
        for t in range(p):
            for l in range(p):
                cyc = [(l, t, c), (t, c, l), (c, l, t)]
                acc = 0.0
                for (x, yy, z) in cyc:
                    acc += dRv[z][yy][x]
                    acc += _sum(Thh[mu][yy][x] * Rv[z][mu] for mu in range(p))
                    acc += Tv[yy][x] * Pcv[z]
                u2v(acc)


def loop_anchor_compatibility(update, jrho, Lv):
    """The loops of ``algebroid.anchor_residual`` that its kernel
    replaced: the seeded anchor table split by
    ``jval`` and ``jdx``, and one ``update`` per residual."""
    p, m = len(jrho), len(jrho[0])
    rho = [[jval(jrho[a][i]) for i in range(m)] for a in range(p)]
    drho = [[[jdx(jrho[a][i], k) for k in range(m)] for i in range(m)]
            for a in range(p)]
    for a in range(p):
        for b in range(p):
            for k in range(m):
                lhs = _sum(Lv[g][a][b] * rho[g][k] for g in range(p))
                rhs = _dot(rho[a], drho[b][k]) - _dot(rho[b], drho[a][k])
                update(lhs - rhs)


def loop_jacobi(update, rho, jL):
    """The Jacobi residuals of ``algebroid.jacobi_residual`` at one point,
    as the loops that its kernel replaced computed them: the seeded
    bracket table split by ``jval`` and ``jdx``, the terms T[a][b][c][d],
    and one ``update`` per cyclic sum."""
    p, m = len(jL), len(rho[0])
    rp = range(p)
    Lv = [[[jval(jL[g][a][b]) for b in rp] for a in rp] for g in rp]
    dL = [[[[jdx(jL[g][a][b], k) for k in range(m)] for b in rp]
           for a in rp] for g in rp]
    Lcol = [[[Lv[e][b][c] for e in rp] for c in rp] for b in rp]

    def term(a, b, c, d):
        out = _dot(rho[a], dL[d][b][c])
        out += _dot(Lv[d][a], Lcol[b][c])
        return out

    T = [[[[term(a, b, c, d) for d in rp] for c in rp] for b in rp]
         for a in rp]
    for a in rp:
        for b in rp:
            for c in rp:
                for d in rp:
                    update(T[a][b][c][d] + T[b][c][a][d] + T[c][a][b][d])


def loop_antisymmetry(update, A, pt):
    """``algebroid.antisymmetry_residual`` with one ``update`` per entry."""
    Lv = A.L_at(pt.x)
    for g in range(A.p):
        for a in range(A.p):
            for b in range(A.p):
                update(Lv[g][a][b] + Lv[g][b][a])


def loop_g_symmetry(update, G, pt):
    """The ``g_symmetry`` residual of ``suites.run_validate`` at pt with
    one ``update`` per entry."""
    g = G.g_at(pt.x, pt.y)
    for a in range(G.p):
        for b in range(G.p):
            update(g[a][b] - g[b][a])


def loop_compatibility_step(update, check, pt, tables):
    """``metric.CompatibilityCheck.step`` with one ``update`` per entry of
    the four covariant-derivative blocks."""
    G, A, N = check._args
    hg, vg, hg00, vg00 = metric._compatibility_values(G, tables.D, A, N, pt)
    for row in [r for plane in hg for r in plane] + vg + [hg00, [vg00]]:
        for value in row:
            update(value)


def loop_oracle_point(t_update, c_update, tors, curv, T, C, p):
    """``curvature._oracle_point`` with one ``update`` per entry of each
    family's rows."""
    r, z, zeros = range(p), p, [0.0] * p
    torsion = (
        [(T[c][b], [tors.Thh[a][b][c] for a in r], tors.Tv[b][c])
         for b in r for c in r]
        + [(T[z][b], [tors.Ph[a][b] for a in r], tors.Pv[b]) for b in r]
        + [(T[z][z], zeros, tors.S00)])
    curvature = (
        [(C[b][e][c], [curv.Rh[a][b][c][e] for a in r], 0.0)
         for b in r for c in r for e in r]
        + [(C[z][e][c], zeros, curv.Rv[c][e]) for c in r for e in r]
        + [(C[eps][z][c], [curv.Ph[a][eps][c] for a in r], 0.0)
           for eps in r for c in r]
        + [(C[z][z][c], zeros, curv.Pv[c]) for c in r]
        + [(C[b][z][z], [curv.Sh[a][b] for a in r], 0.0) for b in r]
        + [(C[z][z][z], zeros, curv.Sv)])
    for update, rows in ((t_update, torsion), (c_update, curvature)):
        for (h, v), comp_h, comp_v in rows:
            for a in r:
                update(h[a] - comp_h[a])
            update(v - comp_v)


def loop_change_laws(update, lam, lam_inv, inv_delta, phi, phi_delta,
                     coeffs, primed):
    """The loops of ``dconnection.dconnection_transformation_point`` that
    the change-law kernel replaced."""
    Hh, Hv, Vh, Vv = coeffs
    Hh_p, Hv_p, Vh_p, Vv_p = primed
    p = len(Hv)
    bracket = [[[inv_delta[g][a][bp] + _sum(
                     Hh[a][b][g] * lam_inv[b][bp] for b in range(p))
                 for g in range(p)] for a in range(p)] for bp in range(p)]
    for ap in range(p):
        for bp in range(p):
            for gp in range(p):
                rhs = 0.0
                for a in range(p):
                    for g in range(p):
                        rhs += lam[ap][a] * bracket[bp][a][g] * lam_inv[g][gp]
                update(Hh_p[ap][bp][gp] - rhs)
    for gp in range(p):
        rhs = 0.0
        for g in range(p):
            dg_invphi = -phi_delta[g][0] / (phi * phi)
            rhs += phi * (dg_invphi + Hv[g] / phi) * lam_inv[g][gp]
        update(Hv_p[gp] - rhs)
    for ap in range(p):
        for bp in range(p):
            rhs = _sum(lam[ap][a] * Vh[a][b] * lam_inv[b][bp] / phi
                       for a in range(p) for b in range(p))
            update(Vh_p[ap][bp] - rhs)
    update(Vv_p - Vv / phi)


def loop_gamma_law(update, y, phi, dphi, rho, gam, gam_p, lam_inv):
    """The sums of ``nlconnection.nlc_transformation_point`` that the
    Gamma-law kernel replaced."""
    p, m = len(gam), len(dphi)
    rho_dphi = [_sum(rho[g][k] * dphi[k] for k in range(m))
                for g in range(p)]
    for gp in range(p):
        rhs = _sum((-rho_dphi[g] * y + phi * gam[g]) * lam_inv[g][gp]
                   for g in range(p))
        update(gam_p[gp] - rhs)


def scanned(loop, checks=None):
    """A per-entry loop as the package's residual functions are called:
    ``scanned(loop)(*args)`` runs ``loop(*updates, *args)`` with one
    ``update`` per check into a fresh tracker each, and returns the
    largest residual of each (one value, or a list of ``checks``), which
    is what the kernel or the check that replaced the loop returns."""
    def kernel(*args):
        trackers = [ResidualTracker("r", 0.0) for _ in range(checks or 1)]
        loop(*(lambda v, t=t: t.update(v, None) for t in trackers), *args)
        worst = [t.max_residual for t in trackers]
        return worst if checks else worst[0]
    return kernel


def loop_frame_change(lam, lam_inv, A, N, G):
    """The primed-chart tables of ``suites._frame_change_data`` as the
    comprehensions that the frame-change kernel replaced built them:
    ``(rho_at, L_at, gamma_at, g_at)``."""
    P, m = range(len(lam)), A.m

    def rho_at(xs):
        rho = A.rho_at(xs)
        return [[_sum(lam_inv[a][ap] * rho[a][i] for a in P)
                 for i in range(m)] for ap in P]

    def L_at(xs):
        Lv = A.L_at(xs)
        return [[[_sum(lam[gp][g] * Lv[g][a][b] * lam_inv[a][ap]
                       * lam_inv[b][bp]
                       for g in P for a in P for b in P)
                  for bp in P] for ap in P] for gp in P]

    def gamma_at(xs, y):
        gam = N.gamma_at(xs, y)
        return [_sum(gam[g] * lam_inv[g][gp] for g in P) for gp in P]

    def g_at(xs, y):
        gv = G.g_at(xs, y)
        return [[_sum(gv[a][b] * lam_inv[a][ap] * lam_inv[b][bp]
                      for a in P for b in P) for bp in P] for ap in P]

    return rho_at, L_at, gamma_at, g_at


def loop_inverse_check(g, ginv):
    """The self-check of ``metric.inverse_h`` that its kernel replaced:
    ``(worst, cond)``, the largest entry of g . ginv - I under ``max`` and
    the product of the two 1-norms (the largest column sum under ``max``)."""
    p = len(g)

    def norm1(mat):
        return max(_sum(abs(mat[a][b]) for a in range(p)) for b in range(p))

    worst = 0.0
    for a in range(p):
        for b in range(p):
            acc = _sum(g[a][c] * ginv[c][b] for c in range(p))
            worst = max(worst, abs(acc - (1.0 if a == b else 0.0)))
    return worst, norm1(g) * norm1(ginv)


def loop_rk4_step(f, t, state, h, half, sixth):
    """The stage states and the combination of one RK4 step of
    ``lift.rk4_integrate`` as the comprehensions that its kernel replaced
    wrote them."""
    k1 = f(t, state)
    k2 = f(t + half, tuple([s + half * d for s, d in zip(state, k1)]))
    k3 = f(t + half, tuple([s + half * d for s, d in zip(state, k2)]))
    k4 = f(t + h, tuple([s + h * d for s, d in zip(state, k3)]))
    return tuple([s + sixth * (a + 2.0 * b + 2.0 * c + d)
                  for s, a, b, c, d in zip(state, k1, k2, k3, k4)])


def loop_parallel_rhs(u, gam, g):
    """The right side of ``lift.integrate_parallel_lift`` that its kernel
    replaced."""
    return (-_sum(gam[a] * g[a] for a in range(len(g))) * u,)


def loop_horizontal_rhs(state, Hh, gam, g):
    """The right side of ``lift.integrate_horizontal_parallel`` that its
    kernel replaced."""
    rp = range(len(g))
    z, u = state[:len(g)], state[len(g)]
    dz = [-_sum(Ha[b][cc] * z[b] * z[cc] for b in rp for cc in rp)
          for Ha in Hh]
    dz.append(-_sum(gam[a] * g[a] for a in rp) * u)
    return dz


def loop_emit_json(obj, indent=0):
    """The recursive emitter that ``report.emit_json`` replaced: every
    entry of a list that is not all scalars is emitted by recursion."""
    if isinstance(obj, _SCALARS):
        return _scalar(obj)
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f'{inner}{json.dumps(str(k))}: {loop_emit_json(v, indent + 1)}'
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(map(isinstance, obj, repeat(_SCALARS))):
            return "[" + ", ".join(map(_scalar, obj)) + "]"
        items = [loop_emit_json(v, indent + 1) for v in obj]
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    return json.dumps(str(obj))


_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _prec(node):
    if isinstance(node, BinOp):
        return _PREC[node.op]
    if isinstance(node, Neg):
        return _PREC["neg"]
    return 9


def pretty(node):
    """Render with just enough parentheses that re-parsing rebuilds the tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return {"x": f"x{node.index + 1}", "y": "y0", "t": "t"}[node.kind]
    if isinstance(node, Neg):
        inner = pretty(node.child)
        if _prec(node.child) < _PREC["neg"]:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, Call):
        return f"{node.func}({pretty(node.arg)})"
    if isinstance(node, BinOp):
        p = _PREC[node.op]
        left = pretty(node.left)
        right = pretty(node.right)
        if node.op == "^":
            if _prec(node.left) <= p:
                left = f"({left})"
            if _prec(node.right) < p:
                right = f"({right})"
        else:
            if _prec(node.left) < p:
                left = f"({left})"
            if _prec(node.right) <= p:
                right = f"({right})"
        return f"{left}{node.op}{right}"
    raise TypeError(f"not an Expr node: {node!r}")
