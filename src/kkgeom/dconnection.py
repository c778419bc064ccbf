"""Linear connection coefficients on the split bundle and covariant calculus.

A coefficient set has four families, stored as table evaluators on E:

    hh[alpha][beta][gamma]   horizontal derivative of horizontal frame
    hv[gamma]                horizontal derivative of the vertical frame
    vh[alpha][beta]          vertical derivative of horizontal frame
    vv                       vertical derivative of the vertical frame

A block tensor is given by its component values (nested lists, the
contravariant horizontal slots first) and its horizontal valence (rh, sh)
and vertical weight rv - sv; vertical indices have dimension one but still
matter, because each contravariant vertical slot adds +hv/+vv corrections
and each covariant one subtracts them.  ``h_cov_values`` and
``v_cov_values`` add those corrections to the output of one
``adapted_derivatives`` pass; the suites nest passes for higher orders.
Both run one Leibniz kernel, straight-line code generated per (p, rank,
contravariant slots, non-zero weight) on first use; the loop it replaced
is the bitwise reference in ``tests/reference.py`` (``loop_leibniz``).

A vector field is a function ``(xs, y) -> (h_list, v)``: its p horizontal
components and its vertical one, from one evaluation so that the two parts
share their work.
"""

from __future__ import annotations

import functools
import itertools
import sys

from .algebroid import AlgebroidData
from .calculus import compile_kernel, jdx, jdy, jval, seeded_point
from .nlconnection import NonlinearConnection, adapted_derivatives

__all__ = [
    "DConnectionCoeffs",
    "berwald",
    "h_cov_values",
    "v_cov_values",
    "frame_derivatives",
    "frame_contract",
    "cov_deriv_along",
    "bracket_pairs",
    "bracket_d_vectors",
    "dconnection_transformation_point",
]


class DConnectionCoeffs:
    """The four coefficient families, as point evaluators (Jet-friendly)."""

    def __init__(self, p, hh_at, hv_at, vh_at, vv_at):
        self.p = p
        self.hh_at = hh_at
        self.hv_at = hv_at
        self.vh_at = vh_at
        self.vv_at = vv_at

    @staticmethod
    def zero(p: int) -> "DConnectionCoeffs":
        return DConnectionCoeffs(
            p,
            lambda xs, y: [[[0.0] * p for _ in range(p)] for _ in range(p)],
            lambda xs, y: [0.0] * p,
            lambda xs, y: [[0.0] * p for _ in range(p)],
            lambda xs, y: 0.0,
        )

    def all_at(self, xs, y):
        return [self.hh_at(xs, y), self.hv_at(xs, y),
                self.vh_at(xs, y), self.vv_at(xs, y)]


def berwald(N: NonlinearConnection) -> DConnectionCoeffs:
    """Connection induced by the fiber derivative of the nonlinear
    coefficients: hv[gamma] = dGamma_gamma/dy0, all other families zero."""
    p = N.p

    def hv_at(xs, y):
        jxs, jy = seeded_point(xs, y)
        out = N.gamma_at(jxs, jy)
        return [jdy(o) for o in out]

    zero = DConnectionCoeffs.zero(p)
    return DConnectionCoeffs(p, zero.hh_at, hv_at, zero.vh_at, zero.vv_at)


def _flat(node, rank):
    """The leaves of a nested list of depth ``rank``, in index order."""
    flat = [node]
    for _ in range(rank):
        flat = [v for sub in flat for v in sub]
    return flat


def _nested(flat, p, rank):
    """Inverse of :func:`_flat`."""
    for _ in range(rank):
        flat = [flat[i:i + p] for i in range(0, len(flat), p)]
    return flat[0]


# The Leibniz rule for a tensor T of rank r over p values per slot, its
# first rh slots contravariant, along the directions G.  The kernel reads T
# and, per direction g, the base B[g] by flat index i, runs over the index
# tuple (i0, .., i<r-1>), and appends per direction g
#
#     B[g][i] + (0 + U<k>_0[g] * t<k>_0 + ...) - (0 + ...) ...
#             + vweight * Cv[g] * T[i]
#
# with one ``(0 + ...)`` per slot k in slot order: added for a
# contravariant slot, subtracted for a covariant one.  t<k>_th is T with
# slot k set to th (a slice of stride p^(r-1-k)), and U<k>_th[g] the
# coefficient C[i<k>][th][g] (contravariant) or C[th][i<k>][g] (covariant).
# ``{rows}`` unpacks C into C<th>, ``{fetch}`` binds U and t for the index
# tuple; the last term is written only for a non-zero weight.
_LEIBNIZ_LINE = sys._getframe().f_lineno + 2
_LEIBNIZ = '''\
def leibniz(T, B, C, Cv, vweight, G):
    {rows}, = C
    out = []
    for {idx} in _product({R}, repeat={rank}):
        i = {index}
        {fetch}
        for g in G: out.append({acc})
    return out
'''


@functools.cache
def _leibniz_kernel(p, rank, rh, vterm):
    """The kernel of ``_LEIBNIZ`` for p, rank and rh, with the ``vweight``
    term when ``vterm``, generated on first use."""
    fetch, sums = [], []
    for k in range(rank):
        st = p ** (rank - 1 - k)
        if k < rh:
            fetch.append(", ".join(f"U{k}_{th}" for th in range(p))
                         + f", = C[i{k}]")
        else:
            fetch.extend(f"U{k}_{th} = C{th}[i{k}]" for th in range(p))
        fetch.append(f"o{k} = i - i{k}" + (f" * {st}" if st > 1 else ""))
        fetch.append(", ".join(f"t{k}_{th}" for th in range(p))
                     + f", = T[o{k}:o{k} + {p * st}"
                     + (f":{st}]" if st > 1 else "]"))
        sums.append(("+" if k < rh else "-") + " (0" + "".join(
            f" + U{k}_{th}[g] * t{k}_{th}" for th in range(p)) + ")")
    source = _LEIBNIZ.format(
        rows=", ".join(f"C{th}" for th in range(p)),
        idx=", ".join(f"i{k}" for k in range(rank)) + "," if rank else "_",
        R=repr(tuple(range(p))), rank=rank,
        index=" + ".join(f"i{k} * {p ** (rank - 1 - k)}" if k < rank - 1
                         else f"i{k}" for k in range(rank)) or "0",
        fetch="; ".join(fetch) or "pass",
        acc=" ".join(["B[g][i]"] + sums
                     + (["+ vweight * Cv[g] * T[i]"] if vterm else [])))
    return compile_kernel(source, "leibniz", __file__, _LEIBNIZ_LINE,
                          {"_product": itertools.product})


def h_cov_values(vals, delta, rh, sh, vweight, Hh, Hv):
    """The horizontal covariant derivative of a block tensor of horizontal
    valence (rh, sh) and vertical weight ``rv - sv``, from its values and
    adapted derivatives ``delta[g]``: delta_g T plus the hh and hv Leibniz
    terms, the direction g appended last."""
    p, rank = len(Hv), rh + sh
    leibniz = _leibniz_kernel(p, rank, rh, bool(vweight))
    return _nested(leibniz(_flat(vals, rank),
                           [_flat(d, rank) for d in delta], Hh, Hv, vweight,
                           range(p)), p, rank + 1)


def v_cov_values(vals, ddy, rh, sh, vweight, Vh, Vv):
    """The vertical covariant derivative, as :func:`h_cov_values`, from the
    values and fiber derivatives ``ddy``: d/dy0 T plus the vh and vv
    Leibniz terms.  It is the rule along the one vertical direction, so vh
    enters as the table vh[a][b][0] and vv as [vv]."""
    p, rank = len(Vh), rh + sh
    leibniz = _leibniz_kernel(p, rank, rh, bool(vweight))
    return _nested(leibniz(_flat(vals, rank), [_flat(ddy, rank)],
                           [[[c] for c in row] for row in Vh], [Vv], vweight,
                           (0,)), p, rank)


def frame_derivatives(W_at, A: AlgebroidData, N: NonlinearConnection,
                      D: DConnectionCoeffs):
    """D_{e_j} W_k for every frame field e_j and every vector field W_k.

    ``W_at(xs, y)`` returns the fields as a list of ``[h_list, v]`` pairs.
    The frame index j runs over the horizontal frame 0..p-1 and then the
    vertical frame (j = p).  The returned evaluator gives ``out[j][k]`` as
    an ``[h_list, v]`` pair, by the Leibniz rule on frame components:

        D_{e_g} W = (delta_g W^a + hh[a][b][g] W^b,  delta_g W^v + hv[g] W^v)
        D_{e_v} W = (d/dy0 W^a + vh[a][b] W^b,       d/dy0 W^v + vv W^v)

    One ``adapted_derivatives`` pass and one coefficient evaluation serve
    every (j, k).  The output is in the input's format, so passes nest.
    """
    p = D.p

    def at(xs, y):
        vals, delta, ddy = adapted_derivatives(W_at, xs, y, A, N)
        Hh, Hv, Vh, Vv = D.all_at(xs, y)
        out = [
            [[[delta[g][k][0][a]
               + sum(Hh[a][b][g] * Wh[b] for b in range(p))
               for a in range(p)],
              delta[g][k][1] + Hv[g] * Wv]
             for k, (Wh, Wv) in enumerate(vals)]
            for g in range(p)
        ]
        out.append(
            [[[ddy[k][0][a] + sum(Vh[a][b] * Wh[b] for b in range(p))
               for a in range(p)],
              ddy[k][1] + Vv * Wv]
             for k, (Wh, Wv) in enumerate(vals)])
        return out

    return at


def frame_contract(Xc, derivs):
    """X^j D_{e_j} W from the frame components ``Xc`` (p horizontal, then
    vertical) and ``derivs[j] = D_{e_j} W`` as ``[h_list, v]``."""
    out_h = []
    for a in range(len(Xc) - 1):
        acc = 0.0
        for x, d in zip(Xc, derivs):
            acc = acc + x * d[0][a]
        out_h.append(acc)
    out_v = 0.0
    for x, d in zip(Xc, derivs):
        out_v = out_v + x * d[1]
    return out_h, out_v


def cov_deriv_along(X, W, A: AlgebroidData, N: NonlinearConnection,
                    D: DConnectionCoeffs):
    """D_X W for vector fields: the contraction X^j D_{e_j} W over
    :func:`frame_derivatives`.  Returns a vector field, so results can be
    differentiated again."""
    def W_at(xs, y):
        h, v = W(xs, y)
        return [[list(h), v]]

    derivs_at = frame_derivatives(W_at, A, N, D)

    def components(xs, y):
        derivs = derivs_at(xs, y)
        Xh, Xv = X(xs, y)
        return frame_contract(list(Xh) + [Xv], [row[0] for row in derivs])

    return components


def bracket_pairs(fields, pairs, A: AlgebroidData, N: NonlinearConnection):
    """[fields[i], fields[j]] in adapted components for each ``(i, j)`` in
    ``pairs``, computed through the natural frame so that only the raw
    bracket table L and plain derivatives enter (the adapted-frame bracket
    relations are *not* used; this is the oracle).

    The returned evaluator gives the brackets as ``(h_list, v)`` pairs in
    the order of ``pairs``.  It seeds the point and evaluates rho, L and
    Gamma once for all pairs, and each field once.
    """
    p, m = A.p, A.m

    def rho_apply(rho, Zh, Zv, dF, yF):
        # anchor(Z) applied to a function with gradient dF, fiber yF
        return sum(Zh[a] * sum(rho[a][i] * dF[i] for i in range(m))
                   for a in range(p)) + Zv * yF

    def natural(Z, jxs, jy, jgam):
        # adapted (h, v) -> natural (A^gamma = h, A^0 = v - Gamma.h),
        # unpacked into values, base gradients and fiber derivatives
        h, v = Z(jxs, jy)
        v = v - sum(jgam[g] * h[g] for g in range(p))
        return ([jval(s) for s in h], jval(v),
                [[jdx(s, i) for i in range(m)] for s in h],
                [jdx(v, i) for i in range(m)],
                [jdy(s) for s in h], jdy(v))

    def at(xs, y):
        rho = A.rho_at(xs)
        Lv = A.L_at(xs)
        jxs, jy = seeded_point(xs, y)
        jgam = N.gamma_at(jxs, jy)
        gam = [jval(s) for s in jgam]
        nat = [natural(Z, jxs, jy, jgam) for Z in fields]
        out = []
        for i, j in pairs:
            Xh, Xv, dXh, dXv, yXh, yXv = nat[i]
            Yh, Yv, dYh, dYv, yYh, yYv = nat[j]
            out_h = []
            for g in range(p):
                acc = rho_apply(rho, Xh, Xv, dYh[g], yYh[g]) \
                    - rho_apply(rho, Yh, Yv, dXh[g], yXh[g])
                acc = acc + sum(Xh[a] * Yh[b] * Lv[g][a][b]
                                for a in range(p) for b in range(p))
                out_h.append(acc)
            out_v = rho_apply(rho, Xh, Xv, dYv, yYv) \
                - rho_apply(rho, Yh, Yv, dXv, yXv)
            # back to adapted components
            out.append((out_h,
                        out_v + sum(gam[g] * out_h[g] for g in range(p))))
        return out

    return at


def bracket_d_vectors(X, Y, A: AlgebroidData, N: NonlinearConnection):
    """[X, Y] in adapted components: :func:`bracket_pairs` for one pair."""
    pair_at = bracket_pairs([X, Y], [(0, 1)], A, N)
    return lambda xs, y: pair_at(xs, y)[0]


def dconnection_transformation_point(D, D_primed, C, A, N, pt, tracker):
    """Residuals at pt, into ``tracker``, of the four coefficient change
    laws under C:

        hh': Lam^{a'}_a [ delta_g(Laminv^a_{b'}) + hh^a_{bg} Laminv^b_{b'} ] Laminv^g_{g'}
        hv': phi [ delta_g(1/phi) + hv_g / phi ] Laminv^g_{g'}
        vh': Lam^{a'}_a vh^a_b Laminv^b_{b'} / phi
        vv': vv / phi

    with the primed coefficients read at the pushed-forward point."""
    p = D.p
    phi = C.phi_at(pt.x)
    if phi == 0.0:
        tracker.update(float("inf"), pt)
        return
    pushed = C.push(pt)
    lam = C.lambda_at(pt.x)

    # delta_g of the inverse frame entries and of phi, in the old chart
    lam_inv, inv_delta, _ = adapted_derivatives(
        lambda jxs, jy: C.lambda_inv_at(jxs), pt.x, pt.y, A, N)
    _, phi_delta, _ = adapted_derivatives(
        lambda jxs, jy: [C.phi_at(jxs)], pt.x, pt.y, A, N)

    Hh, Hv, Vh, Vv = D.all_at(pt.x, pt.y)
    Hh_p, Hv_p, Vh_p, Vv_p = D_primed.all_at(pushed.x, pushed.y)

    # bracket[bp][a][g] does not depend on a' or g'.
    bracket = [[[inv_delta[g][a][bp] + sum(
                     Hh[a][b][g] * lam_inv[b][bp] for b in range(p))
                 for g in range(p)] for a in range(p)] for bp in range(p)]
    for ap in range(p):
        for bp in range(p):
            for gp in range(p):
                rhs = 0.0
                for a in range(p):
                    for g in range(p):
                        rhs += lam[ap][a] * bracket[bp][a][g] * lam_inv[g][gp]
                tracker.update(Hh_p[ap][bp][gp] - rhs, pt)
    for gp in range(p):
        rhs = 0.0
        for g in range(p):
            # delta_g(1/phi) = -delta_g(phi)/phi^2
            dg_invphi = -phi_delta[g][0] / (phi * phi)
            rhs += phi * (dg_invphi + Hv[g] / phi) * lam_inv[g][gp]
        tracker.update(Hv_p[gp] - rhs, pt)
    for ap in range(p):
        for bp in range(p):
            rhs = sum(lam[ap][a] * Vh[a][b] * lam_inv[b][bp] / phi
                      for a in range(p) for b in range(p))
            tracker.update(Vh_p[ap][bp] - rhs, pt)
    tracker.update(Vv_p - Vv / phi, pt)
