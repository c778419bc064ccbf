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
Both run one Leibniz kernel, generated per (p, rank, contravariant slots,
non-zero weight, direction) on first use: one loop per slot over the
nested blocks as they are.  The loop it replaced, over flattened blocks,
is the bitwise reference in ``tests/reference.py`` (``loop_leibniz``).
The oracle's ``frame_derivatives`` (per p) and ``bracket_pairs`` (per p
and m) run generated kernels the same way, with references
``loop_frame_derivatives`` and ``loop_bracket``, and so do the change laws
of ``dconnection_transformation_point`` (per p, ``loop_change_laws``).

A vector field is a function ``(xs, y) -> (h_list, v)``: its p horizontal
components and its vertical one, from one evaluation so that the two parts
share their work.
"""

from __future__ import annotations

import functools
import operator

from .algebroid import AlgebroidData
from .calculus import KernelTemplate, jdx, jdy, jval, kernel, names, rows, \
    seeded_point, terms
from .exprlang import zero_table
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
            zero_table(p, 3),
            zero_table(p, 1),
            zero_table(p, 2),
            zero_table(p, 0),
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


# The Leibniz rule for a tensor T of rank r over p values per slot, its
# first rh slots contravariant, along the horizontal directions g (h) or
# the one vertical direction (v).  The kernel runs one loop per slot k, in
# slot order, and along h one more over g; it binds U<k>_th to the
# coefficient C[i<k>][th] (contravariant) or C[th][i<k>] (covariant) and
# t<k>_th to T with index k set to th, and builds the output nested as T,
# g last.  Each entry is
#
#     B[g][i0]..[i<r-1>] + (0 + U<k>_0[g] * t<k>_0 + ...) - (0 + ...) ...
#         + vweight * Cv[g] * T[i0]..[i<r-1>]
#
# with one ``(0 + ...)`` per slot k in slot order: added for a
# contravariant slot, subtracted for a covariant one.  Along v, C is the
# table vh[a][b], Cv the scalar vv and B the fiber derivative, and no
# ``[g]`` is read.  The last term is written only for a non-zero weight.
# The source is built line by line, so its template is the whole text, and
# its lines are those of the factory's ``def``, the line after the
# template's.


@kernel(KernelTemplate("{source}"))
def _leibniz_kernel(p, rank, rh, vterm, along):
    """The Leibniz kernel for p, rank and rh, with the ``vweight`` term
    when ``vterm``, along ``"h"`` or ``"v"``, generated on first use."""
    rp, R = range(p), repr(tuple(range(p)))
    idx = [f"i{k}" for k in range(rank)]
    g = "[g]" if along == "h" else ""
    sums, fetch = [], []
    for k in range(rank):
        fetch += [f"t{k}_{th} = T" + "".join(
            f"[{th if j == k else i}]" for j, i in enumerate(idx))
            for th in rp]
        sums.append(("+" if k < rh else "-") + " (0"
                    + terms("U{0}_{1}" + g + " * t{0}_{1}", [k], rp) + ")")
    at = "".join(f"[{i}]" for i in idx)
    acc = " ".join([f"B{g}{at}"] + sums
                   + ([f"+ vweight * Cv{g} * T{at}"] if vterm else []))
    lines = ["def leibniz(T, B, C, Cv, vweight):",
             "    " + names("C{}", rp) + ", = C"]
    loops = idx + ["g"] * bool(g)
    for k, var in enumerate(loops):
        pad = "    " * (k + 1)
        lines += [f"{pad}out{k} = []", f"{pad}for {var} in {R}:"]
        if k < rh:
            lines.append(f"{pad}    {names('U{}_{}', [k], rp)}, = C[i{k}]")
        elif k < rank:
            lines.append(f"{pad}    " + "; ".join(f"U{k}_{th} = C{th}[i{k}]"
                                                  for th in rp))
        if k == rank - 1:
            lines.append(f"{pad}    " + "; ".join(fetch))
    n = len(loops)
    if n:
        lines.append(f"{'    ' * (n + 1)}out{n - 1}.append({acc})")
        lines += [f"{'    ' * (k + 1)}out{k - 1}.append(out{k})"
                  for k in range(n - 1, 0, -1)]
    lines.append(f"    return {'out0' if n else acc}")
    return {"source": "\n".join(lines) + "\n"}


def h_cov_values(vals, delta, rh, sh, vweight, Hh, Hv):
    """The horizontal covariant derivative of a block tensor of horizontal
    valence (rh, sh) and vertical weight ``rv - sv``, from its values and
    adapted derivatives ``delta[g]``: delta_g T plus the hh and hv Leibniz
    terms, the direction g appended last."""
    leibniz = _leibniz_kernel(len(Hv), rh + sh, rh, bool(vweight), "h")
    return leibniz(vals, delta, Hh, Hv, vweight)


def v_cov_values(vals, ddy, rh, sh, vweight, Vh, Vv):
    """The vertical covariant derivative, as :func:`h_cov_values`, from the
    values and fiber derivatives ``ddy``: d/dy0 T plus the vh and vv
    Leibniz terms."""
    leibniz = _leibniz_kernel(len(Vh), rh + sh, rh, bool(vweight), "v")
    return leibniz(vals, ddy, Vh, Vv, vweight)


# D along every frame field of every vector field W_k = [(w0, ..), Wv]:
# one pass per direction (the p horizontal frames, then the vertical one)
# with its p x p coefficients c<a>_<b> (hh[a][b][g], or vh[a][b]), the
# coefficient cv of W^v (hv[g], or vv) and the derivatives of every W_k
# along it.  ``{h}`` writes out the horizontal components
#
#     d<a> + (0 + c<a>_0 * w0 + ... + c<a>_<p-1> * w<p-1>)
#
# in the operand order of the comprehensions that the kernel replaced
# (the reference ``loop_frame_derivatives`` in ``tests/reference.py``).
_FRAME_DERIVATIVES = KernelTemplate('''\
def along_frames(vals, delta, ddy, Hh, Hv, Vh, Vv):
    {H}, = Hh
    {V}, = Vh
    out = []
    for ({c},), cv, D in zip([({Hg},) for g in {R}] + [({Vc},)],
                              [*Hv, Vv], [*delta, ddy]):
        row = []
        for (({w},), Wv), (({d},), dv) in zip(vals, D):
            row.append([[{h}], dv + cv * Wv])
        out.append(row)
    return out
''')


@kernel(_FRAME_DERIVATIVES)
def _frame_derivatives_kernel(p):
    """The kernel of ``_FRAME_DERIVATIVES`` for p, generated on first
    use."""
    rp = range(p)
    return dict(
        H=names("H{}", rp), V=names("V{}", rp), R=repr(tuple(rp)),
        c=names("c{}_{}", rp, rp), Hg=names("H{}[{}][g]", rp, rp),
        Vc=names("V{}[{}]", rp, rp), w=names("w{}", rp), d=names("d{}", rp),
        h=", ".join(f"d{a} + (0" + terms("c{0}_{1} * w{1}", [a], rp) + ")"
                    for a in rp))


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
    every (j, k), through one generated kernel per p.  The output is in
    the input's format, so passes nest.
    """
    kernel = _frame_derivatives_kernel(D.p)

    def at(xs, y):
        vals, delta, ddy = adapted_derivatives(W_at, xs, y, A, N)
        return kernel(vals, delta, ddy, *D.all_at(xs, y))

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


# The pair loop of :func:`bracket_pairs` for p frames and m base
# coordinates.  Per field, ``{anchor}`` writes out once the anchor sums
# (0 + r<a>_0 * d0 + ... + r<a>_<m-1> * d<m-1>) over the gradient of each
# of its p + 1 natural components (the fiber one last), for each a.  Per
# pair (X, Y) and component g, with a<a> and b<a> the sums of Y's and X's
# component g and yy and xy their fiber derivatives, the bracket is
#
#     ((0 + X0 * a0 + ...) + Xv * yy) - ((0 + Y0 * b0 + ...) + Yv * xy)
#
# plus, for a horizontal g, ``{table}``: (0 + X0 * Y0 * l0_0 + ...) over
# (a, b), l<a>_<b> = L[g][a][b].  The fiber component then adds (0 + G0 *
# h0 + ...), back in adapted components.  The horizontal loop zips the p
# rows of L with the p + 1 components, so it stops before the fiber one.
# Each sum is the one of the loop that the kernel replaced (the reference
# ``loop_bracket`` in ``tests/reference.py``), which summed the anchor
# again for every pair.
_BRACKET = KernelTemplate('''\
def bracket(rho, Lv, gam, nat, pairs):
    {r}, = rho
    {G}, = gam
    rows = []
    for h, v, dh, dv, yh, yv in nat:
        anchor = []
        for {d} in [*dh, dv]:
            anchor.append(({anchor},))
        rows.append((h, v, anchor, [*yh, yv]))
    out = []
    for i, j in pairs:
        ({X},), Xv, XA, Xy = rows[i]
        ({Y},), Yv, YA, Yy = rows[j]
        out_h = []
        for ({a},), ({b},), xy, yy, ({l},) in zip(YA, XA, Xy, Yy, Lv):
            out_h.append({rho_terms} + {table})
        {h}, = out_h
        ({a},), ({b},), xy, yy = YA[{p}], XA[{p}], Xy[{p}], Yy[{p}]
        out.append((out_h, {rho_terms} + (0{gam})))
    return out
''')


@kernel(_BRACKET)
def _bracket_kernel(p, m):
    """The kernel of ``_BRACKET`` for p and m, generated on first use."""
    rp, rm = range(p), range(m)

    def rho_apply(Z, A, y):
        return ("((0" + "".join(f" + {Z}{a} * {A}{a}" for a in rp)
                + f") + {Z}v * {y})")

    return dict(
        r=rows("r{}_{}", rp, rm), G=names("G{}", rp),
        d="(" + names("d{}", rm) + ",)",
        anchor=", ".join("(0" + terms("r{0}_{1} * d{1}", [a], rm) + ")"
                         for a in rp),
        X=names("X{}", rp), Y=names("Y{}", rp), a=names("a{}", rp),
        b=names("b{}", rp), l=rows("l{}_{}", rp, rp),
        rho_terms=(rho_apply("X", "a", "yy") + " - "
                   + rho_apply("Y", "b", "xy")),
        table="(0" + terms("X{0} * Y{1} * l{0}_{1}", rp, rp) + ")",
        h=names("h{}", rp), p=p, gam=terms("G{0} * h{0}", rp))


def bracket_pairs(fields, pairs, A: AlgebroidData, N: NonlinearConnection):
    """[fields[i], fields[j]] in adapted components for each ``(i, j)`` in
    ``pairs``, computed through the natural frame so that only the raw
    bracket table L and plain derivatives enter (the adapted-frame bracket
    relations are *not* used; this is the oracle).

    The returned evaluator gives the brackets as ``(h_list, v)`` pairs in
    the order of ``pairs``.  It seeds the point and evaluates rho, L and
    Gamma once for all pairs, and each field once; the anchor applied to
    each component of a field is summed once, and the pairs run through
    one generated kernel per (p, m).
    """
    p, m = A.p, A.m
    bracket = _bracket_kernel(p, m)

    def natural(Z, jxs, jy, jgam):
        # adapted (h, v) -> natural (A^gamma = h, A^0 = v - Gamma.h),
        # unpacked into values, base gradients and fiber derivatives
        h, v = Z(jxs, jy)
        v = v - functools.reduce(operator.add,
                                 (jgam[g] * h[g] for g in range(p)), 0)
        return ([jval(s) for s in h], jval(v),
                [[jdx(s, i) for i in range(m)] for s in h],
                [jdx(v, i) for i in range(m)],
                [jdy(s) for s in h], jdy(v))

    def at(xs, y):
        rho = A.rho_at(xs)
        Lv = A.L_at(xs)
        jxs, jy = seeded_point(xs, y)
        jgam = N.gamma_at(jxs, jy)
        return bracket(rho, Lv, [jval(s) for s in jgam],
                       [natural(Z, jxs, jy, jgam) for Z in fields], pairs)

    return at


def bracket_d_vectors(X, Y, A: AlgebroidData, N: NonlinearConnection):
    """[X, Y] in adapted components: :func:`bracket_pairs` for one pair."""
    pair_at = bracket_pairs([X, Y], [(0, 1)], A, N)
    return lambda xs, y: pair_at(xs, y)[0]


# The four change laws of :func:`dconnection_transformation_point` at p,
# their residuals scanned in the order of the loops that the kernel
# replaced (the reference ``loop_change_laws`` in ``tests/reference.py``)
# and the largest returned, each sum written out in their operand order.
# With l<a> = Lam^{a'}_a, c<b> and d<g> the entries of columns b' and g'
# of Laminv, and the bracket
#
#     B<a>_<g> = delta_g(Laminv^a_{b'}) + (0 + hh^a_{0g} c0 + ...)
#
# formed once per (b', a, g), the laws read
#
#     hh': Hh'[a'][b'][g'] - (0.0 + l0 * B0_0 * d0 + l0 * B0_1 * d1 + ...)
#     hv': Hv'[g'] - (0.0 + phi * (-delta_0(phi) / (phi * phi)
#                                  + hv_0 / phi) * d0 + ...)
#     vh': Vh'[a'][b'] - (0 + l0 * vh[0][0] * c0 / phi + ...)
#     vv': Vv' - vv / phi
_CHANGE_LAWS = KernelTemplate('''\
def change_laws(lam, lam_inv, inv_delta, phi, phi_delta, coeffs, primed):
    Hh, Hv, Vh, Vv = coeffs
    Hh_p, Hv_p, Vh_p, Vv_p = primed
    {li}, = lam_inv
    {Hv}, = Hv
    {V}, = Vh
    {pd}, = phi_delta
    bracket = []
    for bp in {R}:
        {c}
        rows = []
        for a in {R}:
            {Ha}, = Hh[a]
            rows.append([inv_delta[g][a][bp] + (0{hh_terms}) for g in {R}])
        bracket.append(rows)
    worst = 0.0
    for ap in {R}:
        {l}, = lam[ap]
        for bp in {R}:
            {B}, = bracket[bp]
            h = Hh_p[ap][bp]
            for gp in {R}:
                {d}
                r = abs(h[gp] - (0.0{law_hh}))
                if r >= worst or r != r:
                    worst = r
    for gp in {R}:
        {d}
        r = abs(Hv_p[gp] - (0.0{law_hv}))
        if r >= worst or r != r:
            worst = r
    for ap in {R}:
        {l}, = lam[ap]
        for bp in {R}:
            {c}
            r = abs(Vh_p[ap][bp] - (0{law_vh}))
            if r >= worst or r != r:
                worst = r
    r = abs(Vv_p - Vv / phi)
    if r >= worst or r != r:
        worst = r
    return worst
''')


@kernel(_CHANGE_LAWS)
def _change_laws_kernel(p):
    """The kernel of ``_CHANGE_LAWS`` for p, generated on first use."""
    rp = range(p)
    return dict(
        R=repr(tuple(rp)), li=names("li{}", rp), Hv=names("Hv{}", rp),
        V=names("V{}", rp), pd=names("(pd{},)", rp), Ha=names("Ha{}", rp),
        l=names("l{}", rp), B=rows("B{}_{}", rp, rp),
        c="; ".join(f"c{b} = li{b}[bp]" for b in rp),
        d="; ".join(f"d{g} = li{g}[gp]" for g in rp),
        hh_terms=terms("Ha{0}[g] * c{0}", rp),
        law_hh=terms("l{0} * B{0}_{1} * d{1}", rp, rp),
        law_hv=terms("phi * (-pd{0} / (phi * phi) + Hv{0} / phi) * d{0}", rp),
        law_vh=terms("l{0} * V{0}[{1}] * c{1} / phi", rp, rp))


def dconnection_transformation_point(D, D_primed, C, A, N, pt):
    """The largest residual at pt of the four coefficient change laws
    under C:

        hh': Lam^{a'}_a [ delta_g(Laminv^a_{b'}) + hh^a_{bg} Laminv^b_{b'} ] Laminv^g_{g'}
        hv': phi [ delta_g(1/phi) + hv_g / phi ] Laminv^g_{g'}
        vh': Lam^{a'}_a vh^a_b Laminv^b_{b'} / phi
        vv': vv / phi

    with the primed coefficients read at the pushed-forward point, and
    delta_g(1/phi) = -delta_g(phi) / phi^2; infinite where phi = 0.  The
    sums run in one kernel generated per p (``_CHANGE_LAWS``)."""
    phi = C.phi_at(pt.x)
    if phi == 0.0:
        return float("inf")
    pushed = C.push(pt)
    lam = C.lambda_at(pt.x)

    # delta_g of the inverse frame entries and of phi, in the old chart
    lam_inv, inv_delta, _ = adapted_derivatives(
        lambda jxs, jy: C.lambda_inv_at(jxs), pt.x, pt.y, A, N)
    _, phi_delta, _ = adapted_derivatives(
        lambda jxs, jy: [C.phi_at(jxs)], pt.x, pt.y, A, N)

    return _change_laws_kernel(D.p)(
        lam, lam_inv, inv_delta, phi, phi_delta, D.all_at(pt.x, pt.y),
        D_primed.all_at(pushed.x, pushed.y))
