"""Reference code for the tests, kept out of the package because no
command runs it: nested covariant derivatives of a block tensor, exact and
finite-difference partials of one field, the torsion and curvature of
single vector fields straight from their definitions, and a printer for
parsed expressions.  The engine's batched kernels are compared against
these, and the parser against the printer."""

from kkgeom.calculus import jdx, jdy, primal, seeded_point
from kkgeom.dconnection import (
    bracket_d_vectors,
    cov_deriv_along,
    h_cov_values,
    v_cov_values,
)
from kkgeom.exprlang import BinOp, Call, Neg, Num, Var
from kkgeom.nlconnection import adapted_derivatives


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
