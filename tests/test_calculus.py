import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkgeom.calculus import (
    EPoint,
    EvaluationDomainError,
    Jet,
    constant,
    jdx,
    seeded_point,
)
from conftest import bits, field
from reference import fd_partial, partial

from kkgeom.sampling import Box, sample_points


def test_partial_of_constant_is_zero():
    f = constant(5.0)
    p = EPoint((0.3, -0.8), 1.1)
    assert partial(f, p, 1) == 0.0
    assert partial(f, p, 2) == 0.0
    assert partial(f, p, "v") == 0.0


def test_partial_bilinear_product():
    f = field("x1*y0")
    assert partial(f, EPoint((2.0, 0.0), 3.0), 1) == 3.0


def test_partial_vertical_with_fd_cross_check():
    f = field("sin(x1) + exp(y0)")
    p = EPoint((0.0, 0.0), 0.0)
    exact = partial(f, p, "v")
    assert exact == 1.0
    assert abs(exact - fd_partial(f, p, "v", 1e-6)) <= 1e-8


def test_fd_partial_quadratic():
    f = field("x1^2")
    assert abs(fd_partial(f, EPoint((1.0, 0.0), 1.0), 1, 1e-5) - 2.0) <= 1e-9


def test_fd_partial_exp():
    f = field("exp(x1)")
    assert abs(fd_partial(f, EPoint((0.0, 0.0), 1.0), 1, 1e-4) - 1.0) <= 1e-7


def test_fd_partial_constant():
    f = constant(3.5)
    assert fd_partial(f, EPoint((0.2, 0.4), 0.6), 2) == 0.0


def test_fd_requires_positive_step():
    f = field("x1")
    with pytest.raises(ValueError):
        fd_partial(f, EPoint((0.0, 0.0), 1.0), 1, 0.0)


# fields with no singularities anywhere in the default box
SAFE_EXPRS = [
    "x1^2*x2 - 3*x1 + y0",
    "sin(x1)*cos(x2) + exp(0.5*y0)",
    "exp(x1*x2)*y0^2",
    "sin(x1+x2*y0)",
    "(x1+2)^3 / (y0+5)",
    "sqrt(y0+3) + tan(0.4*x1)",
    "log(y0+2)*x2",
]


@pytest.mark.parametrize("src", SAFE_EXPRS)
def test_partial_matches_fd_on_box(src):
    f = field(src)
    pts = sample_points(Box.default(2), 100, seed=17)
    for pt in pts:
        for direction in (1, 2, "v"):
            exact = partial(f, pt, direction)
            approx = fd_partial(f, pt, direction, 1e-5)
            assert abs(exact - approx) <= 1e-6 * (1.0 + abs(exact))


@pytest.mark.parametrize("src", SAFE_EXPRS)
def test_mixed_second_partials_commute(src):
    f = field(src)
    pts = sample_points(Box.default(2), 25, seed=23)
    for pt in pts:
        jxs, jy = seeded_point(pt.x, pt.y)
        jxs2, jy2 = seeded_point(jxs, jy)
        out = f(jxs2, jy2)
        value = f(pt.x, pt.y)
        d12 = jdx(jdx(out, 0), 1)
        d21 = jdx(jdx(out, 1), 0)
        assert abs(d12 - d21) <= 1e-10 * (1.0 + abs(value))


def test_third_order_nesting():
    # f = x1^3: third derivative is exactly 6
    f = field("x1^3")
    xs, y = (0.7, 0.0), 1.0
    j1 = seeded_point(xs, y)
    j2 = seeded_point(*j1)
    j3 = seeded_point(*j2)
    out = f(*j3)
    d3 = jdx(jdx(jdx(out, 0), 0), 0)
    assert d3 == pytest.approx(6.0, abs=1e-12)


finite = st.floats(min_value=-10.0, max_value=10.0,
                   allow_nan=False, allow_infinity=False)


@given(a=finite, b=finite, da=finite, db=finite)
@settings(max_examples=200, deadline=None)
def test_jet_product_rule(a, b, da, db):
    x = Jet(a, (da,), 0.0)
    y = Jet(b, (db,), 0.0)
    z = x * y
    assert z.value == a * b
    assert z.dx[0] == pytest.approx(a * db + b * da, rel=1e-12, abs=1e-12)


@given(a=finite, b=finite, da=finite, db=finite)
@settings(max_examples=200, deadline=None)
def test_jet_quotient_rule(a, b, da, db):
    if abs(b) < 1e-3:
        return
    x = Jet(a, (da,), 0.0)
    y = Jet(b, (db,), 0.0)
    z = x / y
    assert z.value == a / b
    assert z.dx[0] == pytest.approx((da * b - a * db) / (b * b),
                                    rel=1e-10, abs=1e-10)


def test_domain_errors():
    p = EPoint((-1.0, 0.0), 0.5)
    with pytest.raises(EvaluationDomainError):
        field("log(x1)")(p.x, p.y)
    with pytest.raises(EvaluationDomainError):
        field("1/(x1+1)")(p.x, p.y)
    with pytest.raises(EvaluationDomainError):
        field("sqrt(x1)")(p.x, p.y)
    with pytest.raises(EvaluationDomainError):
        field("(1e200+x2)^2.5")(p.x, p.y)


def test_epoint_rejects_nonfinite():
    with pytest.raises(ValueError):
        EPoint((float("nan"), 0.0), 1.0)


class _LoopJet:
    """Reference Jet arithmetic written as one generator expression per
    component: the bitwise standard for :class:`Jet`'s component loops."""

    __slots__ = ("value", "dx", "dy")

    def __init__(self, value, dx, dy):
        self.value = value
        self.dx = tuple(dx)
        self.dy = dy

    def __add__(self, other):
        if isinstance(other, _LoopJet):
            return _LoopJet(self.value + other.value,
                            tuple(a + b for a, b in zip(self.dx, other.dx)),
                            self.dy + other.dy)
        return _LoopJet(self.value + other, self.dx, self.dy)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _LoopJet):
            return _LoopJet(self.value - other.value,
                            tuple(a - b for a, b in zip(self.dx, other.dx)),
                            self.dy - other.dy)
        return _LoopJet(self.value - other, self.dx, self.dy)

    def __rsub__(self, other):
        return _LoopJet(other - self.value, tuple(-a for a in self.dx),
                        -self.dy)

    def __mul__(self, other):
        if isinstance(other, _LoopJet):
            u, v = self.value, other.value
            return _LoopJet(
                u * v,
                tuple(a * v + u * b for a, b in zip(self.dx, other.dx)),
                self.dy * v + u * other.dy)
        return _LoopJet(self.value * other, tuple(a * other for a in self.dx),
                        self.dy * other)

    __rmul__ = __mul__

    def __neg__(self):
        return _LoopJet(-self.value, tuple(-a for a in self.dx), -self.dy)

    def chain(self, fv, dfv):
        return _LoopJet(fv, tuple(dfv * a for a in self.dx), dfv * self.dy)


JET_M = 2
# Every float, with signed zeros, infinities and NaN given extra weight.
any_float = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -5e-324]))


def _tree(depth):
    """A nested (value, dx, dy) tree of uniform depth; depth 0 is a float."""
    if depth == 0:
        return any_float
    sub = _tree(depth - 1)
    return st.tuples(sub, st.lists(sub, min_size=JET_M, max_size=JET_M), sub)


trees = st.integers(0, 3).flatmap(_tree)
shallow_trees = st.integers(0, 1).flatmap(_tree)


def _build(tree, cls):
    if isinstance(tree, tuple):
        return cls(_build(tree[0], cls), [_build(a, cls) for a in tree[1]],
                   _build(tree[2], cls))
    return tree


@given(x=trees, y=trees, c=any_float, fv=shallow_trees, dfv=shallow_trees)
@settings(max_examples=200, deadline=None)
def test_jet_kernels_match_per_component_loops(x, y, c, fv, dfv):
    """+ - * neg, float - Jet and chain give the reference's bits, signed
    zeros and NaN included, on nested Jets of depth 0-3."""
    def ops(cls):
        a, b = _build(x, cls), _build(y, cls)
        out = [a + b, b + a, a - b, b - a, a * b, b * a, -a, c - a, a + c,
               a * c, c * a]
        if isinstance(a, cls):
            out.append(a.chain(_build(fv, cls), _build(dfv, cls)))
        return out

    assert bits(ops(Jet)) == bits(ops(_LoopJet))
