import cProfile
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkgeom.calculus import (
    EPoint,
    EvaluationDomainError,
    Jet,
    _jet_class,
    _recip,
    jdx,
    primal,
    seeded_point,
    shared,
    structural,
)
from conftest import DATA_DIR, SCENARIO_DIR, bits, field
from reference import fd_partial, partial

from kkgeom.cli import main
from kkgeom.nlconnection import adapted_derivatives
from kkgeom.sampling import Box, sample_points


def test_partial_of_constant_is_zero():
    f = field("5")
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
    f = field("3.5")
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


SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def _loop_primal(s):
    while isinstance(s, _LoopJet):
        s = s.value
    return s


def _loop_finite(s):
    """Whether every float leaf of ``s`` is finite."""
    if isinstance(s, _LoopJet):
        return all(map(_loop_finite, (s.value, *s.dx, s.dy)))
    return math.isfinite(s)


def _loop_jdiv(a, b):
    if isinstance(a, _LoopJet) or isinstance(b, _LoopJet):
        if not isinstance(a, _LoopJet):
            m = len(b.dx)
            a = _LoopJet(a, (0.0,) * m, 0.0)
        return a / b
    if b == 0.0:
        raise EvaluationDomainError("division by zero")
    return a / b


def _loop_recip(v):
    if isinstance(v, _LoopJet):
        if _loop_primal(v.value) == 0.0:
            raise EvaluationDomainError("division by zero")
        inv = _loop_recip(v.value)
        factor = -(inv * inv)
        return _LoopJet(inv, tuple(a * factor for a in v.dx), v.dy * factor)
    if v == 0.0:
        raise EvaluationDomainError("division by zero")
    return 1.0 / v


class _LoopJet:
    """Reference Jet arithmetic written as one generator expression per
    component: the bitwise standard for the generated kernels of
    :class:`Jet`.  A Jet whose leaves are all finite times a float zero,
    or a float zero over such a Jet, is the float zero of its primal, as
    in :class:`Jet`."""

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
        if other == 0 and _loop_finite(self):
            return _loop_primal(self) * other
        return _LoopJet(self.value * other, tuple(a * other for a in self.dx),
                        self.dy * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, _LoopJet):
            if _loop_primal(other.value) == 0.0:
                raise EvaluationDomainError("division by zero")
            u, v = self.value, other.value
            inv2 = _loop_recip(v * v)
            return _LoopJet(
                _loop_jdiv(u, v),
                tuple((a * v - u * b) * inv2
                      for a, b in zip(self.dx, other.dx)),
                (self.dy * v - u * other.dy) * inv2)
        if _loop_primal(other) == 0.0:
            raise EvaluationDomainError("division by zero")
        return _LoopJet(_loop_jdiv(self.value, other),
                        tuple(_loop_jdiv(a, other) for a in self.dx),
                        _loop_jdiv(self.dy, other))

    def __rtruediv__(self, other):
        if _loop_primal(self.value) == 0.0:
            raise EvaluationDomainError("division by zero")
        if other == 0 and _loop_finite(self):
            return other / _loop_primal(self)
        u = self.value
        factor = (-other) * _loop_recip(u * u)
        return _LoopJet(_loop_jdiv(other, u), tuple(a * factor for a in self.dx),
                        self.dy * factor)

    def __neg__(self):
        return _LoopJet(-self.value, tuple(-a for a in self.dx), -self.dy)

    def chain(self, fv, dfv):
        return _LoopJet(fv, tuple(dfv * a for a in self.dx), dfv * self.dy)


# Every float, with signed zeros, infinities and NaN given extra weight.
any_float = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, 1e308, -5e-324]))


def _tree(m, depth):
    """A nested (value, dx, dy) tree with m partials per node and a value
    of depth ``depth - 1``; depth 0 is a float.  A partial is a tree of the
    value's depth or a float, as ``seeded_point`` puts float partials under
    Jet values from depth 2 on."""
    if depth == 0:
        return any_float
    sub = _tree(m, depth - 1)
    part = st.one_of(sub, any_float) if depth > 1 else sub
    return st.tuples(sub, st.lists(part, min_size=m, max_size=m), part)


def _build(tree, cls):
    if isinstance(tree, tuple):
        return cls(_build(tree[0], cls), [_build(a, cls) for a in tree[1]],
                   _build(tree[2], cls))
    return tree


def _outcome(op):
    """``bits`` of ``op()``, or the domain error it raises."""
    try:
        return bits(op())
    except (EvaluationDomainError, ZeroDivisionError) as exc:
        return type(exc).__name__, str(exc)


@given(data=st.data())
@settings(max_examples=300, deadline=None)
def test_jet_kernels_match_per_component_loops(data):
    """Every generated kernel (+ - * / neg, float - Jet, float / Jet,
    _recip and chain) gives the reference's bits, signed zeros and NaN
    included, or raises the same domain error, on nested Jets of depth 0-3
    with m = 1-4 partials and float partials under Jet values."""
    m = data.draw(st.integers(1, 4), label="m")
    trees = st.integers(0, 3).flatmap(lambda depth: _tree(m, depth))
    shallow_trees = st.integers(0, 1).flatmap(lambda depth: _tree(m, depth))
    x, y = data.draw(trees, label="x"), data.draw(trees, label="y")
    c = data.draw(any_float, label="c")
    fv = data.draw(shallow_trees, label="fv")
    dfv = data.draw(shallow_trees, label="dfv")

    def ops(cls, recip):
        a, b = _build(x, cls), _build(y, cls)
        out = [lambda: a + b, lambda: b + a, lambda: a - b, lambda: b - a,
               lambda: a * b, lambda: b * a, lambda: -a, lambda: c - a,
               lambda: a + c, lambda: a * c, lambda: c * a]
        if isinstance(a, cls) or isinstance(b, cls):
            out += [lambda: a / b, lambda: b / a]
        if isinstance(a, cls):
            out += [lambda: a / c, lambda: c / a, lambda: 1.0 / a,
                    lambda: recip(a),
                    lambda: a.chain(_build(fv, cls), _build(dfv, cls))]
        return [_outcome(op) for op in out]

    assert ops(Jet, _recip) == ops(_LoopJet, _loop_recip)


@given(data=st.data(), z=st.sampled_from([0.0, -0.0, 0]))
@settings(max_examples=300, deadline=None)
def test_a_finite_jet_times_a_zero_is_a_float_zero(data, z):
    """A Jet whose leaves are all finite, times a float or int zero in
    either order, is the float ``primal(J) * z``; a Jet with an inf or NaN
    leaf takes the full product, component by component, so a 0 * inf
    still reads NaN.  Over nested Jets of depth 1-3 with m = 1-4 and float
    partials under Jet values."""
    m = data.draw(st.integers(1, 4), label="m")
    tree = data.draw(st.integers(1, 3).flatmap(lambda d: _tree(m, d)),
                     label="tree")
    jet = _build(tree, Jet)
    for product in (jet * z, z * jet):
        if _loop_finite(_build(tree, _LoopJet)):
            assert type(product) is float
            assert float.hex(product) == float.hex(primal(jet) * z)
        else:
            assert bits(product) == bits(Jet(jet.value * z,
                                             [a * z for a in jet.dx],
                                             jet.dy * z))


@given(data=st.data(), z=st.sampled_from([0.0, -0.0, 0]))
@settings(max_examples=300, deadline=None)
def test_a_zero_over_a_finite_jet_is_a_float_zero(data, z):
    """A float or int zero over a Jet whose leaves are all finite is the
    float ``z / primal(J)``; over a Jet with an inf or NaN leaf it is the
    full quotient of the per-component loop, or the same domain error, and
    over a Jet whose primal is zero it raises.  Over nested Jets of depth
    1-3 with m = 1-4 and float partials under Jet values."""
    m = data.draw(st.integers(1, 4), label="m")
    tree = data.draw(st.integers(1, 3).flatmap(lambda d: _tree(m, d)),
                     label="tree")
    jet, loop = _build(tree, Jet), _build(tree, _LoopJet)
    got = _outcome(lambda: z / jet)
    if primal(jet) == 0.0:
        assert got == ("EvaluationDomainError", "division by zero")
    elif _loop_finite(loop):
        assert type(z / jet) is float
        assert got == float.hex(z / primal(jet))
    else:
        assert not isinstance(got, str)
        assert got == _outcome(lambda: z / loop)


def test_a_zero_over_a_tiny_jet_is_a_float_zero():
    """Where u * u underflows, the full quotient's 1 / u^2 raised "division
    by zero"; a zero over a finite Jet is now that zero, at every depth."""
    point = ((1e-200,), 1.0)
    for _ in range(3):
        point = seeded_point(*point)
        x = point[0][0]
        assert float.hex(0.0 / x) == float.hex(0.0)
        assert float.hex(-0.0 / x) == float.hex(-0.0)
        with pytest.raises(EvaluationDomainError, match="division by zero"):
            1.0 / x


def test_shared_keeps_one_tuple_of_equal_ones():
    """``shared`` returns an equal table whose equal tuples, at any depth,
    are one object; ``structural`` keys a mask that marks nothing as
    None."""
    table = ((0, (1, 2)), (0, (1, 2)), ((1, 2), 3))
    out = shared(table)
    assert out == table
    assert out[0] is out[1]
    assert out[0][1] is out[2][0]
    assert structural(((False,), (False,))) is None
    assert structural(None) is None
    mask = ((False,), (True,))
    assert structural(mask) is mask


def test_a_structural_zero_reaches_no_derivative_check():
    """``0*x1`` at a seeded point, and a Jet times it, is the float zero,
    so the checks that only a derivative needs (sqrt at 0, a varying
    exponent's positive base) do not see it: at 1-3-fold seedings the
    evaluation gives the float evaluation's value, where the first two
    raised on the Jet of zeros."""
    xs, y = (-0.5, 0.25), 1.0
    for src in ("sqrt(0*x1)", "x1^(0*x2)", "sin(x2) * (0*x1)"):
        f = field(src)
        want, point = f(xs, y), (xs, y)
        for _ in range(3):
            point = seeded_point(*point)
            got = f(*point)
            assert type(got) is float
            assert float.hex(primal(got)) == float.hex(want)


def _expressions(m):
    """Source text over x1..xm and y0 with sums, products, literal zero
    factors, sin, exp and integer powers."""
    names = [f"x{i + 1}" for i in range(m)] + ["y0", "0.5", "2", "0"]

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*"), children).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"),
            children.map(lambda c: f"0*{c}"),
            st.tuples(st.sampled_from(["sin", "exp"]), children).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(children, st.integers(-2, 4)).map(
                lambda t: f"({t[0]})^({t[1]})"))

    return st.recursive(st.sampled_from(names), extend, max_leaves=8)


def _primal_outcome(f, xs, y):
    """``float.hex`` of the primal of ``f(xs, y)``, or the domain error
    it raises."""
    try:
        return float.hex(primal(f(xs, y)))
    except EvaluationDomainError as exc:
        return str(exc)


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_the_primal_of_a_jet_evaluation_is_the_float_evaluation(data):
    """The value component of an expression evaluated on 1-, 2- and
    3-fold seeded coordinates has the bits of its evaluation at the float
    point, sign of zero included, or raises the same domain error."""
    m = data.draw(st.integers(1, 3), label="m")
    src = data.draw(_expressions(m), label="src")
    coords = st.floats(-3.0, 3.0, allow_nan=False)
    xs = tuple(data.draw(st.lists(coords, min_size=m, max_size=m),
                         label="xs"))
    y = data.draw(coords, label="y")
    f = field(src, m)
    want = _primal_outcome(f, xs, y)
    point = (xs, y)
    for _ in range(3):
        point = seeded_point(*point)
        assert _primal_outcome(f, *point) == want


def test_a_jet_gets_the_kernels_of_its_m():
    """``Jet(v, dx, dy)`` is an instance of the subclass generated for
    m = len(dx), whose arithmetic is its own; each m's class is generated
    once per process."""
    for _ in range(2):
        for m in range(1, 5):
            jet = Jet(0.5, [1.0] * m, 0.0)
            assert isinstance(jet, Jet) and type(jet) is _jet_class(m)
            assert jet.dx == (1.0,) * m
            assert type(jet) is type(jet * jet) is type(jet.chain(1.0, 2.0))
            assert "__mul__" in vars(type(jet))
    assert not {"__add__", "__mul__", "__truediv__", "chain"} & set(vars(Jet))
    names = [cls.__name__ for cls in Jet.__subclasses__()]
    assert sorted(set(names)) == sorted(names)
    assert {"Jet1", "Jet2", "Jet3", "Jet4"} <= set(names)


def test_a_load_builds_no_jet_class():
    """Kernels are generated on the first Jet of an m, so a fresh process
    that loads scenarios generates none."""
    code = ("import sys, kkgeom.cli\n"
            "from kkgeom.calculus import Jet\n"
            "from kkgeom.scenario import load_scenario\n"
            "for path in sys.argv[1:]:\n"
            "    load_scenario(path)\n"
            "print(Jet.__subclasses__())\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SCENARIO_DIR / "d1.json"),
         str(DATA_DIR / "gen3_seed1.json")], capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC_ROOT)))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "[]\n"


def test_jet_traffic_of_a_gen3_check(monkeypatch, capsys):
    """Every Jet runs ``Jet.__init__``: one ``check --suite all`` on the
    generated p = m = 3 scenario builds as many Jets as it did with the
    comprehension loops that the generated kernels replaced, less those
    that the metric connection's vh and vv no longer build by evaluating
    g and g00 again (12,950 before they read hh's and hv's passes), and
    those of vh's zero baseline ring terms (12,501 before vh read only
    the fiber derivative of g), those that a finite Jet times a float
    zero no longer builds, now the float zero of its primal (12,428
    before), those that a float zero over a finite Jet no longer builds
    (6,085 before; 4,723 with that rule alone), and those of the Koszul,
    Rh/Rv and split terms that the scenario's zero masks leave out."""
    built = 0
    init = Jet.__init__

    def counting_init(self, value, dx, dy):
        nonlocal built
        built += 1
        init(self, value, dx, dy)

    monkeypatch.setattr(Jet, "__init__", counting_init)
    code = main(["check", str(DATA_DIR / "gen3_seed1.json"), "--suite", "all",
                 "--samples", "1", "--seed", "1"])
    assert code == 0
    assert built == 4519


def test_jet_traffic_and_passes_of_a_d1_check(monkeypatch, capsys):
    """The p = 2 shape of the desk: one ``check --suite all`` on d1 at the
    default sample counts builds as many Jets, in as many derivative
    passes, as it did with the per-entry loops that the generated oracle,
    Rh/Rv and contraction kernels replaced, less those that the metric
    connection's vh and vv no longer build by evaluating g and g00 again
    (23,117 Jets before they read hh's and hv's passes; the passes
    stay), those of vh's zero baseline ring terms (20,917 before vh
    read only the fiber derivative of g), those that a finite Jet times a
    float zero no longer builds, now the float zero of its primal (20,337
    before; the passes stay), those that a float zero over a finite Jet
    no longer builds (7,005 before; 6,425 with that rule alone), and those
    of the terms that the scenario's zero masks leave out (the passes
    stay)."""
    built = 0
    init = Jet.__init__

    def counting_init(self, value, dx, dy):
        nonlocal built
        built += 1
        init(self, value, dx, dy)

    monkeypatch.setattr(Jet, "__init__", counting_init)
    profile = cProfile.Profile()
    profile.enable()
    try:
        code = main(["check", str(SCENARIO_DIR / "d1.json"), "--suite",
                     "all", "--seed", "1"])
    finally:
        profile.disable()
    assert code == 0
    passes = sum(entry.callcount for entry in profile.getstats()
                 if entry.code is adapted_derivatives.__code__)
    assert (built, passes) == (6277, 484)
