import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkgeom.calculus import EPoint, EvaluationDomainError, jval, seeded_point
from kkgeom.exprlang import (
    BinOp,
    Call,
    Neg,
    Num,
    ParseError,
    Var,
    curve_function,
    eval_field,
    parse,
)
from kkgeom.sampling import Box, sample_points
from conftest import field
from reference import pretty


def test_basic_eval():
    assert field("2*x1 + sin(y0)")((1.0, 0.0), 0.0) == 2.0


def test_power_right_associative():
    f = field("x1^2^3")
    assert f((1.0, 0.0), 0.0) == 1.0
    g = field("x1^8")
    assert f((1.1, 0.0), 0.0) == g((1.1, 0.0), 0.0)


def test_parse_error_offset():
    with pytest.raises(ParseError) as err:
        parse("1+*2", 2)
    assert err.value.offset == 2


def test_unknown_identifier_and_bad_index():
    with pytest.raises(ParseError):
        parse("foo + 1", 2)
    with pytest.raises(ParseError):
        parse("x3", 2)
    with pytest.raises(ParseError):
        parse("x0", 2)
    with pytest.raises(ParseError):
        parse("t", 2)  # t only in curve expressions
    parse("t", 0, allow_y=False, allow_t=True)


def test_constants():
    assert field("pi")((0.5, 0.5), 0.5) == math.pi
    assert field("e")((0.5, 0.5), 0.5) == math.e


def test_pow_call_equals_caret():
    assert parse("pow(x1, 3)", 2) == parse("x1^3", 2)


def test_unary_minus_precedence():
    # ^ binds tighter than unary minus
    f = field("-x1^2")
    assert f((3.0, 0.0), 0.0) == -9.0


def test_whitespace_insignificant():
    assert parse(" 2 * x1+sin( y0 ) ", 2) == parse("2*x1+sin(y0)", 2)


def test_chain_rule_with_fd():
    from reference import fd_partial, partial
    f = field("exp(2*x1)")
    p = EPoint((0.0, 0.0), 1.0)
    assert partial(f, p, 1) == 2.0
    assert abs(partial(f, p, 1) - fd_partial(f, p, 1)) <= 1e-8


def test_x2_partial_is_one():
    from reference import partial
    assert partial(field("x2"), EPoint((0.7, -0.3), 0.9), 2) == 1.0


def test_fields_and_curves_are_the_compiled_lambdas():
    """``eval_field`` and ``curve_function`` return the compiled expression
    itself, a ``<lambda>`` of ``(xs, y)`` or of ``t`` from ``<string>``, not
    a function that forwards to it."""
    f = eval_field(parse("x1*y0 + x2", 2))
    c = curve_function(parse("2*t", 0, allow_y=False, allow_t=True))
    for fn, nargs in ((f, 2), (c, 1)):
        code = fn.__code__
        assert (code.co_name, code.co_filename, code.co_argcount) \
            == ("<lambda>", "<string>", nargs)
    assert f((3.0, 1.0), 2.0) == 7.0 and c(1.5) == 3.0


def test_division_by_zero_raises():
    f = field("1/x1")
    with pytest.raises(EvaluationDomainError):
        f((0.0, 1.0), 1.0)


def test_eval_real_equals_jet_value_bitwise():
    pts = sample_points(Box.default(2), 50, seed=5)
    for src in ["x1^2*x2 - 3*x1 + y0", "sin(x1)*cos(x2)+exp(0.5*y0)",
                "(x1+2)^3/(y0+5)", "x1/(2+x2)", "sqrt(y0+3)*tan(0.3*x1)"]:
        f = field(src)
        for pt in pts:
            plain = f(pt.x, pt.y)
            jxs, jy = seeded_point(pt.x, pt.y)
            assert jval(f(jxs, jy)) == plain  # bit-for-bit


# -- round-trip property ------------------------------------------------------

def exprs(m=2, allow_t=False):
    leaves = st.one_of(
        st.floats(min_value=0.0, max_value=100.0, allow_nan=False,
                  allow_infinity=False).map(Num),
        st.integers(min_value=0, max_value=m - 1).map(lambda i: Var("x", i)),
        st.just(Var("y")),
    )
    if allow_t:
        leaves = st.one_of(leaves, st.just(Var("t")))

    def extend(children):
        return st.one_of(
            st.tuples(st.sampled_from("+-*/^"), children, children).map(
                lambda t: BinOp(*t)),
            children.map(Neg),
            st.tuples(st.sampled_from(["sin", "cos", "tan", "exp", "log",
                                       "sqrt", "abs"]), children).map(
                lambda t: Call(*t)),
        )

    return st.recursive(leaves, extend, max_leaves=20)


@given(tree=exprs())
@settings(max_examples=300, deadline=None)
def test_pretty_roundtrip(tree):
    assert parse(pretty(tree), 2) == tree


def test_nested_parentheses():
    assert field("(" * 180 + "x1" + ")" * 180)((0.25, 0.0), 0.0) == 0.25
    for levels in (250, 3000):
        with pytest.raises(ParseError):
            parse("(" * levels + "x1" + ")" * levels, 2)


def test_deep_operation_chains_are_parse_errors():
    # compiled closures nest one level per operation
    assert field("+".join(["x1"] * 199))((1.0, 0.0), 0.0) == 199.0
    for src in ("+".join(["x1"] * 250), "-" * 250 + "x1",
                "sin(" * 250 + "x1" + ")" * 250, "^".join(["1"] * 3000)):
        with pytest.raises(ParseError):
            parse(src, 2)
