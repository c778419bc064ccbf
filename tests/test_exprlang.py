import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkgeom.calculus import (
    EPoint,
    EvaluationDomainError,
    Jet,
    jval,
    seeded_point,
)
from kkgeom.exprlang import (
    _ENV,
    _MAX_NESTING,
    BinOp,
    Call,
    Neg,
    Num,
    ParseError,
    Var,
    _codegen,
    compile_expr,
    constant_table,
    parse,
)
from kkgeom.sampling import Box, sample_points
from conftest import bits, field
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
    """``compile_expr`` returns the compiled code itself, a ``<lambda>``
    from ``<string>``, not a function that forwards to it: of ``(X, Y)``
    for a table on E, of ``X`` for one on the base and of ``T`` for a
    curve.  A nested list of trees compiles to one function returning the
    nested lists, a tuple of them to one returning a tuple."""
    def nodes(srcs, **kw):
        return [parse(s, 2, **kw) for s in srcs]

    f = compile_expr(parse("x1*y0 + x2", 2), "X, Y")
    g = compile_expr([nodes(["x1*y0", "x2"]), nodes(["1", "-y0"])], "X, Y")
    r = compile_expr([nodes(["x1", "2*x2"], allow_y=False)], "X")
    c = compile_expr(tuple(parse(s, 0, allow_y=False, allow_t=True)
                           for s in ("2*t", "t^2")), "T")
    for fn, nargs in ((f, 2), (g, 2), (r, 1), (c, 1)):
        code = fn.__code__
        assert (code.co_name, code.co_filename, code.co_argcount) \
            == ("<lambda>", "<string>", nargs)
    assert f((3.0, 1.0), 2.0) == 7.0
    assert g((3.0, 1.0), 2.0) == [[6.0, 1.0], [1.0, -2.0]]
    assert r((3.0, 1.0)) == [[3.0, 2.0]] and c(1.5) == (3.0, 2.25)


CONSTANT_ENTRIES = ["0", "-0", "--1", "1e-308", "0.271", "-0.503", "1e5"]


def _constant_nodes(shape, start):
    """A table of ``shape`` (``"curve"`` for a tuple of seven) whose
    entries run through CONSTANT_ENTRIES from ``start``, parsed."""
    count = itertools.count(start)

    def build(dims):
        if not dims:
            src = CONSTANT_ENTRIES[next(count) % len(CONSTANT_ENTRIES)]
            return parse(src, 0 if shape == "curve" else 2,
                         allow_y=shape != "curve", allow_t=shape == "curve")
        return [build(dims[1:]) for _ in range(dims[0])]

    if shape == "curve":
        return tuple(build((7,)))
    return build(shape)


def _structure(value):
    """The nesting of lists and tuples of a table, without its numbers."""
    if isinstance(value, (list, tuple)):
        return (type(value), tuple(map(_structure, value)))
    return type(value)


def _lists(value):
    return [value] + [sub for entry in value if isinstance(entry, list)
                      for sub in _lists(entry)] \
        if isinstance(value, list) else []


_FLOAT_ARGS = {"X, Y": ((0.3, -0.2), 1.5), "X": ((0.3, -0.2),), "T": (0.7,)}
_JET_ARGS = {"X, Y": seeded_point((0.3, -0.2), 1.5),
             "X": (seeded_point((0.3, -0.2), 1.5)[0],),
             "T": (Jet(0.7, (1.0,), 0.0),)}


@pytest.mark.parametrize("start", range(len(CONSTANT_ENTRIES)))
@pytest.mark.parametrize("shape,params", [
    ((), "X, Y"), ((7,), "X"), ((7, 2), "X, Y"), ((2, 7, 3), "X, Y"),
    ("curve", "T")], ids=["rank0", "rank1", "rank2", "rank3", "curve"])
def test_constant_tables_are_the_compiled_values(shape, params, start):
    """A table whose every entry is a number (under signs: ``-0``,
    ``--1``) is not compiled: ``compile_expr`` returns the constant
    evaluator, whose result at float and Jet arguments is bitwise the
    result of the table's generated ``lambda`` (-0.0 included), with the
    same lists and tuples, in new lists at every level on every call."""
    nodes = _constant_nodes(shape, start)
    fn = compile_expr(nodes, params)
    assert fn.__code__ is constant_table(0.0).__code__
    compiled = eval(f"lambda {params}: {_codegen(nodes)}", dict(_ENV))
    for args in (_FLOAT_ARGS[params], _JET_ARGS[params]):
        first, second = fn(*args), fn(*args)
        want = compiled(*args)
        for got in (first, second):
            assert bits(got) == bits(want)
            assert _structure(got) == _structure(want)
        ids = [id(node) for node in _lists(first) + _lists(second)]
        assert len(set(ids)) == len(ids)


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


def test_the_nesting_limit_does_not_depend_on_the_stack():
    """Parentheses and calls nest up to one fixed depth, also when the
    caller is deep in its own stack; one level more is refused at the
    parenthesis that opens it."""
    deepest = "sin(" * _MAX_NESTING + "x1" + ")" * _MAX_NESTING

    def parse_below(frames):
        return parse_below(frames - 1) if frames else parse(deepest, 2)

    assert parse(deepest, 2) == parse_below(200)
    assert parse("(" * _MAX_NESTING + "x1" + ")" * _MAX_NESTING, 2) == \
        Var("x", 0)
    for src, offset in (("(" * 197 + "x1" + ")" * 197, 196),
                        ("sin(" * 197 + "x1" + ")" * 197, 4 * 197 - 1),
                        ("pow(x1, " * 197 + "x1" + ")" * 197, 8 * 196 + 3)):
        with pytest.raises(ParseError) as exc:
            parse(src, 2)
        assert (exc.value.offset, exc.value.expected) == (
            offset, f"at most {_MAX_NESTING} nested parentheses")


def test_deep_operation_chains_are_parse_errors():
    # compiled code nests one level per operation, and up to three more in
    # a table's display
    assert field("+".join(["x1"] * 197))((1.0, 0.0), 0.0) == 197.0
    for src in ("+".join(["x1"] * 198), "+".join(["x1"] * 250),
                "-" * 250 + "x1",
                "sin(" * 250 + "x1" + ")" * 250, "^".join(["1"] * 3000)):
        with pytest.raises(ParseError):
            parse(src, 2)
