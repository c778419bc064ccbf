"""Small expression language for user-supplied fields.

Grammar (whitespace insignificant, ASCII only):

    expr   := term  (('+'|'-') term)*          left associative
    term   := factor (('*'|'/') factor)*       left associative
    factor := '-' factor | power
    power  := atom ('^' factor)?               right associative, binds tightest
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers: variables x1..xm, y0, t (where permitted); functions sin, cos,
tan, exp, log, sqrt, abs, pow; constants pi, e.  ``pow(a, b)`` parses to the
same node as ``a ^ b``.  A parsed tree compiles once into a plain function,
of ``(xs, y)`` for a field and of ``t`` for a curve component, that runs
the same arithmetic path on float and Jet coordinates.
"""

from __future__ import annotations

import math
import re

from .calculus import (
    _jdiv,
    fabs_,
    fcos,
    fexp,
    flog,
    fpow,
    fsin,
    fsqrt,
    ftan,
)

__all__ = ["ParseError", "Expr", "Num", "Var", "BinOp", "Neg", "Call",
           "parse", "eval_field", "compile_expr", "curve_function"]

UNARY_FUNCS = {"sin": fsin, "cos": fcos, "tan": ftan, "exp": fexp,
               "log": flog, "sqrt": fsqrt, "abs": fabs_}
CONSTANTS = {"pi": math.pi, "e": math.e}


class ParseError(ValueError):
    """Malformed expression; carries the byte offset and what was expected."""

    def __init__(self, offset: int, expected: str):
        super().__init__(f"parse error at offset {offset}: expected {expected}")
        self.offset = offset
        self.expected = expected


class Expr:
    """A node of a parsed expression.  Nodes compare and hash by value: by
    class and by the attributes named in ``__slots__``."""

    __slots__ = ()

    def _key(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())


class Num(Expr):
    __slots__ = ("value",)

    def __init__(self, value: float):
        self.value = value


class Var(Expr):
    __slots__ = ("kind", "index")

    def __init__(self, kind: str, index: int = 0):
        self.kind = kind      # "x", "y" or "t"
        self.index = index    # 0-based base-coordinate index, only for kind "x"


class BinOp(Expr):
    __slots__ = ("op", "left", "right")

    def __init__(self, op: str, left: Expr, right: Expr):
        self.op = op          # one of + - * / ^
        self.left = left
        self.right = right


class Neg(Expr):
    __slots__ = ("child",)

    def __init__(self, child: Expr):
        self.child = child


class Call(Expr):
    __slots__ = ("func", "arg")

    def __init__(self, func: str, arg: Expr):
        self.func = func
        self.arg = arg


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),]))"
)


def _tokenize(src: str):
    tokens = []
    pos = 0
    n = len(src)
    while pos < n:
        mobj = _TOKEN_RE.match(src, pos)
        if mobj is None:
            # skip pure whitespace tail
            if src[pos:].strip() == "":
                break
            offset = pos + len(src[pos:]) - len(src[pos:].lstrip())
            raise ParseError(offset, "a number, identifier or operator")
        if mobj.group("num") is not None:
            value = float(mobj.group("num"))
            if not math.isfinite(value):
                raise ParseError(mobj.start("num"),
                                 "a number within the float range")
            tokens.append(("num", value, mobj.start("num")))
        elif mobj.group("ident") is not None:
            tokens.append(("ident", mobj.group("ident"), mobj.start("ident")))
        else:
            tokens.append(("op", mobj.group("op"), mobj.start("op")))
        pos = mobj.end()
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, m, allow_y, allow_t):
        self.tokens = tokens
        self.i = 0
        self.m = m
        self.allow_y = allow_y
        self.allow_t = allow_t

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op, expected):
        kind, value, offset = self.peek()
        if kind != "op" or value != op:
            raise ParseError(offset, expected)
        return self.advance()

    def parse_expr(self):
        node = self.parse_term()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "+-":
                self.advance()
                node = BinOp(value, node, self.parse_term())
            else:
                return node

    def parse_term(self):
        node = self.parse_factor()
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value in "*/":
                self.advance()
                node = BinOp(value, node, self.parse_factor())
            else:
                return node

    def parse_factor(self):
        kind, value, _ = self.peek()
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.parse_factor())
        return self.parse_power()

    def parse_power(self):
        node = self.parse_atom()
        kind, value, _ = self.peek()
        if kind == "op" and value == "^":
            self.advance()
            return BinOp("^", node, self.parse_factor())
        return node

    def parse_atom(self):
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            node = self.parse_expr()
            self.expect_op(")", "')'")
            return node
        if kind == "ident":
            return self.parse_ident(value, offset)
        raise ParseError(offset, "an operand")

    def parse_ident(self, name, offset):
        nkind, nvalue, _ = self.peek()
        if nkind == "op" and nvalue == "(":
            return self.parse_call(name, offset)
        if name in CONSTANTS:
            return Num(CONSTANTS[name])
        if name == "y0":
            if not self.allow_y:
                raise ParseError(offset, "a base-only expression (y0 not allowed here)")
            return Var("y")
        if name == "t":
            if not self.allow_t:
                raise ParseError(offset, "an identifier (t only allowed in curve expressions)")
            return Var("t")
        if re.fullmatch(r"x\d+", name):
            index = int(name[1:])
            if not 1 <= index <= self.m:
                raise ParseError(offset, f"a variable index in 1..{self.m}")
            return Var("x", index - 1)
        raise ParseError(offset, f"a known identifier (got {name!r})")

    def parse_call(self, name, offset):
        self.expect_op("(", "'('")
        args = [self.parse_expr()]
        while True:
            kind, value, _ = self.peek()
            if kind == "op" and value == ",":
                self.advance()
                args.append(self.parse_expr())
            else:
                break
        self.expect_op(")", "')' or ','")
        if name == "pow":
            if len(args) != 2:
                raise ParseError(offset, "pow with exactly two arguments")
            return BinOp("^", args[0], args[1])
        if name in UNARY_FUNCS:
            if len(args) != 1:
                raise ParseError(offset, f"{name} with exactly one argument")
            return Call(name, args[0])
        raise ParseError(offset, f"a known function (got {name!r})")


# Compiled closures wrap every operation in one level of parentheses, and
# CPython's tokenizer refuses 200 nested levels.
_MAX_DEPTH = 199


def _depth(node: Expr) -> int:
    """Operation nodes on the longest root-to-leaf path (iterative, so it
    works on trees deeper than the recursion limit)."""
    deepest = 0
    stack = [(node, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, BinOp):
            children = (node.left, node.right)
        elif isinstance(node, Neg):
            children = (node.child,)
        elif isinstance(node, Call):
            children = (node.arg,)
        else:
            deepest = max(deepest, d)
            continue
        stack.extend((child, d + 1) for child in children)
    return deepest


def parse(src: str, m: int, *, allow_y: bool = True, allow_t: bool = False) -> Expr:
    """Parse ``src`` against base dimension ``m``; raises ParseError on bad
    input, including nesting too deep to parse or compile."""
    tokens = _tokenize(src)
    parser = _Parser(tokens, m, allow_y, allow_t)
    try:
        node = parser.parse_expr()
    except RecursionError:
        raise ParseError(parser.peek()[2],
                         "a less deeply nested expression") from None
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, "end of input or an operator")
    # every operation owns at least one token, so short inputs skip the walk
    if len(tokens) > _MAX_DEPTH and _depth(node) > _MAX_DEPTH:
        raise ParseError(0, f"at most {_MAX_DEPTH} nested operations")
    return node


def _codegen(node: Expr) -> str:
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Var):
        return {"x": f"X[{node.index}]", "y": "Y", "t": "T"}[node.kind]
    if isinstance(node, Neg):
        return f"(-{_codegen(node.child)})"
    if isinstance(node, Call):
        return f"f{node.func}({_codegen(node.arg)})" if node.func != "abs" \
            else f"fabs_({_codegen(node.arg)})"
    if isinstance(node, BinOp):
        a, b = _codegen(node.left), _codegen(node.right)
        if node.op == "^":
            return f"fpow({a}, {b})"
        if node.op == "/":
            return f"_jdiv({a}, {b})"
        return f"({a}{node.op}{b})"
    raise TypeError(f"not an Expr node: {node!r}")


_ENV = {"fsin": fsin, "fcos": fcos, "ftan": ftan, "fexp": fexp, "flog": flog,
        "fsqrt": fsqrt, "fabs_": fabs_, "fpow": fpow, "_jdiv": _jdiv,
        "__builtins__": {}}


def compile_expr(node: Expr, params: str):
    """Compile to ``lambda <params>: <node>``, the one compile site: params
    "X, Y" (X indexable, Y scalar) for a field, "T" for a curve component."""
    return eval(f"lambda {params}: {_codegen(node)}", dict(_ENV))


def eval_field(node: Expr):
    """A parsed expression as a field on E: a function of ``(xs, y)``."""
    return compile_expr(node, "X, Y")


def curve_function(node: Expr):
    """A parsed curve-component expression as a function of ``t``."""
    return compile_expr(node, "T")
