"""Small expression language for user-supplied fields.

Grammar (whitespace insignificant, ASCII only):

    expr   := term  (('+'|'-') term)*          left associative
    term   := factor (('*'|'/') factor)*       left associative
    factor := '-' factor | power
    power  := atom ('^' factor)?               right associative, binds tightest
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Identifiers: variables x1..xm, y0, t (where permitted); functions sin, cos,
tan, exp, log, sqrt, abs, pow; constants pi, e.  ``pow(a, b)`` parses to the
same node as ``a ^ b``.  A parsed tree, or a whole table of them, compiles
once into a plain function of ``(X, Y)`` on E, of ``X`` on the base, or of
``T`` for a curve, that runs the same arithmetic path on float and Jet
coordinates.  A table whose every entry is a number is not compiled: its
evaluator returns its value, whatever the arguments.
"""

from __future__ import annotations

import marshal
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
           "parse", "compile_expr", "constant_table"]

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

    def parse_expr(self, depth=0):
        """An expr inside ``depth`` levels of parentheses (a call's
        included).  Its terms, factors, signs and powers are loops in this
        one frame; only an operand in parentheses and a call's arguments
        recurse, through :meth:`parse_atom`, two frames a level, and a
        level past ``_MAX_NESTING`` is refused before recursing."""
        tokens = self.tokens
        expr = add_op = None
        while True:
            term = mul_op = None
            while True:
                # factor := '-' factor | atom ('^' factor)?: the signs and
                # atoms of a power chain, nested from the right; each sign
                # and each '^' nests one operation deeper
                chain, nested = [], 0
                while True:
                    signs = 0
                    kind, value, _ = tokens[self.i]
                    while kind == "op" and value == "-":
                        self.i += 1
                        signs += 1
                        kind, value, _ = tokens[self.i]
                    nested += signs
                    if nested > _MAX_DEPTH:
                        raise ParseError(0, f"at most {_MAX_DEPTH} nested "
                                         f"operations")
                    factor = self.parse_atom(depth)
                    kind, value, _ = tokens[self.i]
                    if kind != "op" or value != "^":
                        break
                    self.i += 1
                    nested += 1
                    chain.append((signs, factor))
                while True:
                    for _ in range(signs):
                        factor = Neg(factor)
                    if not chain:
                        break
                    signs, base = chain.pop()
                    factor = BinOp("^", base, factor)
                term = factor if term is None else BinOp(mul_op, term,
                                                         factor)
                if kind != "op" or value not in "*/":
                    break
                self.i += 1
                mul_op = value
            expr = term if expr is None else BinOp(add_op, expr, term)
            if kind != "op" or value not in "+-":
                return expr
            self.i += 1
            add_op = value

    def parse_atom(self, depth):
        kind, value, offset = self.advance()
        if kind == "num":
            return Num(value)
        if kind == "op" and value == "(":
            self.check_nesting(depth, offset)
            node = self.parse_expr(depth + 1)
            self.expect_op(")", "')'")
            return node
        if kind != "ident":
            raise ParseError(offset, "an operand")
        if self.peek()[:2] != ("op", "("):
            return self.parse_ident(value, offset)
        # a call: its arguments, then its name and their number
        self.check_nesting(depth, self.advance()[2])
        args = [self.parse_expr(depth + 1)]
        while self.peek()[:2] == ("op", ","):
            self.advance()
            args.append(self.parse_expr(depth + 1))
        self.expect_op(")", "')' or ','")
        if value == "pow":
            if len(args) != 2:
                raise ParseError(offset, "pow with exactly two arguments")
            return BinOp("^", args[0], args[1])
        if value in UNARY_FUNCS:
            if len(args) != 1:
                raise ParseError(offset, f"{value} with exactly one argument")
            return Call(value, args[0])
        raise ParseError(offset, f"a known function (got {value!r})")

    @staticmethod
    def check_nesting(depth, offset):
        """Refuse the parenthesis at ``offset`` that would open level
        ``depth + 1``."""
        if depth >= _MAX_NESTING:
            raise ParseError(offset,
                             f"at most {_MAX_NESTING} nested parentheses")

    def parse_ident(self, name, offset):
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


# Compiled code wraps every operation in one level of parentheses, and
# CPython's tokenizer refuses 200 nested levels; an entry sits inside up to
# three brackets of its table's display (L, Hh).
_MAX_DEPTH = 196
# The parser recurses, two frames a level, only into parentheses (a call's
# included), and refuses a level past this one before it recurses: the
# limit is this number whatever the caller's stack.  196 nested calls are
# 196 operations, which compile (above) and evaluate on Jets of any depth.
_MAX_NESTING = 196


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
    node = parser.parse_expr()
    kind, _, offset = parser.peek()
    if kind != "end":
        raise ParseError(offset, "end of input or an operator")
    # every operation owns at least one token, so short inputs skip the walk
    if len(tokens) > _MAX_DEPTH and _depth(node) > _MAX_DEPTH:
        raise ParseError(0, f"at most {_MAX_DEPTH} nested operations")
    return node


def _codegen(node) -> str:
    if isinstance(node, list):
        return f"[{', '.join(map(_codegen, node))}]"
    if isinstance(node, tuple):
        return f"({''.join(_codegen(n) + ', ' for n in node)})"
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


def _value(node):
    """The value of a table (an Expr, or nested lists or a tuple of them)
    whose every entry is a number under zero or more unary minus signs:
    ``Num`` and ``Neg`` nodes, which cannot raise.  ``None`` if some entry
    is anything else."""
    if isinstance(node, (list, tuple)):
        values = []
        for entry in node:
            value = _value(entry)
            if value is None:
                return None
            values.append(value)
        return values if isinstance(node, list) else tuple(values)
    signs = 0
    while isinstance(node, Neg):
        node = node.child
        signs += 1
    if not isinstance(node, Num):
        return None
    value = node.value
    for _ in range(signs):
        value = -value
    return value


def constant_table(value):
    """An evaluator, of any arguments, of the constant table ``value`` (a
    number, nested lists or a tuple of numbers).  Each call returns fresh
    lists at every level, which ``marshal`` rebuilds from their serialised
    form in one call; it keeps every float's bits, -0.0 included."""
    blob = marshal.dumps(value)
    loads = marshal.loads
    return lambda *args: loads(blob)


def compile_expr(node, params: str):
    """Compile to ``lambda <params>: <node>``, where ``node`` is an Expr or
    a table of them: a nested list compiles to a list display, a tuple to a
    tuple display, each entry in index order.  Params are "X, Y" (X
    indexable, Y scalar) on E, "X" on the base, "T" for a curve.  A table
    whose every entry is a number (under zero or more signs) needs no code:
    it becomes :func:`constant_table` of its value, the compiled display's
    value bit for bit.  One of the two compile sites; the other,
    ``calculus.compile_kernel``, compiles the generated kernels."""
    value = _value(node)
    if value is not None:
        return constant_table(value)
    return eval(f"lambda {params}: {_codegen(node)}", dict(_ENV))
