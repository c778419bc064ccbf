"""Exact forward-mode differentiation for scalar fields on E = M x K.

Points on E carry base coordinates x1..xm and one fiber coordinate y0.
Derivatives are obtained by evaluating fields on Jet-valued coordinates:
a Jet carries a value together with all first partials (d/dx1..d/dxm,
d/dy0).  Nesting Jets inside Jets yields exact second and third partials,
which is all the downstream identity suites ever need.

A field, or a whole table of them, is a plain function of ``(xs, y)``,
``xs`` a length-m sequence (of ``xs`` alone on the base M).  It runs the
same arithmetic path on floats and Jets, so the value component of a Jet
evaluation is bit-identical to a float evaluation.  Everything here
is immutable and evaluation is pure, so fields can be evaluated
concurrently and results are bit-reproducible.

A Jet whose leaves are all finite, times a float or int zero, is a
structural zero: the product is the float ``primal(J) * 0``, the value a
float evaluation computes, and no Jet of zeros is built (sparse forward
mode; Griewank & Walther, *Evaluating Derivatives*, 2nd ed., ch. 7).  A
Jet with an inf or NaN leaf takes the full product, so 0 * inf still
reads NaN.  The value of every result keeps its bits.  What a structural
zero changes is the sign of derivative entries that are zero either way
(a later ``J + 0*K`` keeps J's partials where it added +-0.0 to them), a
derivative entry beside an inf or NaN value, which reads 0 where the
zero Jet's partials times that value made NaN, and the checks that only
a Jet's derivative needs, which a float zero does not reach: a derivative
pass over ``sqrt(0*x1)`` gives 0 and one over ``x1^(0*x2)`` at x1 < 0
gives 1, as a float evaluation does, where both raised.

A float or int zero over a Jet whose leaves are all finite (``0 / J``) is
a structural zero too: the float ``0 / primal(J)``, which is the value of
the full quotient, so a zero entry of a matrix inverse (``a / pivot`` on a
0.0) is a float zero and not a Jet of zeros.  A Jet with an inf or NaN
leaf takes the full quotient, and a Jet whose primal is zero still raises
"division by zero".  What this rule changes is what the product rule
changes (the signs of zero derivative entries later sums meet, the
derivative entries beside an inf or NaN value), and one more: where u * u
underflows (|primal| below about 1e-154), the full quotient's 1 / u^2
raised "division by zero", and the rule returns the zero.

The zeros a scenario writes down are left out when a kernel is
generated: a kernel keyed by zero masks (nested tuples of bools, True at
an entry that is a float zero at every point; ``structural`` keys one
that marks nothing as the full kernel) drops the terms they make zero.
Such a term is a float zero only while its other factors have finite
leaves, so the kernel first tests them (``x * 0.0`` is a float zero
exactly then) and runs the full kernel where one is not: its bits are
the full kernel's on every input.

Jets exist only inside a derivative pass (``seeded_point`` and
``nlconnection.adapted_derivatives``): at a float point every field, and
every evaluator built on fields, returns exact floats.  Callers read those
results as they are; ``primal`` is only for code a Jet can reach.

Jet arithmetic is straight-line code generated per dimension m: the first
Jet with m partials compiles ``_KERNELS`` for that m into a subclass of
``Jet``, which every later Jet of that m (and every Jet its operations
build) belongs to.  Each kernel writes one expression per component, with
the operands and their order of a per-component loop, so it computes the
loop's bits; that loop, with the same structural zero, is kept as the
reference in ``tests/test_calculus.py`` (``_LoopJet``).

Every generated kernel of the package (these, the adapted-derivative
split, the Leibniz rule, the matrix inverse and its self-check, the Koszul
formula and vh of the metric connection, the oracle's brackets, frame
derivatives and differences, the Rh/Rv formula, the commutation and
Bianchi contractions, the validators' sums, the transformation suite's
primed-chart tables and change laws, and a lift's RK4 step and right
sides) is built on one path.  Its module declares the template once, a
``KernelTemplate``, which records the module's file and the line where
its text starts.  A function of the key returns the template's format
fields, built with the shared text helpers ``names``, ``rows`` and
``terms``, and ``kernel`` makes it the cached factory: on the first call
for a key it formats the template and compiles it with
``compile_kernel`` under that file and line, so a traceback or a profile
points at the template's own lines in its own module.
"""

from __future__ import annotations

import functools
import math
import sys
from contextlib import contextmanager
from itertools import product, starmap

__all__ = [
    "EvaluationDomainError",
    "at_point",
    "EPoint",
    "Jet",
    "seeded_point",
    "fiber_seeded_point",
    "jval",
    "jdx",
    "jdy",
    "primal",
    "fsin",
    "fcos",
    "ftan",
    "fexp",
    "flog",
    "fsqrt",
    "fabs_",
    "fpow",
]


class EvaluationDomainError(ValueError):
    """A field was evaluated outside its domain (log <= 0, x/0, overflow...).

    Carries the offending point when raised inside a sampling loop.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


@contextmanager
def at_point(point):
    """Attach ``point`` to an :class:`EvaluationDomainError` raised inside
    the block, unless the error already names a point."""
    try:
        yield
    except EvaluationDomainError as exc:
        if exc.point is None:
            exc.point = point
        raise


class EPoint:
    """A point of E: base coordinates ``x`` (length m) and fiber coordinate ``y``.

    Points compare and hash by value."""

    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = tuple(float(v) for v in x)
        self.y = float(y)
        if not all(math.isfinite(v) for v in self.x) or not math.isfinite(self.y):
            raise ValueError(f"non-finite point coordinates: {self.x}, {self.y}")

    def __repr__(self):
        return f"EPoint(x={self.x!r}, y={self.y!r})"

    def __eq__(self, other):
        if other.__class__ is not EPoint:
            return NotImplemented
        return self.x == other.x and self.y == other.y

    def __hash__(self):
        return hash((self.x, self.y))


def primal(s):
    """Fully unwrap a (possibly nested) Jet down to its underlying float."""
    while isinstance(s, Jet):
        s = s.value
    return s


def jval(s):
    return s.value if isinstance(s, Jet) else s


def jdx(s, i):
    return s.dx[i] if isinstance(s, Jet) else 0.0


def jdy(s):
    return s.dy if isinstance(s, Jet) else 0.0


class Jet:
    """Truncated first-order jet: value plus partials (dx1..dxm, dy).

    Components may themselves be Jets, which is how higher derivatives are
    taken.  Arithmetic follows the product/chain rules exactly (to IEEE
    rounding); mixed float/Jet arithmetic promotes the float to a constant.
    A Jet with only finite leaves times a float or int zero (in either
    order) is the float ``primal(self) * 0``, not a Jet of signed zeros:
    a structural zero; so is a float or int zero over it, the float ``0 /
    primal(self)``.  The primal keeps its bits; what it changes in a
    later result (chiefly the sign of a zero derivative entry) is listed
    in the module docstring.

    ``Jet(value, dx, dy)`` builds an instance of ``_jet_class(len(dx))``,
    the subclass that holds the generated arithmetic for that m; this class
    holds only what does not depend on m.  Every construction, direct or by
    a kernel, runs ``__init__``.  A direct one takes any sequence dx; the
    kernels, and the other callers of a subclass, pass a tuple.
    """

    __slots__ = ("value", "dx", "dy")

    def __init__(self, value, dx, dy):
        if type(self) is Jet:
            dx = tuple(dx)
            self.__class__ = _jet_class(len(dx))
        self.value = value
        self.dx = dx
        self.dy = dy

    def __pos__(self):
        return self

    def __pow__(self, expo):
        return fpow(self, expo)

    def __rpow__(self, base):
        return fpow(base, self)

    def __abs__(self):
        return fabs_(self)

    def __repr__(self):
        return f"Jet({self.value!r}, dx={self.dx!r}, dy={self.dy!r})"


def _jdiv(a, b):
    """a / b for floats or Jets, delegating to Jet division where needed."""
    if isinstance(a, Jet) or isinstance(b, Jet):
        if not isinstance(a, Jet):
            a = type(b)(a, (0.0,) * len(b.dx), 0.0)
        return a / b
    if b == 0.0:
        raise EvaluationDomainError("division by zero")
    return a / b


def _recip(v):
    if isinstance(v, Jet):
        if primal(v.value) == 0.0:
            raise EvaluationDomainError("division by zero")
        inv = _recip(v.value)
        return v.scaled(inv, -(inv * inv))
    if v == 0.0:
        raise EvaluationDomainError("division by zero")
    return 1.0 / v


# -- generated kernels -------------------------------------------------------


class KernelTemplate:
    """The source text of a generated kernel, with where it is written: the
    file of the module that declares it and the line on which its text
    starts.  A module declares each template once, at module level, as
    ``_NAME = KernelTemplate('''\\`` with the text from the next line on,
    so that a traceback or a profile of a kernel points at its template's
    own lines."""

    __slots__ = ("text", "filename", "line")

    def __init__(self, text):
        caller = sys._getframe(1)
        self.text = text
        self.filename = caller.f_globals["__file__"]
        self.line = caller.f_lineno + 1


def compile_kernel(source, filename, line, namespace):
    """The definition that the first line of generated ``source`` names
    (``def name(`` or ``class Name(``), run in ``namespace``.  The code is
    compiled under ``filename``, the file of the module that generates it,
    with its first line at ``line`` there: a traceback points into that
    module, and a profile charges the kernel's time to it.  The one compile
    site of generated kernels."""
    exec(compile("\n" * (line - 1) + source, filename, "exec"), namespace)
    return namespace[source[:source.index("(")].split()[-1]]


def kernel(template, **namespace):
    """Decorate ``fields(*key)`` into the cached factory of the kernels of
    ``template``, one per key, generated on first use.  ``fields`` returns
    the format fields of the template for its key, or, for a kernel whose
    globals depend on the key, those fields and those globals.  The
    factory formats the template, compiles it (:func:`compile_kernel`)
    under the template's file and line with ``namespace`` as its globals,
    and returns the definition that it names."""
    def decorate(fields):
        @functools.wraps(fields)
        def factory(*key):
            out = fields(*key)
            values, own = out if type(out) is tuple else (out, {})
            return compile_kernel(template.text.format(**values),
                                  template.filename, template.line,
                                  {**namespace, **own})
        return functools.cache(factory)
    return decorate


def names(fmt, *ranges):
    """``fmt`` formatted with each index tuple of ``ranges`` (their
    product, the last fastest), as a comma list: ``names("a{}_{}",
    range(2), [0])`` is ``a0_0, a1_0``."""
    return ", ".join(starmap(fmt.format, product(*ranges)))


def rows(fmt, outer, inner):
    """A tuple display of :func:`names` of ``fmt`` over ``inner``, after
    each index o of ``outer``: ``rows("g{}_{}", range(2), range(2))`` is
    ``(g0_0, g0_1,), (g1_0, g1_1,)``, the target that unpacks a table's
    rows."""
    return ", ".join(["(" + names(fmt, [o], inner) + ",)" for o in outer])


def terms(fmt, *ranges):
    """`` + `` and ``fmt``, formatted as :func:`names` formats it, for
    each index tuple: the terms that follow a sum's start, as in ``(0`` +
    ``terms("a{0} * b{0}", range(2))`` + ``)``, ``(0 + a0 * b0 + a1 *
    b1)``."""
    return "".join(starmap((" + " + fmt).format, product(*ranges)))


def factor_tests(tests):
    """The lines of a masked kernel that add to ``z`` the factors of its
    left-out terms, and their globals: ``tests`` holds ``(name, targets,
    expr, entries)``, one loop ``for targets in name: z = z + expr`` over
    the tuple ``entries`` per kind, none for a kind without entries."""
    return ("".join(f"    for {targets} in {name}:\n        z = z + {expr}\n"
                    for name, targets, expr, entries in tests if entries),
            {name: entries for name, _, _, entries in tests})


def _marks(mask):
    """Whether the zero mask ``mask`` marks some entry."""
    return mask is True or (type(mask) is tuple and any(map(_marks, mask)))


def shared(table, memo=None):
    """``table`` (nested tuples) with each tuple that equals an earlier one
    replaced by that one, so a plan of many equal rows holds each once."""
    memo = {} if memo is None else memo
    if type(table) is not tuple:
        return table
    return memo.setdefault(table, tuple([shared(t, memo) for t in table]))


def structural(mask):
    """``mask``, a zero mask (nested tuples of bools, True at an entry that
    is a float zero at every point), if it marks some entry, else None:
    a kernel with no term to leave out is keyed as the full one."""
    return mask if _marks(mask) else None


# The arithmetic of a Jet with m partials dx.  ``{J}`` is the class, ``{A}``
# and ``{B}`` unpack the dx of ``self`` and ``other`` into a0.. and b0..,
# and every other field is a tuple display of one ``_COMPONENT`` expression
# per component, but ``{zero}``, the test that every partial b0.. of a
# product by a zero is a float zero.  A part times a zero is a float zero
# exactly when its leaves are all finite (x * 0 is NaN for an infinite or
# NaN x, and a Jet, which defines no ``==``, never equals 0.0), so the
# product of a Jet with only finite leaves is its value's float zero.
# Values divide directly so Jet evaluation matches float evaluation bit
# for bit; only derivative coefficients go through _recip.
_KERNELS = KernelTemplate('''\
class {J}(Jet):
    __slots__ = ()

    def __add__(self, other):
        if isinstance(other, Jet):
            {A} = self.dx
            {B} = other.dx
            return {J}(self.value + other.value, {add}, self.dy + other.dy)
        return {J}(self.value + other, self.dx, self.dy)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            {A} = self.dx
            {B} = other.dx
            return {J}(self.value - other.value, {sub}, self.dy - other.dy)
        return {J}(self.value - other, self.dx, self.dy)

    def __rsub__(self, other):
        {A} = self.dx
        return {J}(other - self.value, {neg}, -self.dy)

    def __neg__(self):
        {A} = self.dx
        return {J}(-self.value, {neg}, -self.dy)

    def __mul__(self, other):
        {A} = self.dx
        if isinstance(other, Jet):
            {B} = other.dx
            u, v = self.value, other.value
            return {J}(u * v, {mul}, self.dy * v + u * other.dy)
        if other == 0:
            v = self.value * other
            {B} = {mul_float}
            dy = self.dy * other
            if v == 0.0 and dy == 0.0 and {zero}:
                return v
            return {J}(v, {B}, dy)
        return {J}(self.value * other, {mul_float}, self.dy * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        {A} = self.dx
        if isinstance(other, Jet):
            if primal(other.value) == 0.0:
                raise EvaluationDomainError("division by zero")
            {B} = other.dx
            u, v = self.value, other.value
            inv2 = _recip(v * v)
            return {J}(_jdiv(u, v), {div},
                       (self.dy * v - u * other.dy) * inv2)
        if primal(other) == 0.0:
            raise EvaluationDomainError("division by zero")
        return {J}(_jdiv(self.value, other), {div_float},
                   _jdiv(self.dy, other))

    def __rtruediv__(self, other):
        if primal(self.value) == 0.0:
            raise EvaluationDomainError("division by zero")
        if other == 0 and not isinstance(self * other, Jet):
            return other / primal(self.value)
        u = self.value
        factor = (-other) * _recip(u * u)
        return self.scaled(_jdiv(other, u), factor)

    def scaled(self, value, factor):
        """The Jet with value ``value`` and partials ``a * factor``."""
        {A} = self.dx
        return {J}(value, {scale}, self.dy * factor)

    def chain(self, fv, dfv):
        """Apply a scalar function with value fv and derivative dfv at
        self.value."""
        {A} = self.dx
        return {J}(fv, {chain}, dfv * self.dy)
''')

# Component i of each kernel field, in the i-th partials ``{a}`` of self
# and ``{b}`` of other.
_COMPONENT = {
    "A": "{a}",
    "B": "{b}",
    "add": "{a} + {b}",
    "sub": "{a} - {b}",
    "neg": "-{a}",
    "mul": "{a} * v + u * {b}",
    "mul_float": "{a} * other",
    "div": "({a} * v - u * {b}) * inv2",
    "div_float": "_jdiv({a}, other)",
    "scale": "{a} * factor",
    "chain": "dfv * {a}",
}


@kernel(_KERNELS, Jet=Jet, EvaluationDomainError=EvaluationDomainError,
        primal=primal, _jdiv=_jdiv, _recip=_recip)
def _jet_class(m):
    """The Jet subclass for m partials, its kernels compiled once per m."""
    return {"J": f"Jet{m}", **{
        name: "(" + "".join(expr.format(a=f"a{i}", b=f"b{i}") + ", "
                            for i in range(m)) + ")"
        for name, expr in _COMPONENT.items()},
        "zero": " and ".join(f"b{i} == 0.0" for i in range(m))}


# -- scalar function dispatchers (float or Jet, any nesting depth) ----------


def _trig(fn, u):
    """``fn(u)`` for a float u; an infinite u is outside the domain."""
    try:
        return fn(u)
    except ValueError as exc:
        raise EvaluationDomainError(f"{fn.__name__} of {u!r}") from exc


def fsin(u):
    if isinstance(u, Jet):
        return u.chain(fsin(u.value), fcos(u.value))
    return _trig(math.sin, u)


def fcos(u):
    if isinstance(u, Jet):
        return u.chain(fcos(u.value), -fsin(u.value))
    return _trig(math.cos, u)


def ftan(u):
    if isinstance(u, Jet):
        c = fcos(u.value)
        return u.chain(ftan(u.value), _recip(c * c))
    return _trig(math.tan, u)


def fexp(u):
    if isinstance(u, Jet):
        ev = fexp(u.value)
        return u.chain(ev, ev)
    try:
        return math.exp(u)
    except OverflowError as exc:
        raise EvaluationDomainError(f"exp overflow at {u!r}") from exc


def flog(u):
    if primal(u) <= 0.0:
        raise EvaluationDomainError(f"log of non-positive value {primal(u)!r}")
    if isinstance(u, Jet):
        return u.chain(flog(u.value), _recip(u.value))
    return math.log(u)


def fsqrt(u):
    if primal(u) < 0.0:
        raise EvaluationDomainError(f"sqrt of negative value {primal(u)!r}")
    if isinstance(u, Jet):
        if primal(u.value) == 0.0:
            raise EvaluationDomainError("sqrt derivative singular at 0")
        sv = fsqrt(u.value)
        return u.chain(sv, 0.5 * _recip(sv))
    return math.sqrt(u)


def fabs_(u):
    if isinstance(u, Jet):
        sign = math.copysign(1.0, primal(u.value)) if primal(u.value) != 0.0 else 0.0
        return u.chain(fabs_(u.value), sign)
    return abs(u)


def fpow(base, expo):
    """base ** expo for floats or Jets.

    Integer-valued constant exponents use the power rule (valid for any
    base); everything else routes through exp(expo * log base).
    """
    if not isinstance(expo, Jet):
        e = float(expo)
        if not math.isfinite(e):
            raise EvaluationDomainError(f"non-finite exponent {e!r}")
        if e == int(e):
            return _ipow(base, int(e))
        if primal(base) <= 0.0:
            raise EvaluationDomainError(
                f"non-integer power of non-positive base {primal(base)!r}"
            )
        if isinstance(base, Jet):
            fv = fpow(base.value, e)
            return base.chain(fv, e * fpow(base.value, e - 1.0))
        try:
            return math.pow(base, e)
        except OverflowError as exc:
            raise EvaluationDomainError(
                f"power overflow at {base!r}^{e!r}") from exc
    # exponent carries derivatives: a^b = exp(b log a), needs a > 0
    if primal(base) <= 0.0:
        raise EvaluationDomainError(
            f"power with varying exponent needs positive base, got {primal(base)!r}"
        )
    return fexp(expo * flog(base))


# Integer powers up to this exponent multiply out, which keeps the bits of
# the small powers scenarios use; larger ones use the power rule, whose
# cost does not grow with the exponent.
_IPOW_MULTIPLY_MAX = 64


def _ipow(base, n):
    if n == 0:
        return 1.0
    if n < 0:
        return _recip(_ipow(base, -n))
    if n > _IPOW_MULTIPLY_MAX:
        if isinstance(base, Jet):
            return base.chain(_ipow(base.value, n),
                              n * _ipow(base.value, n - 1))
        try:
            return math.pow(base, n)
        except OverflowError as exc:
            raise EvaluationDomainError(
                f"power overflow at {base!r}^{n!r}") from exc
    result = base
    for _ in range(n - 1):
        result = result * base
    return result


@functools.cache
def _unit_directions(m):
    """The m unit dx tuples and the zero one, built once per m."""
    return (tuple(tuple(1.0 if j == i else 0.0 for j in range(m))
                  for i in range(m)), (0.0,) * m)


def seeded_point(xs, y):
    """Coordinates seeded for all m+1 first-derivative directions at once."""
    units, zeros = _unit_directions(len(xs))
    jet = _jet_class(len(xs))
    jxs = tuple([jet(x, u, 0.0) for x, u in zip(xs, units)])
    return jxs, jet(y, zeros, 1.0)


def fiber_seeded_point(xs, y):
    """Coordinates seeded for d/dy0, for a caller that reads only a field's
    value and d/dy0.  At a float point (a tuple of float ``xs``, a float
    ``y``) only ``y`` is seeded, with zero dx, and ``xs`` stay floats, so
    the field's base-only parts run in floats; at any other point,
    :func:`seeded_point`.  The two agree bit for bit but for the sign of a
    zero and an infinite intermediate (a 0 * inf the full seeding forms)."""
    if type(y) is float and type(xs) is tuple \
            and all([type(x) is float for x in xs]):
        return xs, _jet_class(len(xs))(y, _unit_directions(len(xs))[1], 1.0)
    return seeded_point(xs, y)
