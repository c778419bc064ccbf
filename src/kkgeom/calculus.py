"""Exact forward-mode differentiation for scalar fields on E = M x K.

Points on E carry base coordinates x1..xm and one fiber coordinate y0.
Derivatives are obtained by evaluating fields on Jet-valued coordinates:
a Jet carries a value together with all first partials (d/dx1..d/dxm,
d/dy0).  Nesting Jets inside Jets yields exact second and third partials,
which is all the downstream identity suites ever need.

A field is a plain function of ``(xs, y)``, ``xs`` a length-m sequence.
It runs the same arithmetic path on floats and Jets, so the value component
of a Jet evaluation is bit-identical to a float evaluation.  Everything here
is immutable and evaluation is pure, so fields can be evaluated
concurrently and results are bit-reproducible.

Jets exist only inside a derivative pass (``seeded_point`` and
``nlconnection.adapted_derivatives``): at a float point every field, and
every evaluator built on fields, returns exact floats.  Callers read those
results as they are; ``primal`` is only for code a Jet can reach.
"""

from __future__ import annotations

import functools
import math
from contextlib import contextmanager
from operator import add, neg, sub

__all__ = [
    "EvaluationDomainError",
    "at_point",
    "EPoint",
    "Jet",
    "constant",
    "seeded_point",
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
    The component loops use ``map`` and list comprehensions for speed; each
    keeps the operands and their order of a plain per-component loop, so
    signed zeros and NaNs come out as they would there.
    """

    __slots__ = ("value", "dx", "dy")

    def __init__(self, value, dx, dy):
        self.value = value
        self.dx = tuple(dx)
        self.dy = dy

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.value + other.value,
                map(add, self.dx, other.dx),
                self.dy + other.dy,
            )
        return Jet(self.value + other, self.dx, self.dy)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(
                self.value - other.value,
                map(sub, self.dx, other.dx),
                self.dy - other.dy,
            )
        return Jet(self.value - other, self.dx, self.dy)

    def __rsub__(self, other):
        return Jet(other - self.value, map(neg, self.dx), -self.dy)

    def __mul__(self, other):
        if isinstance(other, Jet):
            u, v = self.value, other.value
            return Jet(
                u * v,
                [a * v + u * b for a, b in zip(self.dx, other.dx)],
                self.dy * v + u * other.dy,
            )
        return Jet(self.value * other, [a * other for a in self.dx], self.dy * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        # Values divide directly so Jet evaluation matches float evaluation
        # bit-for-bit; only derivative coefficients go through _recip.
        if isinstance(other, Jet):
            if primal(other.value) == 0.0:
                raise EvaluationDomainError("division by zero")
            u, v = self.value, other.value
            inv2 = _recip(v * v)
            return Jet(
                _jdiv(u, v),
                [(a * v - u * b) * inv2 for a, b in zip(self.dx, other.dx)],
                (self.dy * v - u * other.dy) * inv2,
            )
        if primal(other) == 0.0:
            raise EvaluationDomainError("division by zero")
        return Jet(
            _jdiv(self.value, other),
            [_jdiv(a, other) for a in self.dx],
            _jdiv(self.dy, other),
        )

    def __rtruediv__(self, other):
        if primal(self.value) == 0.0:
            raise EvaluationDomainError("division by zero")
        u = self.value
        factor = (-other) * _recip(u * u)
        return Jet(_jdiv(other, u), [a * factor for a in self.dx], self.dy * factor)

    def __neg__(self):
        return Jet(-self.value, map(neg, self.dx), -self.dy)

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

    def chain(self, fv, dfv):
        """Apply a scalar function with value fv and derivative dfv at self.value."""
        return Jet(fv, [dfv * a for a in self.dx], dfv * self.dy)


def _jdiv(a, b):
    """a / b for floats or Jets, delegating to Jet division where needed."""
    if isinstance(a, Jet) or isinstance(b, Jet):
        if not isinstance(a, Jet):
            m = len(b.dx)
            a = Jet(a, (0.0,) * m, 0.0)
        return a / b
    if b == 0.0:
        raise EvaluationDomainError("division by zero")
    return a / b


def _recip(v):
    if isinstance(v, Jet):
        if primal(v.value) == 0.0:
            raise EvaluationDomainError("division by zero")
        inv = _recip(v.value)
        factor = -(inv * inv)
        return Jet(inv, [a * factor for a in v.dx], v.dy * factor)
    if v == 0.0:
        raise EvaluationDomainError("division by zero")
    return 1.0 / v


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


def constant(c):
    """The field on E with the constant value ``c``."""
    return lambda xs, y: c


@functools.cache
def _unit_directions(m):
    """The m unit dx tuples and the zero one, built once per m."""
    return (tuple(tuple(1.0 if j == i else 0.0 for j in range(m))
                  for i in range(m)), (0.0,) * m)


def seeded_point(xs, y):
    """Coordinates seeded for all m+1 first-derivative directions at once."""
    units, zeros = _unit_directions(len(xs))
    jxs = tuple([Jet(x, u, 0.0) for x, u in zip(xs, units)])
    return jxs, Jet(y, zeros, 1.0)
