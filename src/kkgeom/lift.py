"""Fiber lifts of base curves and their parallelism ODEs.

A base curve c(t) in M is lifted to the fiber by a morphism column
g[alpha](x) and a fiber function y0(t).  Three parallelism notions are
integrated with classic fixed-step fourth-order Runge-Kutta (deterministic,
reproducible step counts):

    parallel lift:        du/dt + Gamma_a(c, u) g^a(c) u = 0     (linear)
    horizontal parallel:  dz^a/dt + hh^a_{bc}(c, y0) z^b z^c = 0 (quadratic)
    vertical parallel:    du/dt + vv(c, u) u^2 = 0               (quadratic)

Quadratic systems can blow up in finite time; integration stops when the
state leaves [-1e12, 1e12] or turns non-finite, and the trajectory records
the last valid time.  A coefficient evaluated outside its domain (say the
log of a non-positive value) also stops it, reported as an evaluation
error rather than a blow-up.

The arithmetic of a lift is straight-line code generated on first use:
one RK4 step per state size n (its three stage states and the final
combination), and the parallel and horizontal right sides' sums per p.
Each writes the operands and their order of the loop it replaced, so it
computes the loop's bits; those loops are the bitwise references in
``tests/reference.py`` (``loop_rk4_step``, ``loop_parallel_rhs``,
``loop_horizontal_rhs``).
"""

from __future__ import annotations

import functools
import sys
from operator import add, mul

from .algebroid import AlgebroidData
from .calculus import EvaluationDomainError, Jet, at_point, compile_kernel, jdx
from .dconnection import DConnectionCoeffs
from .metric import SingularMetricError
from .nlconnection import NonlinearConnection

__all__ = [
    "BaseCurve",
    "LiftMorphism",
    "LiftState",
    "Trajectory",
    "rk4_integrate",
    "lift_condition_residual",
    "integrate_parallel_lift",
    "integrate_horizontal_parallel",
    "integrate_vertical_parallel",
    "acceleration_lift",
    "local_invertibility_residual",
    "MAX_STEPS",
]

BLOWUP_LIMIT = 1e12

# The largest step count ``lift --steps`` may ask for: far above the
# default (1000), and small enough that a lift on a shipped scenario ends
# in about a minute at most (d1 horizontal, the slowest: 38 s and 100 MB
# peak RSS in a fresh process on a shared 2-vCPU Intel Xeon host, Python
# 3.11).
MAX_STEPS = 100_000


class BaseCurve:
    """The curve ``point_at(t)`` (a tuple of its m coordinates), with
    velocities via jets in t."""

    __slots__ = ("point_at",)

    def __init__(self, point_at):
        self.point_at = point_at

    def velocity_at(self, t: float):
        return [jdx(x, 0) for x in self.point_at(Jet(t, (1.0,), 0.0))]


class LiftMorphism:
    """Fiber-to-frame column ``g_at(xs)`` (g[alpha] on M), optionally with
    a stated left inverse ``gtilde_at(xs)`` (gtilde_alpha, so that
    gtilde_alpha g^alpha = 1)."""

    __slots__ = ("p", "g_at", "gtilde_at")

    def __init__(self, p: int, g_at, gtilde_at=None):
        self.p = p
        self.g_at = g_at
        self.gtilde_at = gtilde_at


class LiftState:
    __slots__ = ("t", "state")

    def __init__(self, t: float, state):
        self.t = t
        self.state = state


class Trajectory:
    __slots__ = ("points", "completed", "message")

    def __init__(self, points: list, completed: bool, message: str = ""):
        self.points = points          # of LiftState
        self.completed = completed
        self.message = message

    @property
    def last(self) -> LiftState:
        return self.points[-1]


# One classic RK4 step for a state of n entries s<i>: the right side f at
# the three stage states and the combination, each entry as the
# comprehensions of the reference ``loop_rk4_step`` in
# ``tests/reference.py`` write it:
#
#     stage:    s<i> + half * a<i>,  s<i> + half * b<i>,  s<i> + h * c<i>
#     combined: s<i> + sixth * (a<i> + 2.0 * b<i> + 2.0 * c<i> + d<i>)
#
# with a, b, c, d the four right sides in turn.
_RK4_LINE = sys._getframe().f_lineno + 2
_RK4 = '''\
def rk4_step(f, t, s, h, half, sixth):
    {s}, = s
    {a}, = f(t, s)
    {b}, = f(t + half, ({stage_a},))
    {c}, = f(t + half, ({stage_b},))
    {d}, = f(t + h, ({stage_c},))
    return ({combined},)
'''


@functools.cache
def _rk4_kernel(n):
    """The kernel of ``_RK4`` for a state of n entries, generated on first
    use."""
    rn = range(n)

    def names(k):
        return ", ".join(f"{k}{i}" for i in rn)

    def stage(k, step):
        return ", ".join(f"s{i} + {step} * {k}{i}" for i in rn)

    source = _RK4.format(
        s=names("s"), a=names("a"), b=names("b"), c=names("c"),
        d=names("d"), stage_a=stage("a", "half"), stage_b=stage("b", "half"),
        stage_c=stage("c", "h"),
        combined=", ".join(f"s{i} + sixth * (a{i} + 2.0 * b{i} + 2.0 * c{i}"
                           f" + d{i})" for i in rn))
    return compile_kernel(source, "rk4_step", __file__, _RK4_LINE, {})


def rk4_integrate(f, t0: float, t1: float, state0, steps: int) -> Trajectory:
    """Classic fixed-step RK4 on dstate/dt = f(t, state); aborts on blow-up.
    A coefficient evaluated outside its domain (an EvaluationDomainError
    from ``f``) also ends the trajectory, reported as an evaluation error.
    A SingularMetricError from ``f`` propagates.  Each step runs the
    kernel of ``_RK4`` for the state's size."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = (t1 - t0) / steps
    # ``0.5 * h * d`` is ``(0.5 * h) * d``, so hoisting keeps the bits.
    half = 0.5 * h
    sixth = h / 6.0
    state = tuple(float(v) for v in state0)
    rk4_step = _rk4_kernel(len(state))
    points = [LiftState(t0, state)]
    for k in range(steps):
        try:
            state = rk4_step(f, t0 + k * h, state, h, half, sixth)
        except SingularMetricError:
            raise
        except EvaluationDomainError as exc:
            return Trajectory(points, False, f"evaluation error after "
                                             f"t={points[-1].t:.6g}: {exc}")
        except (ArithmeticError, ValueError):
            return Trajectory(points, False,
                              f"state blew up after t={points[-1].t:.6g}")
        for v in state:
            # false for NaN too
            if not -BLOWUP_LIMIT <= v <= BLOWUP_LIMIT:
                return Trajectory(points, False,
                                  f"state blew up after t={points[-1].t:.6g}")
        points.append(LiftState(t0 + (k + 1) * h, state))
    return Trajectory(points, True)


def lift_condition_residual(c: BaseCurve, L: LiftMorphism, y: float,
                            A: AlgebroidData, t: float):
    """Residual vector rho^i_a(c) g^a(c) y - dc^i/dt (length m); zero iff the
    pair (g, y) reproduces the base velocity through the anchor."""
    xs = c.point_at(t)
    vel = c.velocity_at(t)
    rho = A.rho_at(xs)
    g = L.g_at(xs)
    return [
        functools.reduce(add, (rho[a][i] * g[a] for a in range(A.p)), 0) * y
        - vel[i]
        for i in range(A.m)
    ]


def local_invertibility_residual(L: LiftMorphism, points):
    """max |gtilde_a g^a - 1| over base points: how far the stated left
    inverse is from one (needs gtilde)."""
    if L.gtilde_at is None:
        raise ValueError("lift morphism has no stated inverse")
    worst = 0.0
    for pt in points:
        with at_point(pt):
            r = abs(functools.reduce(
                add, map(mul, L.gtilde_at(pt.x), L.g_at(pt.x)), 0) - 1.0)
        # a NaN becomes the worst and stays (``max`` would drop it)
        if r > worst or r != r:
            worst = r
    return worst


# The right sides of the parallel lift and of the horizontal parallelism at
# p, as the generator sums of the reference ``loop_parallel_rhs`` and
# ``loop_horizontal_rhs`` in ``tests/reference.py`` write them, from the
# integer 0 that ``sum`` starts at:
#
#     parallel:    -(0 + gam0 * g0 + ...) * u
#     horizontal:  -(0 + H<a>_0_0 * z0 * z0 + H<a>_0_1 * z0 * z1 + ...)
#                  for each a (b, then c, in order), then the parallel term
#
# with H<a>_<b>_<c> the entries of hh and state = (z0, .., z<p-1>, u).
_PARALLEL_LINE = sys._getframe().f_lineno + 2
_PARALLEL = '''\
def parallel(u, gam, g):
    {gam}, = gam
    {g}, = g
    return (-(0{dot}) * u,)
'''
_HORIZONTAL_LINE = sys._getframe().f_lineno + 2
_HORIZONTAL = '''\
def horizontal(state, Hh, gam, g):
    {z}, u = state
    {H}, = Hh
    {gam}, = gam
    {g}, = g
    return [{dz}, -(0{dot}) * u]
'''


def _rhs_names(p):
    """The unpacked names of Gamma and g at p, and the sum of their
    products."""
    rp = range(p)
    return (", ".join(f"gam{a}" for a in rp), ", ".join(f"g{a}" for a in rp),
            "".join(f" + gam{a} * g{a}" for a in rp))


@functools.cache
def _parallel_kernel(p):
    """The kernel of ``_PARALLEL`` for p, generated on first use."""
    gam, g, dot = _rhs_names(p)
    return compile_kernel(_PARALLEL.format(gam=gam, g=g, dot=dot),
                          "parallel", __file__, _PARALLEL_LINE, {})


@functools.cache
def _horizontal_kernel(p):
    """The kernel of ``_HORIZONTAL`` for p, generated on first use."""
    rp = range(p)
    gam, g, dot = _rhs_names(p)
    source = _HORIZONTAL.format(
        z=", ".join(f"z{b}" for b in rp), gam=gam, g=g, dot=dot,
        H=", ".join("(" + ", ".join(
            "(" + ", ".join(f"H{a}_{b}_{c}" for c in rp) + ",)" for b in rp)
            + ",)" for a in rp),
        dz=", ".join("-(0" + "".join(f" + H{a}_{b}_{c} * z{b} * z{c}"
                                     for b in rp for c in rp) + ")"
                     for a in rp))
    return compile_kernel(source, "horizontal", __file__, _HORIZONTAL_LINE,
                          {})


def integrate_parallel_lift(c: BaseCurve, L: LiftMorphism, A: AlgebroidData,
                            N: NonlinearConnection, y0: float, steps: int,
                            t0: float = 0.0, t1: float = 1.0) -> Trajectory:
    """du/dt = -Gamma_a(c(t), u) g^a(c(t)) u; state = (u,).  The right
    side runs the kernel of ``_PARALLEL``."""
    point_at, gamma_at, g_at = c.point_at, N.gamma_at, L.g_at
    rhs = _parallel_kernel(A.p)

    def f(t, state):
        u = state[0]
        xs = point_at(t)
        return rhs(u, gamma_at(xs, u), g_at(xs))

    return rk4_integrate(f, t0, t1, (y0,), steps)


def integrate_horizontal_parallel(c: BaseCurve, L: LiftMorphism,
                                  A: AlgebroidData, N: NonlinearConnection,
                                  D: DConnectionCoeffs, z0, steps: int,
                                  t0: float = 0.0, t1: float = 1.0,
                                  y0: float = 1.0) -> Trajectory:
    """dz^a/dt = -hh^a_{bc}(c(t), u) z^b z^c, with the fiber coordinate u
    co-integrated along the parallel-lift equation (the coefficients are
    evaluated on the lifted point).  State = (z_1..z_p, u).  The right side
    runs the kernel of ``_HORIZONTAL``."""
    p = A.p
    point_at, gamma_at, g_at, hh_at = c.point_at, N.gamma_at, L.g_at, D.hh_at
    rhs = _horizontal_kernel(p)

    def f(t, state):
        u = state[p]
        xs = point_at(t)
        return rhs(state, hh_at(xs, u), gamma_at(xs, u), g_at(xs))

    return rk4_integrate(f, t0, t1, tuple(z0) + (y0,), steps)


def integrate_vertical_parallel(c: BaseCurve, A: AlgebroidData,
                                N: NonlinearConnection, D: DConnectionCoeffs,
                                y0: float, steps: int,
                                t0: float = 0.0, t1: float = 1.0) -> Trajectory:
    """du/dt = -vv(c(t), u) u^2; state = (u,)."""
    point_at, vv_at = c.point_at, D.vv_at

    def f(t, state):
        u = state[0]
        return (-vv_at(point_at(t), u) * u * u,)

    return rk4_integrate(f, t0, t1, (y0,), steps)


def acceleration_lift(c: BaseCurve, L: LiftMorphism, A: AlgebroidData,
                      N: NonlinearConnection, y: float, dy_dt: float,
                      t: float):
    """Adapted components of the acceleration of the lifted curve:
    horizontal part z^a = g^a(c) y, vertical part dy/dt + Gamma_a z^a.
    The lift is horizontal exactly when the vertical part vanishes."""
    xs = c.point_at(t)
    g = L.g_at(xs)
    z = [g[a] * y for a in range(A.p)]
    gam = N.gamma_at(xs, y)
    v_comp = dy_dt + functools.reduce(
        add, (gam[a] * z[a] for a in range(A.p)), 0)
    return z, v_comp
