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
"""

from __future__ import annotations

from .algebroid import AlgebroidData
from .calculus import EvaluationDomainError, Jet, at_point, jdx
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
    """m coordinate functions of t, with velocities via jets in t."""

    __slots__ = ("components",)

    def __init__(self, components: tuple):
        self.components = components  # functions t -> scalar

    def point_at(self, t: float):
        return tuple([c(t) for c in self.components])

    def velocity_at(self, t: float):
        jt = Jet(t, (1.0,), 0.0)
        return [jdx(c(jt), 0) for c in self.components]


class LiftMorphism:
    """Fiber-to-frame column g[alpha](x), optionally with a stated left
    inverse gtilde[alpha](x)."""

    __slots__ = ("p", "g", "gtilde")

    def __init__(self, p: int, g: tuple, gtilde: tuple | None = None):
        self.p = p
        self.g = g            # p fields on M
        self.gtilde = gtilde

    def g_at(self, xs):
        return [f(xs, 0.0) for f in self.g]

    def gtilde_at(self, xs):
        if self.gtilde is None:
            return None
        return [f(xs, 0.0) for f in self.gtilde]


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


def rk4_integrate(f, t0: float, t1: float, state0, steps: int) -> Trajectory:
    """Classic fixed-step RK4 on dstate/dt = f(t, state); aborts on blow-up.
    A coefficient evaluated outside its domain (an EvaluationDomainError
    from ``f``) also ends the trajectory, reported as an evaluation error.
    A SingularMetricError from ``f`` propagates."""
    if steps < 1:
        raise ValueError("steps must be >= 1")
    h = (t1 - t0) / steps
    # ``0.5 * h * d`` is ``(0.5 * h) * d``, so hoisting keeps the bits.
    half = 0.5 * h
    sixth = h / 6.0
    state = tuple(float(v) for v in state0)
    points = [LiftState(t0, state)]
    for k in range(steps):
        t = t0 + k * h
        try:
            k1 = f(t, state)
            k2 = f(t + half, tuple([s + half * d for s, d in zip(state, k1)]))
            k3 = f(t + half, tuple([s + half * d for s, d in zip(state, k2)]))
            k4 = f(t + h, tuple([s + h * d for s, d in zip(state, k3)]))
        except SingularMetricError:
            raise
        except EvaluationDomainError as exc:
            return Trajectory(points, False, f"evaluation error after "
                                             f"t={points[-1].t:.6g}: {exc}")
        except (ArithmeticError, ValueError):
            return Trajectory(points, False,
                              f"state blew up after t={points[-1].t:.6g}")
        state = tuple([s + sixth * (a + 2.0 * b + 2.0 * c + d)
                       for s, a, b, c, d in zip(state, k1, k2, k3, k4)])
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
        sum(rho[a][i] * g[a] for a in range(A.p)) * y - vel[i]
        for i in range(A.m)
    ]


def local_invertibility_residual(L: LiftMorphism, points):
    """max |gtilde_b g^a - delta^a_b| over base points (needs gtilde)."""
    if L.gtilde is None:
        raise ValueError("lift morphism has no stated inverse")
    worst = 0.0
    for pt in points:
        with at_point(pt):
            g = L.g_at(pt.x)
            gt = L.gtilde_at(pt.x)
        for a in range(L.p):
            for b in range(L.p):
                r = abs(gt[b] * g[a] - (1.0 if a == b else 0.0))
                # a NaN becomes the worst and stays (``max`` would drop it)
                if r > worst or r != r:
                    worst = r
    return worst


def integrate_parallel_lift(c: BaseCurve, L: LiftMorphism, A: AlgebroidData,
                            N: NonlinearConnection, y0: float, steps: int,
                            t0: float = 0.0, t1: float = 1.0) -> Trajectory:
    """du/dt = -Gamma_a(c(t), u) g^a(c(t)) u; state = (u,)."""
    comps, gamma, gfields, rp = c.components, N.gamma, L.g, range(A.p)

    def f(t, state):
        u = state[0]
        xs = tuple([x(t) for x in comps])
        gam = [G(xs, u) for G in gamma]
        g = [G(xs, 0.0) for G in gfields]
        return (-sum(gam[a] * g[a] for a in rp) * u,)

    return rk4_integrate(f, t0, t1, (y0,), steps)


def integrate_horizontal_parallel(c: BaseCurve, L: LiftMorphism,
                                  A: AlgebroidData, N: NonlinearConnection,
                                  D: DConnectionCoeffs, z0, steps: int,
                                  t0: float = 0.0, t1: float = 1.0,
                                  y0: float = 1.0) -> Trajectory:
    """dz^a/dt = -hh^a_{bc}(c(t), u) z^b z^c, with the fiber coordinate u
    co-integrated along the parallel-lift equation (the coefficients are
    evaluated on the lifted point).  State = (z_1..z_p, u)."""
    p, rp = A.p, range(A.p)
    comps, gamma, gfields, hh_at = c.components, N.gamma, L.g, D.hh_at

    def f(t, state):
        z = state[:p]
        u = state[p]
        xs = tuple([x(t) for x in comps])
        Hh = hh_at(xs, u)
        gam = [G(xs, u) for G in gamma]
        g = [G(xs, 0.0) for G in gfields]
        dz = [-sum(Ha[b][cc] * z[b] * z[cc] for b in rp for cc in rp)
              for Ha in Hh]
        dz.append(-sum(gam[a] * g[a] for a in rp) * u)
        return dz

    return rk4_integrate(f, t0, t1, tuple(z0) + (y0,), steps)


def integrate_vertical_parallel(c: BaseCurve, A: AlgebroidData,
                                N: NonlinearConnection, D: DConnectionCoeffs,
                                y0: float, steps: int,
                                t0: float = 0.0, t1: float = 1.0) -> Trajectory:
    """du/dt = -vv(c(t), u) u^2; state = (u,)."""
    comps, vv_at = c.components, D.vv_at

    def f(t, state):
        u = state[0]
        return (-vv_at(tuple([x(t) for x in comps]), u) * u * u,)

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
    v_comp = dy_dt + sum(gam[a] * z[a] for a in range(A.p))
    return z, v_comp
