import math

import pytest

from kkgeom import lift
from kkgeom.algebroid import AlgebroidData
from kkgeom.dconnection import DConnectionCoeffs
from kkgeom.exprlang import curve_function, parse
from kkgeom.lift import (
    BaseCurve,
    LiftMorphism,
    acceleration_lift,
    integrate_horizontal_parallel,
    integrate_parallel_lift,
    integrate_vertical_parallel,
    lift_condition_residual,
    local_invertibility_residual,
    rk4_integrate,
)
from kkgeom.nlconnection import NonlinearConnection
from conftest import field


def curve(*exprs):
    comps = tuple(curve_function(parse(s, 0, allow_y=False, allow_t=True))
                  for s in exprs)
    return BaseCurve(comps)


A2 = AlgebroidData.identity(2)
A1 = AlgebroidData.identity(1)
C2 = curve("t", "2*t")
E1 = LiftMorphism(2, (field("1"), field("0")))


def field1(s):
    from kkgeom.exprlang import eval_field
    return eval_field(parse(s, 1))


def zero_d(p, m):
    return DConnectionCoeffs.zero(p)


def test_lift_condition_straight_line():
    c = curve("0.7*t", "-0.2*t")
    L = LiftMorphism(2, (field("0.7"), field("-0.2")))
    res = lift_condition_residual(c, L, 1.0, A2, 0.4)
    assert max(abs(v) for v in res) <= 1e-14


def test_lift_condition_zero_fiber():
    res = lift_condition_residual(C2, E1, 0.0, A2, 0.3)
    assert res == pytest.approx([-1.0, -2.0])


def test_lift_condition_stationary_curve():
    c = curve("0.5", "1.5")
    L = LiftMorphism(2, (field("0"), field("0")))
    res = lift_condition_residual(c, L, 3.7, A2, 0.3)
    assert max(abs(v) for v in res) == 0.0


def test_local_invertibility_single_column():
    L = LiftMorphism(1, (field1("2"),), gtilde=(field1("0.5"),))
    from kkgeom.calculus import EPoint
    pts = [EPoint((0.1,), 1.0)]
    assert local_invertibility_residual(L, pts) == 0.0


def test_parallel_zero_connection_constant():
    N = NonlinearConnection.zero(2)
    traj = integrate_parallel_lift(C2, E1, A2, N, 1.5, 1000)
    assert traj.completed
    assert max(abs(s.state[0] - 1.5) for s in traj.points) <= 1e-12


def test_parallel_constant_coefficient_closed_form():
    # Gamma_1 = 2 constant with g = e1: du/dt = -2u, u = y0 e^{-2t}
    N = NonlinearConnection(2, (field("2"), field("0")))
    traj = integrate_parallel_lift(C2, E1, A2, N, 1.0, 1000)
    worst = max(abs(s.state[0] - math.exp(-2.0 * s.t)) for s in traj.points)
    assert worst <= 1e-9


def test_parallel_rk4_order():
    N = NonlinearConnection(2, (field("2"), field("0")))
    exact = math.exp(-2.0)
    e1 = abs(integrate_parallel_lift(C2, E1, A2, N, 1.0, 8).last.state[0]
             - exact)
    e2 = abs(integrate_parallel_lift(C2, E1, A2, N, 1.0, 16).last.state[0]
             - exact)
    order = math.log2(e1 / e2)
    assert 3.7 <= order <= 4.3


def test_vertical_zero_coefficient_constant():
    N = NonlinearConnection.zero(2)
    traj = integrate_vertical_parallel(C2, A2, N, zero_d(2, 2), 0.8, 500)
    assert max(abs(s.state[0] - 0.8) for s in traj.points) == 0.0


def test_vertical_riccati_closed_form_and_order():
    N = NonlinearConnection.zero(2)
    D = DConnectionCoeffs.from_fields(
        2, [[[field("0")] * 2 for _ in range(2)] for _ in range(2)],
        [field("0")] * 2, [[field("0")] * 2 for _ in range(2)], field("1"))
    traj = integrate_vertical_parallel(C2, A2, N, D, 1.0, 1000)
    worst = max(abs(s.state[0] - 1.0 / (1.0 + s.t)) for s in traj.points)
    assert worst <= 1e-8
    exact = 0.5
    e1 = abs(integrate_vertical_parallel(C2, A2, N, D, 1.0, 8).last.state[0]
             - exact)
    e2 = abs(integrate_vertical_parallel(C2, A2, N, D, 1.0, 16).last.state[0]
             - exact)
    assert 3.7 <= math.log2(e1 / e2) <= 4.3


def test_vertical_riccati_blowup_detected():
    N = NonlinearConnection.zero(2)
    D = DConnectionCoeffs.from_fields(
        2, [[[field("0")] * 2 for _ in range(2)] for _ in range(2)],
        [field("0")] * 2, [[field("0")] * 2 for _ in range(2)], field("1"))
    traj = integrate_vertical_parallel(C2, A2, N, D, -1.0, 1000, 0.0, 2.0)
    assert not traj.completed
    # pole of -1/(1-t) is at t = 1
    assert traj.last.t == pytest.approx(1.0, abs=0.05)


def test_horizontal_zero_connection_constant():
    N = NonlinearConnection.zero(2)
    traj = integrate_horizontal_parallel(C2, E1, A2, N, zero_d(2, 2),
                                         (0.4, -1.1), 200)
    assert max(abs(s.state[0] - 0.4) for s in traj.points) == 0.0
    assert max(abs(s.state[1] + 1.1) for s in traj.points) == 0.0


def test_horizontal_riccati_closed_form():
    # single-column case with constant hh = k: dz/dt = -k z^2
    k, z0 = 0.7, 2.0
    N1 = NonlinearConnection.zero(1)
    D1 = DConnectionCoeffs.from_fields(
        1, [[[field1("0.7")]]], [field1("0")], [[field1("0")]],
        field1("0"))
    c1 = curve("t")
    L1 = LiftMorphism(1, (field1("1"),))
    traj = integrate_horizontal_parallel(c1, L1, A1, N1, D1, (z0,), 1000)
    worst = max(abs(s.state[0] - z0 / (1.0 + k * z0 * s.t))
                for s in traj.points if 1.0 + k * z0 * s.t > 0.1)
    assert worst <= 1e-8


def test_acceleration_lift_trivial_cases():
    N = NonlinearConnection.zero(2)
    z, v = acceleration_lift(C2, E1, A2, N, 1.3, 0.0, 0.5)
    assert v == 0.0 and z == pytest.approx([1.3, 0.0])
    _, v = acceleration_lift(C2, E1, A2, N, 0.5, 1.0, 0.5)
    assert v == 1.0


def test_horizontality_equivalence_along_parallel_lift():
    # the parallel lift makes the acceleration purely horizontal; the fiber
    # velocity is recovered from the trajectory itself by a fourth-order
    # stencil so the check does not reuse the ODE right-hand side
    N = NonlinearConnection(2, (field("x2*y0"), field("0.3*x1")))
    steps = 1000
    traj = integrate_parallel_lift(C2, E1, A2, N, 1.0, steps, 0.0, 1.0)
    h = 1.0 / steps
    pts = traj.points
    worst = 0.0
    for k in range(2, len(pts) - 2):
        dy = (-pts[k + 2].state[0] + 8 * pts[k + 1].state[0]
              - 8 * pts[k - 1].state[0] + pts[k - 2].state[0]) / (12 * h)
        _, v = acceleration_lift(C2, E1, A2, N, pts[k].state[0], dy, pts[k].t)
        worst = max(worst, abs(v))
    assert worst <= 1e-8


def test_rk4_rejects_bad_steps():
    with pytest.raises(ValueError):
        rk4_integrate(lambda t, s: s, 0.0, 1.0, (1.0,), 0)


@pytest.mark.parametrize("z0,steps,completed", [(2.0, 7, True),
                                                (-2.0, 40, False)])
@pytest.mark.parametrize("mode", ["parallel", "horizontal", "vertical"])
def test_rk4_takes_four_stages_per_step(monkeypatch, mode, z0, steps,
                                        completed):
    """Every integrator evaluates its right side 4 times per step, and the
    horizontal one evaluates hh once per stage, so no stage can be dropped
    unnoticed.  A step that blows up has taken its 4 stages too."""
    calls = {"rhs": 0, "hh": 0}
    integrate = lift.rk4_integrate

    def counting_rk4(f, *args):
        def rhs(t, state):
            calls["rhs"] += 1
            return f(t, state)
        return integrate(rhs, *args)

    def hh_at(xs, y):
        calls["hh"] += 1
        return [[[0.7]]]

    monkeypatch.setattr(lift, "rk4_integrate", counting_rk4)
    # dz/dt = -0.7 z^2, du/dt = -u^2 and du/dt = -0.7 u: with z0 = -2 the
    # first two have a pole before t = 2.
    D = DConnectionCoeffs(1, hh_at, lambda xs, y: [0.0],
                          lambda xs, y: [[0.0]], lambda xs, y: 1.0)
    N = NonlinearConnection(1, (field1("0.7"),))
    c1, L1 = curve("t"), LiftMorphism(1, (field1("1"),))
    if mode == "parallel":
        traj = integrate_parallel_lift(c1, L1, A1, N, z0, steps, 0.0, 2.0)
    elif mode == "horizontal":
        traj = integrate_horizontal_parallel(c1, L1, A1, N, D, (z0,), steps,
                                             0.0, 2.0)
    else:
        traj = integrate_vertical_parallel(c1, A1, N, D, z0, steps, 0.0, 2.0)
    assert traj.completed is (completed or mode == "parallel")
    # the points after t0, plus the step that blew up
    taken = len(traj.points) - 1 + (not traj.completed)
    assert taken == steps or not traj.completed
    assert calls["rhs"] == 4 * taken
    assert calls["hh"] == (calls["rhs"] if mode == "horizontal" else 0)
