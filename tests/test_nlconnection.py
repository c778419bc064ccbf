from collections import Counter

import pytest

from kkgeom.algebroid import AlgebroidData
from kkgeom.calculus import EPoint, primal
from kkgeom.nlconnection import (
    CoordinateChange,
    NonlinearConnection,
    adapted_derivatives,
    nlc_curvature,
    nlc_transformation_point,
)
from kkgeom.calculus import jdx, jdy, jval, seeded_point
from kkgeom.sampling import Box, sample_points
from kkgeom.scenario import load_scenario
from conftest import (DATA_DIR, bits, chart_change_residual, field,
                      identity_algebroid, make_dense3, make_nonabelian,
                      make_vdep, run_law, table)

PTS = sample_points(Box.default(2), 24, seed=0xA1B2)


def test_h_derivative_reduces_to_coordinate_derivative():
    A = identity_algebroid(2)
    N = NonlinearConnection.zero(2)
    f = field("x1^2*x2")
    p = EPoint((0.5, -0.3), 1.0)
    _, delta, _ = adapted_derivatives(f, p.x, p.y, A, N)
    assert delta[0] == pytest.approx(2 * 0.5 * -0.3)
    assert delta[1] == pytest.approx(0.25)


def test_h_derivative_of_fiber_coordinate():
    A = identity_algebroid(2)
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    f = field("y0")
    p = EPoint((0.5, -0.3), 1.2)
    _, delta, _ = adapted_derivatives(f, p.x, p.y, A, N)
    # delta_g y0 = -Gamma_g
    assert delta[0] == pytest.approx(-(-0.3 * 1.2))
    assert delta[1] == 0.0


def test_h_derivative_hand_value():
    A = identity_algebroid(2)
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    f = field("x1*y0")
    p = EPoint((1.0, 2.0), 3.0)
    _, delta, _ = adapted_derivatives(f, p.x, p.y, A, N)
    # d1(x1 y0) - Gamma_1 * d(x1 y0)/dy0 = 3 - 6*1 = -3
    assert delta[0] == pytest.approx(-3.0)


def test_nlc_curvature_linear_constant_coefficients():
    A = identity_algebroid(2)
    N = NonlinearConnection(2, table(["0.7*y0", "-0.4*y0"]))
    for pt in PTS[:8]:
        R = nlc_curvature(A, N, pt)
        for a in range(2):
            for b in range(2):
                assert abs(R[a][b]) <= 1e-14


def test_nlc_curvature_hand_value():
    A = identity_algebroid(2)
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    pt = EPoint((0.4, -0.7), 1.3)
    R = nlc_curvature(A, N, pt)
    assert R[0][1] == pytest.approx(pt.y, abs=1e-12)
    assert R[1][0] == pytest.approx(-pt.y, abs=1e-12)
    assert R[0][0] == 0.0 and R[1][1] == 0.0


def test_nlc_curvature_zero_connection():
    A = identity_algebroid(2)
    N = NonlinearConnection.zero(2)
    R = nlc_curvature(A, N, PTS[0])
    assert all(v == 0.0 for row in R for v in row)


def test_transformation_identity_change():
    A, N, _ = make_nonabelian()
    C = CoordinateChange(2, 2)
    res = run_law(nlc_transformation_point, (N, N, C, A), PTS)
    assert res.max_residual == 0.0


def test_transformation_constant_frame_change():
    A, N, _ = make_nonabelian()
    lam = [[2.0, 1.0], [1.0, 1.0]]
    lam_inv = [[1.0, -1.0], [-1.0, 2.0]]
    # primed coefficients by hand: Gamma'_{g'} = Gamma_g lam_inv[g][g']
    def gamma_p(xs, y):
        gam = N.gamma_at(xs, y)
        return [sum(gam[g] * lam_inv[g][gp] for g in range(2))
                for gp in range(2)]

    N_p = NonlinearConnection(2, gamma_p)
    C = CoordinateChange(2, 2, lambda_at=lambda xs: lam,
                         lambda_inv_at=lambda xs: lam_inv)
    assert chart_change_residual(C, list, PTS).max_residual <= 1e-10
    assert run_law(nlc_transformation_point, (N, N_p, C, A),
                   PTS).max_residual <= 1e-12


def test_transformation_fiber_scaling():
    A, N, _ = make_nonabelian()
    # y0' = 2 y0 and Gamma'(x, y0') = 2 Gamma(x, y0'/2)
    N_p = NonlinearConnection(2, lambda xs, y: [
        2.0 * v for v in N.gamma_at(xs, 0.5 * y)])
    C = CoordinateChange(2, 2, phi_at=lambda xs: 2.0)
    assert run_law(nlc_transformation_point, (N, N_p, C, A),
                   PTS).max_residual <= 1e-12


def test_transformation_base_dependent_fiber_scale():
    # phi(x) = exp(x1) exercises the inhomogeneous dphi term of the law
    A, N, _ = make_nonabelian()
    phi = table("exp(0.5*x1)", on_base=True)

    def gamma_p(xs, y):
        # Gamma'_{g'}(x, y') = -rho^k_g y dphi_k + phi Gamma_g at y = y'/phi
        ph = phi(xs)
        y_old = y / ph
        rho = A.rho_at(xs)
        jxs, _ = seeded_point(xs, 0.0)
        dphi = [jdx(phi(jxs), i) for i in range(2)]
        gam = N.gamma_at(xs, y_old)
        return [-sum(rho[g][k] * dphi[k] for k in range(2)) * y_old
                + ph * gam[g] for g in range(2)]

    # NOTE: the primed coefficients must be functions of the primed chart;
    # base chart is unchanged here so x' = x and only y rescales.
    N_p = NonlinearConnection(2, gamma_p)
    C = CoordinateChange(2, 2, phi_at=phi)
    res = run_law(nlc_transformation_point, (N, N_p, C, A), PTS)
    assert res.max_residual <= 1e-10


def _walk_derivatives(array_fn, xs, y, A, N):
    """``adapted_derivatives`` as one walk per output (values, ddy, then
    each delta_gamma): the bitwise standard for the single-walk version."""
    def map_structure(fn, obj):
        if isinstance(obj, list):
            return [map_structure(fn, o) for o in obj]
        return fn(obj)

    rho = A.rho_at(xs)
    gam = N.gamma_at(xs, y)
    jxs, jy = seeded_point(xs, y)
    out = array_fn(jxs, jy)
    vals = map_structure(jval, out)
    ddy = map_structure(jdy, out)
    delta = [
        map_structure(lambda s, _g=g: sum(rho[_g][i] * jdx(s, i)
                                          for i in range(A.m))
                      - gam[_g] * jdy(s), out)
        for g in range(A.p)
    ]
    return vals, delta, ddy


@pytest.mark.parametrize("case", ["vdep", "gen3", "dense3"])
def test_adapted_derivatives_match_one_walk_per_output(case):
    """Values, every delta_gamma and d/dy0 of a nested table, a flat list
    and a bare scalar, at depths 0-3, bit for bit."""
    if case == "vdep":
        A, N, G = make_vdep()
    elif case == "dense3":
        A, N, G = make_dense3()
    else:
        sc = load_scenario(str(DATA_DIR / "gen3_seed1.json"))
        A, N, G = sc.algebroid, sc.connection, sc.metric
    outputs = [lambda xs, y: G.g_at(xs, y),
               lambda xs, y: N.gamma_at(xs, y),
               lambda xs, y: G.g00_at(xs, y),
               lambda xs, y: [[G.g00_at(xs, y), [1.0, -0.0]], []]]
    for pt in sample_points(Box.default(A.m), 2, seed=9):
        xs, y = pt.x, pt.y
        for depth in range(4):
            for fn in outputs:
                assert bits(adapted_derivatives(fn, xs, y, A, N)) == bits(
                    _walk_derivatives(fn, xs, y, A, N)), depth
            xs, y = seeded_point(xs, y)


def test_transformation_sums_the_anchor_term_once_per_index():
    """sum_k rho^k_g dphi/dx_k depends on g only: at p = m = 2 one sample
    point multiplies anchor entries p m = 4 times (p^2 m when it is summed
    again for every primed index)."""
    products = Counter()

    class Counted(float):
        def __mul__(self, other):
            products["rho"] += 1
            return float(self) * other

    A, N, _ = make_nonabelian()
    A_c = AlgebroidData(2, 2, lambda xs: [
        [Counted(primal(v)) for v in row] for row in A.rho_at(xs)], A.L_at)
    C = CoordinateChange(2, 2, phi_at=table("exp(0.5*x1)", on_base=True))
    res = run_law(nlc_transformation_point, (N, N, C, A_c), PTS[:3])
    assert products["rho"] == 3 * 4
    assert res.max_residual == run_law(nlc_transformation_point,
                                       (N, N, C, A), PTS[:3]).max_residual


def test_a_pass_leaves_no_reference_cycle():
    """With the cyclic collector off, one pass on gen3 leaves nothing for
    ``gc.collect()``: no closure cycle holds its Jets."""
    import gc
    sc = load_scenario(str(DATA_DIR / "gen3_seed1.json"))
    D, A, N = sc.dconnection(), sc.algebroid, sc.connection
    pt = sample_points(sc.box, 1, seed=1)[0]
    gc.collect()
    gc.disable()
    try:
        out = adapted_derivatives(D.all_at, pt.x, pt.y, A, N)
        gc.set_debug(gc.DEBUG_SAVEALL)
        assert gc.collect() == 0
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert len(out[1]) == A.p
