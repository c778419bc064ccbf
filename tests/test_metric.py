import math

import numpy as np
import pytest

from kkgeom.calculus import EPoint, EvaluationDomainError, jdx, jdy, \
    jval, primal, seeded_point
from kkgeom.dconnection import DConnectionCoeffs, berwald
from kkgeom.metric import (
    MAX_CONDITION,
    CompatibilityCheck,
    MetricStructure,
    SingularMetricError,
    inverse_h,
    matrix_inverse,
    metric_dconnection,
    riemannian_flags,
)
from kkgeom.nlconnection import NonlinearConnection, adapted_derivatives
from kkgeom.sampling import Box, sample_points
from kkgeom.scenario import load_scenario
from conftest import (DATA_DIR, bits, canonical_metric_dconnection,
                      flat_metric, identity_algebroid, make_d1, make_dense3,
                      make_nonabelian, make_vdep, run_check, table)

PTS = sample_points(Box.default(2), 40, seed=0xA1B2)
A_ID = identity_algebroid(2)


def test_inverse_identity():
    G = flat_metric(2)
    ginv = inverse_h(G, PTS[0])
    assert ginv == [[1.0, 0.0], [0.0, 1.0]]


def test_inverse_diag_at_origin():
    G = MetricStructure(2, table([["exp(2*x1)", "0"], ["0", "1"]]),
                        table("1"))
    ginv = inverse_h(G, EPoint((0.0, 0.0), 1.0))
    assert np.allclose(ginv, np.eye(2), atol=1e-15)


def test_inverse_random_spd_self_check():
    rng = np.random.default_rng(3)
    for _ in range(10):
        root = rng.normal(size=(2, 2))
        spd = root @ root.T + 2.0 * np.eye(2)
        G = MetricStructure(2, table(
            [[repr(float(spd[a][b])) for b in range(2)] for a in range(2)]),
            table("1"))
        pt = PTS[0]
        ginv = inverse_h(G, pt)
        assert np.max(np.abs(spd @ np.array(ginv) - np.eye(2))) <= 1e-12


def test_inverse_singular_raises_with_condition():
    G = MetricStructure(2, table([["1", "1"], ["1", "1"]]), table("1"))
    with pytest.raises(SingularMetricError):
        inverse_h(G, PTS[0])


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_inverse_refuses_a_non_finite_entry(bad):
    """A NaN entry once passed both bounds (it compares false) and came
    back as a NaN inverse; a non-finite entry is refused with the point."""
    G = MetricStructure(2, lambda xs, y: [[1.0, 0.0], [0.0, bad]],
                        lambda xs, y: 1.0)
    with pytest.raises(EvaluationDomainError) as exc:
        inverse_h(G, PTS[0])
    assert str(exc.value) == "non-finite value in metric block g"
    assert exc.value.point == PTS[0]


def _near_singular(eps):
    return MetricStructure(2, lambda xs, y: [[1.0, 1.0], [1.0, 1.0 + eps]],
                           lambda xs, y: 1.0)


@pytest.mark.parametrize("eps", [2.0 ** -52, 1e-14])
def test_inverse_refuses_a_block_singular_to_working_precision(eps):
    """Past MAX_CONDITION the inverse has fewer than about 4 right digits:
    it is refused with a finite condition estimate and the point."""
    with pytest.raises(SingularMetricError) as exc:
        inverse_h(_near_singular(eps), PTS[0])
    assert MAX_CONDITION < exc.value.condition < math.inf
    assert exc.value.point == PTS[0]


def test_inverse_keeps_an_ill_conditioned_but_usable_block():
    ginv = inverse_h(_near_singular(1e-10), PTS[0])
    assert ginv[1][1] == pytest.approx(1e10, rel=1e-5)


def test_metric_connection_flat_is_zero():
    G = flat_metric(2)
    N = NonlinearConnection.zero(2)
    D = metric_dconnection(G, DConnectionCoeffs.zero(2), A_ID, N)
    pt = PTS[0]
    assert all(abs(primal(v)) == 0.0
               for r1 in D.hh_at(pt.x, pt.y) for r2 in r1 for v in r2)
    assert [primal(v) for v in D.hv_at(pt.x, pt.y)] == [0.0, 0.0]
    assert primal(D.vv_at(pt.x, pt.y)) == 0.0


def classical_christoffel(g_at, pt):
    """Independent oracle: 0.5 g^{ih} (d_k g_hj + d_j g_hk - d_h g_jk),
    all plain coordinate derivatives via one jet pass and numpy inverse."""
    jxs, jy = seeded_point(pt.x, pt.y)
    gj = g_at(jxs, jy)
    g = np.array([[primal(v) for v in row] for row in gj])
    dg = np.array([[[jdx(gj[a][b], k) for k in range(2)]
                    for b in range(2)] for a in range(2)])
    ginv = np.linalg.inv(g)
    out = np.zeros((2, 2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(2):
                out[i][j][k] = 0.5 * sum(
                    ginv[i][h] * (dg[h][j][k] + dg[h][k][j] - dg[j][k][h])
                    for h in range(2))
    return out


def test_metric_connection_matches_classical_christoffel():
    # flat-frame, fiber-independent metric: hh must equal the Christoffel
    # symbols of the 2d metric, computed by an independent numpy path
    G = MetricStructure(2, table([["1+x1^2", "0.3*x1*x2"],
                                  ["0.3*x1*x2", "2+x2^2"]]), table("1"))
    N = NonlinearConnection.zero(2)
    D = metric_dconnection(G, DConnectionCoeffs.zero(2), A_ID, N)
    for pt in PTS[:10]:
        expected = classical_christoffel(G.g_at, pt)
        hh = D.hh_at(pt.x, pt.y)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    assert abs(primal(hh[a][b][c]) - expected[a][b][c]) <= 1e-12


def test_metric_connection_hand_value():
    # g = diag(e^{2x1}, 1): Christoffels H^1_11 = 1, H^1_22 = 0, H^2_12 = 0
    G = MetricStructure(2, table([["exp(2*x1)", "0"], ["0", "1"]]),
                        table("1"))
    N = NonlinearConnection.zero(2)
    D = canonical_metric_dconnection(G, A_ID, N)
    pt = EPoint((0.3, -0.2), 1.0)
    hh = D.hh_at(pt.x, pt.y)
    assert primal(hh[0][0][0]) == pytest.approx(1.0, abs=1e-14)
    assert primal(hh[0][1][1]) == pytest.approx(0.0, abs=1e-14)
    assert primal(hh[1][0][1]) == pytest.approx(0.0, abs=1e-14)


def test_canonical_riemannian_vertical_coefficients_vanish():
    A, N, G = make_d1()  # metric independent of y0
    D = canonical_metric_dconnection(G, A, N)
    for pt in PTS[:6]:
        vh = D.vh_at(pt.x, pt.y)
        assert all(abs(primal(v)) <= 1e-15 for row in vh for v in row)
        assert abs(primal(D.vv_at(pt.x, pt.y))) <= 1e-15


def test_canonical_hv_from_vertical_metric():
    # g = I, g00 = e^{2 x2}, Gamma = 0: hv = (0, 1)
    G = MetricStructure(2, table([["1", "0"], ["0", "1"]]),
                        table("exp(2*x2)"))
    N = NonlinearConnection.zero(2)
    D = canonical_metric_dconnection(G, A_ID, N)
    pt = PTS[0]
    hv = [primal(v) for v in D.hv_at(pt.x, pt.y)]
    assert hv[0] == pytest.approx(0.0, abs=1e-14)
    assert hv[1] == pytest.approx(1.0, abs=1e-14)


def test_canonical_hv_linear_gamma_flat_metric():
    # Gamma = a y0, flat metric: the fiber derivative of Gamma cancels the
    # correction term exactly and hv = 0
    G = flat_metric(2)
    N = NonlinearConnection(2, table(["0.7*y0", "-0.2*y0"]))
    D = canonical_metric_dconnection(G, A_ID, N)
    pt = PTS[1]
    hv = [primal(v) for v in D.hv_at(pt.x, pt.y)]
    assert hv == pytest.approx([0.0, 0.0], abs=1e-15)


@pytest.mark.parametrize("make,baseline", [
    (make_d1, "zero"), (make_d1, "berwald"),
    (make_nonabelian, "berwald"), (make_vdep, "berwald"),
    (make_vdep, "zero"),
])
def test_compatibility_of_constructed_connection(make, baseline):
    A, N, G = make()
    base = berwald(N) if baseline == "berwald" \
        else DConnectionCoeffs.zero(2)
    D = metric_dconnection(G, base, A, N)
    res, = run_check(CompatibilityCheck(G, A, N, 1e-9), D, N, A, PTS)
    assert res.max_residual <= 1e-9


def test_compatibility_detects_perturbation():
    A, N, G = make_d1()
    D = canonical_metric_dconnection(G, A, N)

    def hh_perturbed(xs, y):
        hh = D.hh_at(xs, y)
        hh[0][0][0] = hh[0][0][0] + 0.1
        return hh

    D_bad = DConnectionCoeffs(2, hh_perturbed, D.hv_at, D.vh_at, D.vv_at)
    res, = run_check(CompatibilityCheck(G, A, N, 1e-9), D_bad, N, A, PTS)
    # g_{11|1} changes by -2*0.1*g_11 and |g_11| >= 1
    assert res.max_residual >= 0.2


def test_h_symmetry_when_bracket_vanishes():
    A, N, G = make_d1()
    D = canonical_metric_dconnection(G, A, N)
    for pt in PTS[:10]:
        hh = D.hh_at(pt.x, pt.y)
        for a in range(2):
            for b in range(2):
                for c in range(2):
                    assert abs(primal(hh[a][b][c]) - primal(hh[a][c][b])) \
                        <= 1e-10


def test_lowered_index_h_compatibility():
    # delta_g g_ab = g_eb hh^e_ag + g_ae hh^e_bg when the bracket vanishes
    from kkgeom.nlconnection import adapted_derivatives
    A, N, G = make_d1()
    D = canonical_metric_dconnection(G, A, N)
    for pt in PTS[:10]:
        vals, delta, _ = adapted_derivatives(
            lambda xs, y: G.g_at(xs, y), pt.x, pt.y, A, N)
        hh = D.hh_at(pt.x, pt.y)
        for a in range(2):
            for b in range(2):
                for g in range(2):
                    lhs = primal(delta[g][a][b])
                    rhs = sum(primal(vals[e][b]) * primal(hh[e][a][g])
                              + primal(vals[a][e]) * primal(hh[e][b][g])
                              for e in range(2))
                    assert abs(lhs - rhs) <= 1e-9


def test_riemannian_flags():
    g_h = MetricStructure(2, table([["1+x1^2", "0"], ["0", "1"]]),
                          table("exp(2*y0)"))
    flags = riemannian_flags(g_h, PTS)
    assert flags == (True, False)
    g_v = MetricStructure(2, table([["1+y0^2", "0"], ["0", "1"]]), table("1"))
    assert riemannian_flags(g_v, PTS) == (False, True)
    g_r = MetricStructure(2, table([["1+x1^2", "0"], ["0", "1"]]), table("1"))
    assert riemannian_flags(g_r, PTS) == (True, True)


def _loop_hh_vh(G, baseline, A, N):
    """``hh_at`` and ``vh_at`` of :func:`metric_dconnection` with the Koszul
    and ring terms rebuilt inside the loop over the upper index a: the
    bitwise standard for the hoisted sums."""
    p = G.p

    def hh_at(xs, y):
        g_vals, g_delta, _ = adapted_derivatives(
            lambda jxs, jy: G.g_at(jxs, jy), xs, y, A, N)
        ginv = matrix_inverse(g_vals)
        Lv = A.L_at(xs)
        out = [[[None] * p for _ in range(p)] for _ in range(p)]
        for a in range(p):
            for b in range(p):
                for c in range(p):
                    acc = 0.0
                    for e in range(p):
                        term = (g_delta[c][e][b] + g_delta[b][e][c]
                                - g_delta[e][b][c])
                        term = term + sum(
                            g_vals[th][e] * Lv[th][c][b]
                            - g_vals[b][th] * Lv[th][c][e]
                            - g_vals[th][c] * Lv[th][b][e]
                            for th in range(p))
                        acc = acc + ginv[a][e] * term
                    out[a][b][c] = 0.5 * acc
        return out

    def vh_at(xs, y):
        jxs, jy = seeded_point(xs, y)
        gj = G.g_at(jxs, jy)
        g_vals = [[jval(v) for v in row] for row in gj]
        g_dy = [[jdy(v) for v in row] for row in gj]
        ginv = matrix_inverse(g_vals)
        vh0 = baseline.vh_at(xs, y)
        out = [[None] * p for _ in range(p)]
        for a in range(p):
            for b in range(p):
                acc = 0.0
                for e in range(p):
                    ring = g_dy[b][e] - sum(
                        vh0[th][b] * g_vals[th][e] + vh0[th][e] * g_vals[b][th]
                        for th in range(p))
                    acc = acc + ginv[a][e] * ring
                out[a][b] = vh0[a][b] + 0.5 * acc
        return out

    return hh_at, vh_at


def _explicit_baseline(p, m):
    """A baseline whose vh family is nonzero, so the ring sums carry it."""
    return DConnectionCoeffs(
        p,
        table([[[f"0.1*x1*y0 + {a - b + c}" for c in range(p)]
                for b in range(p)] for a in range(p)], m),
        table([f"{c}*y0" for c in range(p)], m),
        table([[f"0.3*x{1 + (a + b) % m} - 0.2*y0^2 + {a * b}"
                for b in range(p)] for a in range(p)], m),
        table("0.5*y0", m))


def _metric_cases():
    gen3 = load_scenario(str(DATA_DIR / "gen3_seed1.json"))
    A3, N3, G3 = gen3.algebroid, gen3.connection, gen3.metric
    A1, N1, G1 = make_d1()
    Av, Nv, Gv = make_vdep()
    Ad, Nd, Gd = make_dense3()
    return {
        "d1": (G1, berwald(N1), A1, N1),
        "vdep": (Gv, berwald(Nv), Av, Nv),
        "vdep-explicit-baseline": (Gv, _explicit_baseline(2, 2), Av, Nv),
        "gen3": (G3, gen3.baseline_for(N3), A3, N3),
        "gen3-explicit-baseline": (G3, _explicit_baseline(3, 3), A3, N3),
        "dense3": (Gd, _explicit_baseline(3, 3), Ad, Nd),
    }


@pytest.mark.parametrize("case", ["d1", "vdep", "vdep-explicit-baseline",
                                  "gen3", "gen3-explicit-baseline", "dense3"])
def test_hoisted_metric_sums_match_the_loops_bitwise(case):
    """hh and vh at derivative depths 0-3 give the bits of the per-(a, b, c)
    loops, signed zeros included."""
    G, base, A, N = _metric_cases()[case]
    D = metric_dconnection(G, base, A, N)
    hh_ref, vh_ref = _loop_hh_vh(G, base, A, N)
    m = A.m
    for pt in sample_points(Box.default(m), 2, seed=5):
        xs, y = pt.x, pt.y
        for depth in range(4):
            assert bits(D.hh_at(xs, y)) == bits(hh_ref(xs, y)), depth
            assert bits(D.vh_at(xs, y)) == bits(vh_ref(xs, y)), depth
            xs, y = seeded_point(xs, y)
