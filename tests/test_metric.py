import math
from collections import Counter

import numpy as np
import pytest

from kkgeom import scenario, suites
from kkgeom.algebroid import AlgebroidData
from kkgeom.calculus import EPoint, EvaluationDomainError, Jet, \
    fiber_seeded_point, jdx, jdy, jval, primal, seeded_point
from kkgeom.cli import main
from kkgeom.dconnection import DConnectionCoeffs, berwald
from kkgeom.metric import (
    MAX_CONDITION,
    CompatibilityCheck,
    MetricStructure,
    SingularMetricError,
    inverse_h,
    metric_dconnection,
    riemannian_flags,
)
from kkgeom.nlconnection import NonlinearConnection, adapted_derivatives
from kkgeom.sampling import Box, sample_points
from kkgeom.scenario import load_scenario
from conftest import (DATA_DIR, SCENARIO_DIR, bits,
                      canonical_metric_dconnection, flat_metric,
                      identity_algebroid, make_d1, make_dense3,
                      make_nonabelian, make_vdep, run_check, table)
from reference import loop_matrix_inverse

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
    D = metric_dconnection(G, DConnectionCoeffs.zero(2).hv_at, A_ID, N)
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
    D = metric_dconnection(G, DConnectionCoeffs.zero(2).hv_at, A_ID, N)
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
    D = metric_dconnection(G, base.hv_at, A, N)
    res, = run_check(CompatibilityCheck(G, A, N), D, N, A, PTS, 1e-9)
    assert res.max_residual <= 1e-9


def test_compatibility_detects_perturbation():
    A, N, G = make_d1()
    D = canonical_metric_dconnection(G, A, N)

    def hh_perturbed(xs, y):
        hh = D.hh_at(xs, y)
        hh[0][0][0] = hh[0][0][0] + 0.1
        return hh

    D_bad = DConnectionCoeffs(2, hh_perturbed, D.hv_at, D.vh_at, D.vv_at)
    res, = run_check(CompatibilityCheck(G, A, N), D_bad, N, A, PTS, 1e-9)
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


def _loop_hh_vh(G, A, N):
    """``hh_at`` and ``vh_at`` of :func:`metric_dconnection` with the Koszul
    terms rebuilt inside the loop over the upper index a: the bitwise
    standard for the hoisted sums."""
    p = G.p

    def hh_at(xs, y):
        g_vals, g_delta, _ = adapted_derivatives(
            lambda jxs, jy: G.g_at(jxs, jy), xs, y, A, N)
        ginv = loop_matrix_inverse(g_vals)
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
        ginv = loop_matrix_inverse(g_vals)
        out = [[None] * p for _ in range(p)]
        for a in range(p):
            for b in range(p):
                acc = 0.0
                for e in range(p):
                    acc = acc + ginv[a][e] * g_dy[b][e]
                out[a][b] = 0.5 * acc
        return out

    return hh_at, vh_at


def _metric_cases():
    gen3 = load_scenario(str(DATA_DIR / "gen3_seed1.json"))
    A3, N3, G3 = gen3.algebroid, gen3.connection, gen3.metric
    A1, N1, G1 = make_d1()
    Av, Nv, Gv = make_vdep()
    Ad, Nd, Gd = make_dense3()
    return {
        "d1": (G1, berwald(N1).hv_at, A1, N1),
        "vdep": (Gv, berwald(Nv).hv_at, Av, Nv),
        "gen3": (G3, gen3.baseline_hv(N3), A3, N3),
        "dense3": (Gd, berwald(Nd).hv_at, Ad, Nd),
    }


@pytest.mark.parametrize("case", ["d1", "vdep", "gen3", "dense3"])
def test_hoisted_metric_sums_match_the_loops_bitwise(case):
    """hh and vh at derivative depths 0-3 give the bits of the per-(a, b, c)
    loops, signed zeros included."""
    G, baseline_hv, A, N = _metric_cases()[case]
    D = metric_dconnection(G, baseline_hv, A, N)
    hh_ref, vh_ref = _loop_hh_vh(G, A, N)
    m = A.m
    for pt in sample_points(Box.default(m), 2, seed=5):
        xs, y = pt.x, pt.y
        for depth in range(4):
            assert bits(D.hh_at(xs, y)) == bits(hh_ref(xs, y)), depth
            assert bits(D.vh_at(xs, y)) == bits(vh_ref(xs, y)), depth
            xs, y = seeded_point(xs, y)


def _traced_metric_connections(monkeypatch):
    """Build every metric connection of the CLI (the scenario's and the
    transformation suite's primed ones) over counting evaluators.  The
    Counter returned counts, per connection number k, each call of a
    family ``(k, "hh")`` and each evaluation that the connection makes of
    g, g00, rho or Gamma ``(k, name, point, Jet depth)``."""
    calls = Counter()
    original = metric_dconnection
    built = []

    def depth(s):
        n = 0
        while isinstance(s, Jet):
            s, n = s.value, n + 1
        return n

    def traced(G, baseline_hv, A, N):
        k = len(built)
        built.append(k)

        def counted(name, fn):
            def at(xs, *y):
                calls[k, name, tuple(map(primal, xs + y)), depth(xs[0])] += 1
                return fn(xs, *y)
            return at

        def family(name, fn):
            def at(xs, y):
                calls[k, name] += 1
                return fn(xs, y)
            return at

        D = original(MetricStructure(G.p, counted("g", G.g_at),
                                     counted("g00", G.g00_at)),
                     baseline_hv,
                     AlgebroidData(A.m, A.p, counted("rho", A.rho_at),
                                   A.L_at),
                     NonlinearConnection(N.p, counted("gamma", N.gamma_at)))
        return DConnectionCoeffs(D.p, *(family(name, getattr(D, name + "_at"))
                                        for name in ("hh", "hv", "vh", "vv")))

    monkeypatch.setattr(scenario, "metric_dconnection", traced)
    monkeypatch.setattr(suites, "metric_dconnection", traced)
    return calls


def _total(calls, name):
    return sum(n for key, n in calls.items() if key[1] == name)


def test_check_all_evaluates_each_metric_block_once_per_point_and_depth(
        monkeypatch, capsys):
    """hh and vh share one evaluation of g, hv and vv one of g00: under
    ``check --suite all`` each metric connection evaluates each block on
    Jets once per point and depth (the scenario's down to depth 3, at the
    seeded point of bianchi's depth-2 hh and hv)."""
    calls = _traced_metric_connections(monkeypatch)
    assert main(["check", str(SCENARIO_DIR / "d1.json"), "--suite", "all",
                 "--seed", "1"]) == 0
    capsys.readouterr()
    blocks = {key: n for key, n in calls.items()
              if key[1] in ("g", "g00") and key[3] > 0}
    assert set(blocks.values()) == {1}
    assert {key[0] for key in calls} == {0, 1, 2}
    assert {(key[1], key[3]) for key in blocks} == {
        (name, depth) for name in ("g", "g00") for depth in (1, 2, 3)}


def test_a_horizontal_lift_evaluates_g_once_per_hh(monkeypatch, capsys):
    calls = _traced_metric_connections(monkeypatch)
    assert main(["lift", str(SCENARIO_DIR / "d1.json"), "--mode",
                 "horizontal", "--steps", "20"]) == 0
    capsys.readouterr()
    assert _total(calls, "hh") == 80  # four RK4 stages per step
    assert _total(calls, "g") == 80
    assert _total(calls, "g00") == 0


def test_a_vertical_lift_evaluates_g00_alone_per_vv(monkeypatch, capsys):
    calls = _traced_metric_connections(monkeypatch)
    assert main(["lift", str(SCENARIO_DIR / "d1.json"), "--mode",
                 "vertical", "--steps", "20"]) == 0
    capsys.readouterr()
    assert _total(calls, "vv") == 80
    assert _total(calls, "g00") == 80
    assert [_total(calls, name) for name in ("g", "rho", "gamma")] == [0] * 3


METRIC_SCENARIOS = [path for path in sorted(SCENARIO_DIR.glob("*.json"))
                    + sorted(DATA_DIR.glob("*.json"))
                    if load_scenario(str(path)).metric is not None]


def _with_zeros(pt):
    """``pt`` and its copies with each x coordinate, and then all of them,
    set to 0.0 (where the fiber-only seeding could differ in a zero's
    sign)."""
    xs = pt.x
    copies = [xs[:i] + (0.0,) + xs[i + 1:] for i in range(len(xs))]
    return [(xs, pt.y)] + [(c, pt.y) for c in copies] \
        + [((0.0,) * len(xs), pt.y)]


def _outcome(fn, *args):
    """``bits`` of ``fn(*args)``, or the class of the error it raises."""
    try:
        return bits(fn(*args))
    except EvaluationDomainError as exc:
        return type(exc)


def _value_and_dy(table, seeding, xs, y):
    """(value, d/dy0) of each entry of ``table`` at the point seeded by
    ``seeding``."""
    out = table(*seeding(xs, y))
    leaves = [v for row in out for v in row] if isinstance(out, list) \
        else [out]
    return [[jval(v), jdy(v)] for v in leaves]


@pytest.mark.parametrize("path", METRIC_SCENARIOS, ids=lambda p: p.stem)
def test_a_block_asked_alone_keeps_the_bits_of_the_full_seeding(path):
    """vv and vh asked alone at a float point seed only the fiber
    direction; at the sample points of every metric scenario, and with x
    coordinates set to 0.0, g00's value and d/dy0 and g's values are
    bitwise those of the point seeded in all m+1 directions (g's d/dy0
    equal as numbers), and vv and vh asked alone are bitwise what they
    read from the full derivative pass of hv and hh at the same objects."""
    sc = load_scenario(str(path))
    G = sc.metric
    for pt in sample_points(sc.box, 16, sc.seed):
        for xs, y in _with_zeros(pt):
            assert _outcome(_value_and_dy, G.g00_at, fiber_seeded_point,
                            xs, y) \
                == _outcome(_value_and_dy, G.g00_at, seeded_point, xs, y)
            # an entry of g that does not depend on y0 can differ in the
            # sign of its zero d/dy0 (a float against -0.0 from, say,
            # 2 * x1 * 0.0 at x1 < 0); vh below keeps its bits all the same
            fiber = _value_and_dy(G.g_at, fiber_seeded_point, xs, y)
            full = _value_and_dy(G.g_at, seeded_point, xs, y)
            assert fiber == full
            assert [bits(v) for v, _ in fiber] == [bits(v) for v, _ in full]
            for first, family in (("hv_at", "vv_at"), ("hh_at", "vh_at")):
                alone = getattr(sc.metric_dconnection(), family)
                D = sc.metric_dconnection()
                after = getattr(D, family)

                def read_after(xs, y, before=getattr(D, first)):
                    before(xs, y)
                    return after(xs, y)

                assert _outcome(alone, xs, y) == _outcome(read_after, xs, y)


def _fully_seeded_flags(G, samples):
    """:func:`riemannian_flags` read at points seeded in all m + 1
    directions, as it read them before it seeded y alone."""
    h_dy, v_dy = [], []
    for pt in samples:
        jxs, jy = seeded_point(pt.x, pt.y)
        h_dy += [jdy(v) for row in G.g_at(jxs, jy) for v in row]
        v_dy.append(jdy(G.g00_at(jxs, jy)))
    return (all(abs(d) <= 1e-12 for d in h_dy),
            all(abs(d) <= 1e-12 for d in v_dy))


@pytest.mark.parametrize("path", METRIC_SCENARIOS, ids=lambda p: p.stem)
def test_riemannian_flags_match_the_fully_seeded_flags(path):
    """Seeding y alone leaves the flags of every metric scenario as they
    were, at the points ``validate`` draws."""
    sc = load_scenario(str(path))
    pts = sample_points(sc.box, sc.samples, sc.seed)
    assert riemannian_flags(sc.metric, pts) \
        == _fully_seeded_flags(sc.metric, pts)


def test_riemannian_flags_see_no_y0_in_an_overflowing_block():
    """The one case where the seedings differ: an x-only entry of g that
    overflows to inf.  Seeded in x too, its d/dy0 is inf * 0.0 = NaN and
    clears the flag; seeded in y alone it stays a float, whose d/dy0 is
    0.0, which is right, because the block does not depend on y0."""
    G = MetricStructure(2, table([["x1*1e308*10*(x2+2)", "0"], ["0", "1"]]),
                        table("1"))
    pts = [EPoint((0.5, 0.3), 1.0)]
    assert _fully_seeded_flags(G, pts) == (False, True)
    assert riemannian_flags(G, pts) == (True, True)
