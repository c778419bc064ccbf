from collections import Counter
from itertools import dropwhile, takewhile

import pytest

from kkgeom import scenario, suites
from kkgeom.algebroid import AlgebroidData
from kkgeom.calculus import jdx, seeded_point
from kkgeom.dconnection import (
    DConnectionCoeffs,
    berwald,
    dconnection_transformation_point,
)
from kkgeom.metric import MetricStructure, metric_dconnection
from kkgeom.nlconnection import (
    CoordinateChange,
    NonlinearConnection,
    nlc_transformation_point,
)
from kkgeom.sampling import Box, sample_points
from kkgeom.scenario import ScenarioError, load_scenario
from kkgeom.suites import SUITES, applicable_suites, run_suites, \
    run_validate
from conftest import DATA_DIR, SCENARIO_DIR, chart_change_residual, \
    identity_algebroid, make_vdep, run_law, table

PTS = sample_points(Box.default(2), 12, seed=0xA1B2)


def test_run_validate_structure():
    sc = load_scenario(str(SCENARIO_DIR / "d1.json"))
    checks = run_validate(sc)
    names = [c["name"] for c in checks]
    assert names == ["antisymmetry", "anchor_compatibility", "jacobi",
                     "g_symmetry", "metric_nondegeneracy",
                     "riemannian_flags"]
    assert all(c["passed"] for c in checks)


def test_applicable_suites():
    d1 = load_scenario(str(SCENARIO_DIR / "d1.json"))
    assert applicable_suites(d1) == ["oracle", "ricci-commutation",
                                     "bianchi", "compatibility",
                                     "transformation"]
    berw = load_scenario(str(SCENARIO_DIR / "berwald.json"))
    assert applicable_suites(berw) == ["oracle", "ricci-commutation",
                                       "bianchi"]


@pytest.mark.parametrize("name,message", [
    ("compatibility", "compatibility suite requires a metric"),
    ("transformation", "transformation suite requires a metric (the primed "
                       "connection is rebuilt from the transformed metric)"),
])
def test_suite_needing_a_metric_refuses_a_scenario_without_one(name,
                                                               message):
    berw = load_scenario(str(SCENARIO_DIR / "berwald.json"))
    with pytest.raises(ScenarioError) as exc:
        run_suites(berw, ["oracle", name], samples=1)
    assert exc.value.location == "metric"
    assert str(exc.value) == f"metric: {message}"


def test_readme_suite_defaults_table_is_the_suites_table():
    """README's "Suite defaults" table lists ``suites.SUITES``: the names,
    default sample counts and tolerances, in order."""
    text = (SCENARIO_DIR.parent / "README.md").read_text()
    lines = text.split("Suite defaults", 1)[1].splitlines()
    table = list(takewhile(lambda line: line.startswith("|"),
                           dropwhile(lambda line: not line.startswith("|"),
                                     lines)))
    rows = [[cell.strip() for cell in line.strip("|").split("|")]
            for line in table]
    assert rows[0] == ["suite", "samples", "tolerance"]
    assert [(name, int(samples), float(tol)) for name, samples, tol
            in rows[2:]] == [(name, suite.samples, suite.tol)
                             for name, suite in SUITES.items()]


def test_unknown_suite_rejected():
    sc = load_scenario(str(SCENARIO_DIR / "d1.json"))
    with pytest.raises(ScenarioError):
        run_suites(sc, ["frobnicate"])


def test_transformation_suite_machine_precision():
    sc = load_scenario(str(SCENARIO_DIR / "nonabelian.json"))
    for res in run_suites(sc, ["transformation"], samples=10)[0][1]:
        assert res.max_residual <= 1e-12, res.name


def test_change_laws_under_base_dependent_fiber_rescale():
    """y0' = phi(x) y0 with non-constant phi: exercises the inhomogeneous
    terms of both change laws.  The primed connection is rebuilt from the
    transformed metric data, so the coefficient laws are genuinely tested,
    not restated."""
    A, _, _ = make_vdep()
    N = NonlinearConnection(2, table(["x2*y0", "0.1*x1*y0"]))
    G = MetricStructure(2, table([["1+x1^2+0.3*y0^2", "0"], ["0", "1"]]),
                        table("exp(2*x1)*(1+0.2*y0^2)"))
    phi = table("exp(0.5*x1)", on_base=True)

    def phi_grad(xs):
        jxs, _ = seeded_point(xs, 0.0)
        out = phi(jxs)
        return [jdx(out, i) for i in range(2)]

    def gamma_p(xs, yp):
        ph = phi(xs)
        y = yp / ph
        dph = phi_grad(xs)
        rho = A.rho_at(xs)
        gam = N.gamma_at(xs, y)
        return [-sum(rho[g][k] * dph[k] for k in range(2)) * y + ph * gam[g]
                for g in range(2)]

    N_p = NonlinearConnection(2, gamma_p)

    def g_p(xs, yp):
        return G.g_at(xs, yp / phi(xs))

    def g00_p(xs, yp):
        return G.g00_at(xs, yp / phi(xs)) / (phi(xs) ** 2)

    G_p = MetricStructure(2, g_p, g00_p)

    D = metric_dconnection(G, berwald(N).hv_at, A, N)
    D_p = metric_dconnection(G_p, berwald(N_p).hv_at, A, N_p)
    C = CoordinateChange(2, 2, phi_at=phi)
    assert run_law(nlc_transformation_point, (N, N_p, C, A),
                   PTS).max_residual <= 1e-10
    assert run_law(dconnection_transformation_point, (D, D_p, C, A, N),
                   PTS).max_residual <= 1e-10


def test_base_map_push_and_scalar_coefficients():
    """Pure base reparametrization (frame and fiber fixed): the connection
    coefficients are scalars, so the primed coefficients are the originals
    composed with the inverse base map."""
    A = identity_algebroid(2)
    N = NonlinearConnection(2, table(["x2*y0", "0.3*x1*y0"]))
    base_at = table(["x1+x2", "x1-x2"], on_base=True)
    base_inv_at = table(["0.5*x1+0.5*x2", "0.5*x1-0.5*x2"], on_base=True)
    C = CoordinateChange(2, 2, base_at=base_at)
    assert chart_change_residual(C, base_inv_at, PTS).max_residual <= 1e-12
    N_p = NonlinearConnection(2, lambda xs, y: N.gamma_at(base_inv_at(xs), y))
    assert run_law(nlc_transformation_point, (N, N_p, C, A),
                   PTS).max_residual <= 1e-12


@pytest.mark.parametrize("box", [Box.default(2), Box(((0.0, 3.0),), (1.0, 2.0))])
@pytest.mark.parametrize("seed", [0, 7, 0xA1B2])
def test_sample_points_are_prefix_stable(box, seed):
    """Point k is the same in every draw; the point-major suite driver
    draws the largest sample count once and gives each suite a prefix."""
    longest = sample_points(box, 40, seed)
    for n in (0, 1, 3, 6, 20, 40):
        assert sample_points(box, n, seed) == longest[:n]


def _counting_scenario(sc, counts):
    """``sc``, changed in place so that the anchor, bracket, Gamma and g
    tables count their evaluations in ``counts[table]``."""
    def wrap(name, fn):
        def counted(*args):
            counts[name] += 1
            return fn(*args)
        return counted

    A, N, G = sc.algebroid, sc.connection, sc.metric
    sc.algebroid = AlgebroidData(sc.m, sc.p, wrap("rho", A.rho_at),
                                 wrap("L", A.L_at))
    sc.connection = NonlinearConnection(sc.p, wrap("Gamma", N.gamma_at))
    sc.metric = MetricStructure(sc.p, wrap("g", G.g_at), G.g00_at)
    return sc


def test_primed_tables_evaluate_each_unprimed_entry_once():
    """One primed table evaluation, and one primed metric-connection hh
    evaluation, read each unprimed anchor, bracket, Gamma and g table
    exactly once, so each entry once (not once per primed entry: p^3 times
    for L at p = 3)."""
    counts = Counter()
    sc = _counting_scenario(load_scenario(str(DATA_DIR / "gen3_seed1.json")),
                            counts)
    _, A_p, N_p, G_p = suites._frame_change_data(sc)
    pt = sample_points(Box.default(sc.m), 1, seed=3)[0]
    jxs, jy = seeded_point(pt.x, pt.y)
    for name, evaluate in (("rho", lambda: A_p.rho_at(jxs)),
                           ("L", lambda: A_p.L_at(jxs)),
                           ("Gamma", lambda: N_p.gamma_at(jxs, jy)),
                           ("g", lambda: G_p.g_at(jxs, jy))):
        counts.clear()
        evaluate()
        assert counts == {name: 1}, name

    D_p = metric_dconnection(G_p, sc.baseline_hv(N_p), A_p, N_p)
    counts.clear()
    D_p.hh_at(pt.x, pt.y)
    assert counts == dict.fromkeys(("rho", "L", "Gamma", "g"), 1)


def _unprimed_evaluations(monkeypatch, path):
    """Evaluations of each family of the scenario's metric connection in
    ``run_suites(sc, ["transformation"], samples=3)``."""
    sc = load_scenario(str(path))
    counts = Counter()
    build = scenario.metric_dconnection

    def counted(G, baseline_hv, A, N):
        D = build(G, baseline_hv, A, N)

        def wrap(name):
            fn = getattr(D, name + "_at")

            def at(xs, y):
                counts[name] += 1
                return fn(xs, y)
            return at

        return DConnectionCoeffs(D.p, *map(wrap, ("hh", "hv", "vh", "vv")))

    monkeypatch.setattr(scenario, "metric_dconnection", counted)
    run_suites(sc, ["transformation"], samples=3)
    return counts


def test_transformation_evaluates_the_unprimed_connection_once_per_point(
        monkeypatch):
    """Both chart changes read one evaluation of each family of the
    unprimed metric connection per sample point: the shared tables' one."""
    counts = _unprimed_evaluations(monkeypatch, DATA_DIR / "gen3_seed1.json")
    assert counts == {name: 3 for name in ("hh", "hv", "vh", "vv")}


def test_transformation_evaluates_its_own_connection_over_explicit_tables(
        monkeypatch):
    """Where explicit tables override the metric connection (d1_perturbed),
    the suite evaluates the metric connection itself, once per point."""
    counts = _unprimed_evaluations(monkeypatch,
                                   SCENARIO_DIR / "d1_perturbed.json")
    assert counts == {name: 3 for name in ("hh", "hv", "vh", "vv")}


def test_suites_share_the_unprimed_metric_connection(monkeypatch):
    """Over d1's five suites at 3 samples, the metric connection's hh runs
    at depth 0 three times per point: once for the shared tables and once
    per primed chart; the transformation suite reuses the shared one."""
    sc = load_scenario(str(SCENARIO_DIR / "d1.json"))
    calls = Counter()

    def counting(build):
        def counted(G, baseline_hv, A, N):
            D = build(G, baseline_hv, A, N)

            def hh_at(xs, y):
                calls[isinstance(y, float)] += 1
                return D.hh_at(xs, y)
            return DConnectionCoeffs(D.p, hh_at, D.hv_at, D.vh_at,
                                     D.vv_at)
        return counted

    for module in (scenario, suites):
        monkeypatch.setattr(module, "metric_dconnection",
                            counting(module.metric_dconnection))
    suites.run_suites(sc, applicable_suites(sc), samples=3)
    assert calls[True] == 9
