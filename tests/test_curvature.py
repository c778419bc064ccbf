import math

import pytest

from kkgeom import curvature
from kkgeom.algebroid import AlgebroidData
from kkgeom.calculus import jdx, jval, seeded_point
from kkgeom.curvature import (
    BianchiCheck,
    OracleCheck,
    RicciCommutationCheck,
    curvature_components,
    curvature_components_at,
    default_test_vector,
    energy_momentum,
    frame_definitions,
    ricci,
    scalar_curvature,
    torsion_components,
    torsion_components_at,
)
from kkgeom.dconnection import (
    DConnectionCoeffs,
    berwald,
    frame_h,
    frame_v,
)
from kkgeom.metric import MetricStructure
from kkgeom.nlconnection import NonlinearConnection
from kkgeom.sampling import Box, sample_points
from kkgeom.scenario import load_scenario
from conftest import (DATA_DIR, SCENARIO_DIR, bits,
                      canonical_metric_dconnection, flat_metric,
                      identity_algebroid, make_d1, make_nonabelian,
                      make_sphere, make_vdep, run_check, table)
from reference import curvature_from_definition, torsion_from_definition

PTS = sample_points(Box.default(2), 10, seed=0xA1B2)
SPHERE_PTS = sample_points(Box(((0.3, 2.8), (-1.0, 1.0)), (0.1, 2.0)), 10,
                           seed=0xA1B2)
A_ID = identity_algebroid(2)


def generic_connection():
    """Arbitrary smooth coefficient tables: every torsion/curvature family is
    nonzero, which makes this the most sign-sensitive configuration."""
    hh = [[["0.2*sin(x1)+0.1*x2*y0" if (a + b + c) % 2 == 0
            else "0.1*cos(x2)+0.05*y0^2"
            for c in range(2)] for b in range(2)] for a in range(2)]
    hv = ["0.4*x1*y0", "0.3*cos(x2)"]
    vh = [["0.2*sin(x2)+0.1*y0", "0.15*x1"],
          ["0.25*y0", "0.1*exp(0.2*x1)"]]
    return DConnectionCoeffs(2, table(hh), table(hv), table(vh),
                             table("0.3*x1+0.2*y0"))


def flat_setup():
    A = identity_algebroid(2)
    N = NonlinearConnection.zero(2)
    D = DConnectionCoeffs.zero(2)
    return A, N, D


# -- torsion ------------------------------------------------------------------

def test_torsion_of_metric_connection_vanishes():
    for make in (make_d1, make_nonabelian, make_vdep):
        A, N, G = make()
        D = canonical_metric_dconnection(G, A, N)
        t = torsion_components(D, N, A, PTS[0])
        assert max(abs(t.Thh[a][b][c]) for a in range(2)
                   for b in range(2) for c in range(2)) <= 1e-12


def test_torsion_s_block_always_zero():
    flat_A, flat_N, flat_D = flat_setup()
    cases = [
        (generic_connection(),
         NonlinearConnection(2, table(["x2*y0", "0"])), A_ID),
        (flat_D, flat_N, flat_A),
    ]
    for D, N, A in cases:
        t = torsion_components(D, N, A, PTS[1])
        assert t.S00 == 0.0


def test_torsion_berwald_vertical_deflection_zero():
    N = NonlinearConnection(2, table(["x2*y0^2", "0.3*x1*y0"]))
    D = berwald(N)
    for pt in PTS[:4]:
        t = torsion_components(D, N, A_ID, pt)
        assert max(abs(v) for v in t.Pv) <= 1e-15


def test_torsion_definition_oracle_antisymmetry():
    A, N, G = make_vdep()
    D = canonical_metric_dconnection(G, A, N)
    X = frame_h(2, 0)
    h, v = torsion_from_definition(X, X, D, N, A, PTS[0])
    assert max(abs(w) for w in h) == 0.0 and v == 0.0


def test_torsion_flat_everything_zero():
    A, N, D = flat_setup()
    t = torsion_components(D, N, A, PTS[0])
    assert max(abs(t.Thh[a][b][c]) for a in range(2)
               for b in range(2) for c in range(2)) == 0.0
    assert max(abs(w) for row in t.Tv for w in row) == 0.0


def _leaves(node):
    if isinstance(node, list):
        return [leaf for sub in node for leaf in _leaves(sub)]
    return [node]


def _families(block):
    """The component families of a torsion or curvature block, in order."""
    return [getattr(block, name) for name in block.__slots__]


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json"))
                         + [DATA_DIR / "gen3_seed1.json"],
                         ids=lambda path: path.stem)
def test_both_torsion_evaluators_agree_bitwise(path):
    """``torsion_components_at`` (the coefficients at the point and a pass
    over Gamma, for ``compute --what torsion``) gives the bits of the
    torsion block of ``curvature_components_at`` (one pass over the
    coefficients and Gamma, which the oracle certifies), and both blocks
    hold plain floats at a float point."""
    sc = load_scenario(str(path))
    if sc.metric is None and sc.explicit_dconnection is None:
        pytest.skip("no d-connection")
    D, N, A = sc.dconnection(), sc.connection, sc.algebroid
    for pt in sample_points(sc.box, 3, sc.seed):
        tors, curv = curvature_components_at(D, N, A, pt.x, pt.y)
        alone = torsion_components_at(D, N, A, pt.x, pt.y)
        assert bits(_families(tors)) == bits(_families(alone))
        for block in (tors, curv, alone):
            assert all(type(leaf) is float
                       for leaf in _leaves(_families(block)))


# -- oracle equivalence (the load-bearing test) --------------------------------

@pytest.mark.parametrize("make", [make_d1, make_nonabelian, make_vdep])
def test_oracle_equivalence_metric_scenarios(make):
    A, N, G = make()
    D = canonical_metric_dconnection(G, A, N)
    for res in run_check(OracleCheck(N, A), D, N, A, PTS[:5]):
        assert res.max_residual <= 1e-8, res.name


def test_oracle_equivalence_generic_connection():
    A, N, _ = make_nonabelian()
    D = generic_connection()
    for res in run_check(OracleCheck(N, A), D, N, A, PTS[:5]):
        assert res.max_residual <= 1e-8, res.name


def test_oracle_equivalence_berwald():
    N = NonlinearConnection(2, table(["x2*y0^2", "0.3*x1*y0"]))
    D = berwald(N)
    for res in run_check(OracleCheck(N, A_ID), D, N, A_ID, PTS[:5]):
        assert res.max_residual <= 1e-8, res.name


def rank3_setup():
    """p = m = 3: exponential anchor closing under a constant bracket,
    fiber-dependent Gamma and metric, canonical metric connection."""
    rho = [["1", "0", "0"], ["0", "exp(0.3*x1)", "0"],
           ["0", "0", "exp(0.5*x1)"]]
    L = [[["0"] * 3 for _ in range(3)] for _ in range(3)]
    for a, c in ((1, "0.3"), (2, "0.5")):
        L[a][0][a] = c
        L[a][a][0] = "-" + c
    A = AlgebroidData(3, 3, table(rho, 3, on_base=True),
                      table(L, 3, on_base=True))
    N = NonlinearConnection(3, table(["0.4*x2*y0 + 0.2*sin(x1)*y0^2",
                                      "0.6*x3*y0",
                                      "0.3*x1*y0 + 0.1*sin(x3)*y0^2"], 3))
    G = MetricStructure(3, table([
        [f"1 + 0.5*x{a + 1}^2 + 0.2*y0^2" if a == b else "0"
         for b in range(3)] for a in range(3)], 3),
        table("exp(x1)*(1 + 0.3*y0^2)", 3))
    return A, N, canonical_metric_dconnection(G, A, N)


def _metric_setup(make):
    A, N, G = make()
    return A, N, canonical_metric_dconnection(G, A, N)


EQUIVALENCE_SETUPS = {
    "d1": lambda: _metric_setup(make_d1),
    "vdep": lambda: _metric_setup(make_vdep),
    "generic": lambda: make_nonabelian()[:2] + (generic_connection(),),
    "rank3": rank3_setup,
}


@pytest.mark.parametrize("name", sorted(EQUIVALENCE_SETUPS))
def test_frame_definitions_match_per_field_definitions(name):
    """The batched definition tables equal the one-field-at-a-time
    definitions for every frame pair and triple."""
    A, N, D = EQUIVALENCE_SETUPS[name]()
    p = D.p
    fields = [frame_h(p, a) for a in range(p)] + [frame_v(p)]
    pt = sample_points(Box.default(A.m), 1, seed=0xA1B2)[0]
    torsion, curv = frame_definitions(D, N, A, pt)

    def close(got, want):
        return max(abs(g - w) for g, w in zip(got[0] + [got[1]],
                                                want[0] + [want[1]])) <= 1e-14

    for x, X in enumerate(fields):
        for y, Y in enumerate(fields):
            assert close(torsion[x][y],
                         torsion_from_definition(X, Y, D, N, A, pt)), (x, y)
            for z, Z in enumerate(fields):
                assert close(curv[x][y][z], curvature_from_definition(
                    X, Y, Z, D, N, A, pt)), (x, y, z)


def _bump_first_entry(node):
    if isinstance(node, list):
        return [_bump_first_entry(node[0])] + node[1:]
    return node + 1e-6


@pytest.mark.parametrize("target, family, check", [
    ("torsion_components_at", "Thh", "oracle.torsion"),
    ("torsion_components_at", "Tv", "oracle.torsion"),
    ("torsion_components_at", "Ph", "oracle.torsion"),
    ("torsion_components_at", "Pv", "oracle.torsion"),
    ("torsion_components_at", "S00", "oracle.torsion"),
    ("curvature_components_at", "Rh", "oracle.curvature"),
    ("curvature_components_at", "Rv", "oracle.curvature"),
    ("curvature_components_at", "Ph", "oracle.curvature"),
    ("curvature_components_at", "Pv", "oracle.curvature"),
    ("curvature_components_at", "Sh", "oracle.curvature"),
    ("curvature_components_at", "Sv", "oracle.curvature"),
])
def test_oracle_fails_on_perturbed_family(monkeypatch, target, family, check):
    """A 1e-6 error in one entry of any component family fails the
    matching oracle check and leaves the other one passing.  ``target``
    names the block by the evaluator that returns it alone; the oracle
    reads both blocks from one ``curvature_components_at`` pass, so the
    family is perturbed there."""
    block = {"torsion_components_at": 0, "curvature_components_at": 1}[target]
    original = curvature.curvature_components_at

    def perturbed(*args):
        out = original(*args)
        setattr(out[block], family,
                _bump_first_entry(getattr(out[block], family)))
        return out

    monkeypatch.setattr(curvature, "curvature_components_at", perturbed)
    A, N, _ = make_vdep()
    results = {r.name: r for r in run_check(
        OracleCheck(N, A), generic_connection(), N, A, PTS[:1])}
    assert not results[check].passed
    assert results[check].max_residual >= 0.5e-6
    other = ({"oracle.torsion", "oracle.curvature"} - {check}).pop()
    assert results[other].passed


# -- curvature ----------------------------------------------------------------

def test_curvature_flat_zero():
    A, N, D = flat_setup()
    c = curvature_components(D, N, A, PTS[0])
    assert max(abs(c.Rh[a][b][g][e]) for a in range(2) for b in range(2)
               for g in range(2) for e in range(2)) == 0.0


def test_curvature_s_blocks_zero_everywhere():
    A, N, _ = make_vdep()
    D = generic_connection()
    for pt in PTS[:5]:
        c = curvature_components(D, N, A, pt)
        assert max(abs(v) for row in c.Sh for v in row) == 0.0
        assert c.Sv == 0.0


def test_curvature_antisymmetry_in_last_pair():
    A, N, _ = make_vdep()
    D = generic_connection()
    c = curvature_components(D, N, A, PTS[2])
    for a in range(2):
        for b in range(2):
            for g in range(2):
                for e in range(2):
                    assert abs(c.Rh[a][b][g][e] + c.Rh[a][b][e][g]) <= 1e-12


def test_curvature_definition_antisymmetric_in_pair():
    A, N, _ = make_vdep()
    D = generic_connection()
    Y = frame_h(2, 1)
    h, v = curvature_from_definition(frame_h(2, 0), Y, Y, D, N, A, PTS[0])
    assert max(abs(w) for w in h) <= 1e-15 and abs(v) <= 1e-15


def test_curvature_doubled_vertical_argument_zero():
    A, N, _ = make_vdep()
    D = generic_connection()
    fv = frame_v(2)
    h, v = curvature_from_definition(frame_h(2, 0), fv, fv, D, N, A, PTS[0])
    assert max(abs(w) for w in h) <= 1e-15 and abs(v) <= 1e-15


def classical_curvature_blocks(g_at, pt):
    """Independent classical oracle for a flat frame, zero bracket and zero
    nonlinear connection with fiber-independent metric: Christoffels from
    the closed-form 2x2 inverse, then R^i_{j kl} = d_l G^i_{jk} - d_k G^i_{jl} + G G - G G via a
    second jet pass through an independently coded Christoffel evaluator."""

    def christoffel_at(xs, y):
        jxs, jy = seeded_point(xs, y)
        gj = g_at(jxs, jy)
        g = [[jval(v) for v in row] for row in gj]
        dg = [[[jdx(gj[a][b], k) for k in range(2)] for b in range(2)]
              for a in range(2)]
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        ginv = [[g[1][1] / det, -g[0][1] / det],
                [-g[1][0] / det, g[0][0] / det]]
        return [[[0.5 * sum(ginv[i][h] * (dg[h][j][k] + dg[h][k][j]
                                          - dg[j][k][h]) for h in range(2))
                  for k in range(2)] for j in range(2)] for i in range(2)]

    jxs, jy = seeded_point(pt.x, pt.y)
    Gj = christoffel_at(jxs, jy)
    Gv = [[[jval(Gj[i][j][k]) for k in range(2)] for j in range(2)]
          for i in range(2)]
    dG = [[[[jdx(Gj[i][j][k], l) for l in range(2)] for k in range(2)]
           for j in range(2)] for i in range(2)]
    R = [[[[dG[i][j][k][l] - dG[i][j][l][k]
            + sum(Gv[i][h][l] * Gv[h][j][k] - Gv[i][h][k] * Gv[h][j][l]
                  for h in range(2))
            for l in range(2)] for k in range(2)] for j in range(2)]
         for i in range(2)]
    return R


def test_curvature_matches_classical_oracle_on_surface():
    # metric connection of g = diag(e^{2 x2}, 1): R^1_{2 12} is nonzero
    G = MetricStructure(2, table([["exp(2*x2)", "0"], ["0", "1"]]),
                        table("1"))
    N = NonlinearConnection.zero(2)
    D = canonical_metric_dconnection(G, A_ID, N)
    for pt in PTS:
        expected = classical_curvature_blocks(G.g_at, pt)
        got = curvature_components(D, N, A_ID, pt)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert abs(got.Rh[i][j][k][l]
                                   - expected[i][j][k][l]) <= 1e-8
    # definition-based path agrees too
    for res in run_check(OracleCheck(N, A_ID), D, N, A_ID, PTS[:3]):
        assert res.max_residual <= 1e-8


# -- Ricci, scalar, Einstein ---------------------------------------------------

def test_ricci_flat_zero():
    A, N, D = flat_setup()
    r = ricci(curvature_components(D, N, A, PTS[0]))
    assert max(abs(v) for row in r.Rab for v in row) == 0.0
    assert r.S00 == 0.0


def test_sphere_ricci_scalar_einstein():
    A, N, G = make_sphere()
    D = canonical_metric_dconnection(G, A, N)
    for pt in SPHERE_PTS:
        r = ricci(curvature_components(D, N, A, pt))
        assert r.Rab[0][0] == pytest.approx(1.0, abs=1e-7)
        assert r.Rab[1][1] == pytest.approx(math.sin(pt.x[0]) ** 2, abs=1e-7)
        assert r.S00 == 0.0
        scal = scalar_curvature(r, G, pt)
        assert scal == pytest.approx(2.0, abs=1e-7)
        em = energy_momentum(r, scal, G, 1.0, pt)
        assert max(abs(v) for row in em.Tab for v in row) <= 1e-7


def test_energy_momentum_signs_and_kappa():
    A, N, _ = make_vdep()
    D = generic_connection()
    G = flat_metric(2)
    pt = PTS[0]
    r = ricci(curvature_components(D, N, A, pt))
    scal = scalar_curvature(r, G, pt)
    kappa = 2.5
    em = energy_momentum(r, scal, G, kappa, pt)
    for a in range(2):
        assert em.Ta0[a] == pytest.approx(-r.Pa0[a] / kappa)
        assert em.T0b[a] == pytest.approx(r.P0b[a] / kappa)
    assert em.T00 == pytest.approx((r.S00 - 0.5 * scal * 1.0) / kappa)
    with pytest.raises(ValueError):
        energy_momentum(r, scal, G, 0.0, pt)


# -- commutation and cyclic identity suites -------------------------------------

def test_ricci_commutation_flat():
    A, N, D = flat_setup()
    Z = default_test_vector(2, 2)
    res, = run_check(RicciCommutationCheck([Z], N, A), D, N, A, PTS[:4])
    assert res.max_residual <= 1e-12


@pytest.mark.parametrize("make", [make_d1, make_vdep])
def test_ricci_commutation_metric_scenarios(make):
    A, N, G = make()
    D = canonical_metric_dconnection(G, A, N)
    Z1 = table([["x2", "sin(x1)"], "x1*y0"])

    def Z2(xs, y):
        return [1.0, 0.0], 1.0

    res1, res2 = run_check(RicciCommutationCheck([Z1, Z2], N, A), D, N, A,
                           PTS[:5])
    assert res1.max_residual <= 1e-6
    assert res2.max_residual <= 1e-6


def test_ricci_commutation_generic_connection():
    A, N, _ = make_vdep()
    D = generic_connection()
    Z = default_test_vector(2, 2)
    res, = run_check(RicciCommutationCheck([Z], N, A), D, N, A, PTS[:5])
    assert res.max_residual <= 1e-8


def test_bianchi_flat():
    A, N, D = flat_setup()
    for res in run_check(BianchiCheck(N, A), D, N, A, PTS[:3]):
        assert res.max_residual == 0.0


@pytest.mark.parametrize("make", [make_d1, make_nonabelian, make_vdep])
def test_bianchi_metric_scenarios(make):
    A, N, G = make()
    D = canonical_metric_dconnection(G, A, N)
    for res in run_check(BianchiCheck(N, A), D, N, A, PTS[:4]):
        assert res.max_residual <= 1e-5, res.name


def test_bianchi_berwald():
    N = NonlinearConnection(2, table(["0.7*y0", "-0.2*y0"]))
    D = berwald(N)
    for res in run_check(BianchiCheck(N, A_ID), D, N, A_ID, PTS[:4]):
        assert res.max_residual <= 1e-6, res.name


def test_bianchi_generic_connection():
    A, N, _ = make_vdep()
    D = generic_connection()
    for res in run_check(BianchiCheck(N, A), D, N, A, PTS[:4]):
        assert res.max_residual <= 1e-8, res.name
