import gc
import json
import math
import weakref
from collections import Counter

import pytest

from kkgeom.calculus import (
    EPoint,
    EvaluationDomainError,
    Jet,
    primal,
    seeded_point,
)
from kkgeom.dconnection import (
    DConnectionCoeffs,
    _flat,
    berwald,
    dconnection_transformation_point,
)
from kkgeom.nlconnection import (
    CoordinateChange,
    NonlinearConnection,
    adapted_derivatives,
)
from kkgeom.sampling import Box, sample_points
from kkgeom.scenario import load_scenario
from conftest import (canonical_metric_dconnection, field,
                      identity_algebroid, make_d1, make_vdep, run_law, table)
from reference import cov_deriv, partial

PTS = sample_points(Box.default(2), 16, seed=0xA1B2)
A_ID = identity_algebroid(2)


def test_berwald_linear_gamma():
    N = NonlinearConnection(2, table(["0.7*y0", "-0.3*y0"]))
    D = berwald(N)
    for pt in PTS[:4]:
        hv = [primal(v) for v in D.hv_at(pt.x, pt.y)]
        assert hv == pytest.approx([0.7, -0.3])
        hh = D.hh_at(pt.x, pt.y)
        assert all(primal(hh[a][b][c]) == 0.0
                   for a in range(2) for b in range(2) for c in range(2))
        assert primal(D.vv_at(pt.x, pt.y)) == 0.0


def test_berwald_zero_gamma():
    D = berwald(NonlinearConnection.zero(2))
    pt = PTS[0]
    assert [primal(v) for v in D.hv_at(pt.x, pt.y)] == [0.0, 0.0]


def _lists(node):
    """Every list object of a nested list, itself first."""
    found = [node]
    for sub in node:
        if isinstance(sub, list):
            found += _lists(sub)
    return found


@pytest.mark.parametrize("p", [1, 2, 3])
def test_zero_tables_are_fresh_lists_of_zeros(p, tmp_path):
    """The zero baseline's hh and vh, berwald's, and the bracket table of a
    scenario without ``L``: 0.0 (not -0.0) entries of the table's shape, in
    new lists at every level on every call, so a caller that writes into
    one leaves the next call's alone."""
    path = tmp_path / "noL.json"
    path.write_text(json.dumps({
        "p": p, "m": p,
        "algebroid": {"rho": [["1" if i == a else "0" for i in range(p)]
                              for a in range(p)]}}))
    zero, bw = DConnectionCoeffs.zero(p), berwald(NonlinearConnection.zero(p))
    xs, y = (0.1,) * p, 0.5
    cases = [(zero.hh_at, (xs, y), 3), (zero.vh_at, (xs, y), 2),
             (bw.hh_at, (xs, y), 3), (bw.vh_at, (xs, y), 2),
             (load_scenario(str(path)).algebroid.L_at, (xs,), 3)]
    for evaluate, args, rank in cases:
        first, second = evaluate(*args), evaluate(*args)
        want = [0.0] * p
        for _ in range(rank - 1):
            want = [list(want) for _ in range(p)]
        assert first == want
        assert {math.copysign(1.0, v) for v in _flat(first, rank)} == {1.0}
        ids = [id(node) for node in _lists(first) + _lists(second)]
        assert len(set(ids)) == len(ids)


def test_berwald_quadratic_gamma():
    N = NonlinearConnection(2, table(["x2*y0^2", "0"]))
    D = berwald(N)
    pt = EPoint((0.5, 0.8), 3.0)
    hv = [primal(v) for v in D.hv_at(pt.x, pt.y)]
    assert hv[0] == pytest.approx(2 * 0.8 * 3.0)  # d(x2 y0^2)/dy0 = 2 x2 y0
    assert hv[1] == 0.0


def test_scalar_h_cov_deriv_is_h_derivative():
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    D = DConnectionCoeffs.zero(2)
    f = field("sin(x1)*y0")
    Td = cov_deriv(f, (0, 0, 0), "h", A_ID, N, D)
    for pt in PTS[:6]:
        vals = Td(pt.x, pt.y)
        _, delta, _ = adapted_derivatives(f, pt.x, pt.y, A_ID, N)
        for g in range(2):
            assert primal(vals[g]) == pytest.approx(delta[g], abs=1e-14)


def test_vector_h_cov_deriv_correction_term():
    # constant vector e1, flat frame, only hh[0][0][0] = c nonzero
    N = NonlinearConnection.zero(2)
    c = 0.37
    hh = [[["0.37" if (a, b, g) == (0, 0, 0) else "0"
            for g in range(2)] for b in range(2)] for a in range(2)]
    D = DConnectionCoeffs(2, table(hh), table(["0"] * 2),
                          table([["0"] * 2 for _ in range(2)]), table("0"))
    Td = cov_deriv(table(["1", "0"]), (1, 0, 0), "h", A_ID, N, D)
    pt = PTS[0]
    vals = Td(pt.x, pt.y)
    assert primal(vals[0][0]) == pytest.approx(c)
    assert primal(vals[1][0]) == 0.0
    assert primal(vals[0][1]) == 0.0


def test_flat_reduction_both_derivatives():
    # everything zero: covariant derivatives are plain partials
    N = NonlinearConnection.zero(2)
    D = DConnectionCoeffs.zero(2)
    comp = [[field("sin(x1)*x2"), field("y0^2")],
            [field("exp(0.3*x1)"), field("x2*y0")]]
    T = table([["sin(x1)*x2", "y0^2"], ["exp(0.3*x1)", "x2*y0"]])
    Th = cov_deriv(T, (1, 1, 0), "h", A_ID, N, D)
    Tv = cov_deriv(T, (1, 1, 0), "v", A_ID, N, D)
    for pt in PTS[:5]:
        vh = Th(pt.x, pt.y)
        vv = Tv(pt.x, pt.y)
        for a in range(2):
            for b in range(2):
                for g in range(2):
                    assert abs(primal(vh[a][b][g])
                               - partial(comp[a][b], pt, g + 1)) <= 1e-12
                assert abs(primal(vv[a][b])
                           - partial(comp[a][b], pt, "v")) <= 1e-12


def test_v_cov_deriv_two_covariant_vertical_slots():
    # g00 = exp(2 y0) with vv = 1: the two covariant vertical slots cancel
    # the plain derivative exactly
    N = NonlinearConnection.zero(2)
    D = DConnectionCoeffs(
        2, table([[["0"] * 2 for _ in range(2)] for _ in range(2)]),
        table(["0"] * 2), table([["0"] * 2 for _ in range(2)]), table("1"))
    Tv = cov_deriv(field("exp(2*y0)"), (0, 0, -2), "v", A_ID, N, D)
    for pt in PTS[:5]:
        assert abs(primal(Tv(pt.x, pt.y))) <= 1e-12


def test_scalar_v_cov_deriv_is_fiber_partial():
    N = NonlinearConnection.zero(2)
    D = DConnectionCoeffs.zero(2)
    f = field("x1*y0^3")
    Tv = cov_deriv(f, (0, 0, 0), "v", A_ID, N, D)
    pt = EPoint((0.4, 0.1), 0.7)
    assert primal(Tv(pt.x, pt.y)) == pytest.approx(
        partial(f, pt, "v"), abs=1e-14)


def _generic_connection():
    hh = [[["0.2*sin(x1)+0.1*x2*y0" if (a + b + c) % 2 == 0
            else "0.1*cos(x2)+0.05*y0"
            for c in range(2)] for b in range(2)] for a in range(2)]
    hv = ["0.4*x1*y0", "0.3*cos(x2)"]
    vh = [["0.2*sin(x2)+0.1*y0", "0.15*x1"],
          ["0.25*y0", "0.1*exp(0.2*x1)"]]
    return DConnectionCoeffs(2, table(hh), table(hv), table(vh),
                             table("0.3*x1+0.2*y0"))


def test_leibniz_rule_for_tensor_product():
    N = NonlinearConnection(2, table(["x2*y0", "0.1*x1*y0"]))
    D = _generic_connection()
    S = table(["x2", "sin(x1)"])
    T = table(["y0", "x1*x2"])

    def ST(xs, y):
        # the outer product: S's contravariant slot, then T's covariant one
        return [[s * t for t in T(xs, y)] for s in S(xs, y)]

    # valences (rh, sh, rv - sv): S has one covariant vertical slot, T one
    # contravariant, so their weights add to 0
    tensors = ((S, (1, 0, -1)), (T, (0, 1, 1)), (ST, (1, 1, 0)))
    for steps, extra_axis in (("h", True), ("v", False)):
        dS, dT, dST = (cov_deriv(X, valence, steps, A_ID, N, D)
                       for X, valence in tensors)
        for pt in PTS[:5]:
            s = S(pt.x, pt.y)
            t = T(pt.x, pt.y)
            ds = dS(pt.x, pt.y)
            dt = dT(pt.x, pt.y)
            dst = dST(pt.x, pt.y)
            for a in range(2):
                for b in range(2):
                    if extra_axis:
                        for g in range(2):
                            lhs = primal(dst[a][b][g])
                            rhs = primal(ds[a][g]) * primal(t[b]) \
                                + primal(s[a]) * primal(dt[b][g])
                            assert abs(lhs - rhs) <= 1e-9
                    else:
                        lhs = primal(dst[a][b])
                        rhs = primal(ds[a]) * primal(t[b]) \
                            + primal(s[a]) * primal(dt[b])
                        assert abs(lhs - rhs) <= 1e-9


def test_transformation_identity():
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    D = _generic_connection()
    C = CoordinateChange(2, 2)
    res = run_law(dconnection_transformation_point, (D, D, C, A_ID, N),
                  PTS[:8])
    assert res.max_residual == 0.0


def test_transformation_constant_frame():
    # constant frame change: no derivative terms; primed coefficients are the
    # sandwich products
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    D = _generic_connection()
    lam = [[2.0, 1.0], [1.0, 1.0]]
    lam_inv = [[1.0, -1.0], [-1.0, 2.0]]
    p = 2

    def hh_p(xs, y):
        hh = D.hh_at(xs, y)
        return [[[sum(lam[ap][a] * hh[a][b][g] * lam_inv[b][bp] * lam_inv[g][gp]
                      for a in range(p) for b in range(p) for g in range(p))
                  for gp in range(p)] for bp in range(p)] for ap in range(p)]

    def hv_p(xs, y):
        hv = D.hv_at(xs, y)
        return [sum(hv[g] * lam_inv[g][gp] for g in range(p))
                for gp in range(p)]

    def vh_p(xs, y):
        vh = D.vh_at(xs, y)
        return [[sum(lam[ap][a] * vh[a][b] * lam_inv[b][bp]
                     for a in range(p) for b in range(p))
                 for bp in range(p)] for ap in range(p)]

    D_p = DConnectionCoeffs(2, hh_p, hv_p, vh_p, D.vv_at)
    C = CoordinateChange(2, 2, lambda_at=lambda xs: lam,
                         lambda_inv_at=lambda xs: lam_inv)
    res = run_law(dconnection_transformation_point, (D, D_p, C, A_ID, N),
                  PTS[:8])
    assert res.max_residual <= 1e-12


def test_transformation_fiber_scaling():
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    D = _generic_connection()
    k = 2.0

    def sub(fn):
        return lambda xs, y: fn(xs, y / k)

    def scale_list(fn, factor):
        def out(xs, y):
            def walk(node):
                if isinstance(node, list):
                    return [walk(v) for v in node]
                return node * factor
            return walk(fn(xs, y / k))
        return out

    D_p = DConnectionCoeffs(
        2,
        sub(D.hh_at),                  # hh unchanged under fiber scaling
        sub(D.hv_at),                  # hv unchanged (constant phi)
        scale_list(D.vh_at, 1.0 / k),  # vh picks up 1/phi
        lambda xs, y: D.vv_at(xs, y / k) * (1.0 / k),
    )
    C = CoordinateChange(2, 2, phi_at=lambda xs: k)
    res = run_law(dconnection_transformation_point, (D, D_p, C, A_ID, N),
                  PTS[:8])
    assert res.max_residual <= 1e-12


# -- per-point coefficient tables ---------------------------------------------


def _metric_connection(make):
    A, N, G = make()
    return canonical_metric_dconnection(G, A, N)


def _seeded(pt, depth):
    xs, y = pt.x, pt.y
    for _ in range(depth):
        xs, y = seeded_point(xs, y)
    return xs, y


def _point_coeffs(D, pt):
    """``PointTables(...).D`` at pt; its torsion and curvature are not read."""
    from kkgeom.curvature import PointTables
    return PointTables(D, None, None, pt).D


@pytest.mark.parametrize("build", [
    lambda: _metric_connection(make_d1),
    lambda: _metric_connection(make_vdep),
    _generic_connection,
], ids=["d1", "vdep", "explicit"])
def test_memoised_values_bitwise_equal(build):
    D = build()
    orders = ((0, 1, 2, 0, 1, 2), (2, 0, 1, 1, 2, 0), (1, 2, 2, 0, 0, 1))
    for pt, order in zip(PTS, orders):
        M = _point_coeffs(D, pt)
        assert M.p == D.p
        for depth in order:
            xs, y = _seeded(pt, depth)
            # repr prints every float exactly (and -0.0 as such)
            assert repr(M.all_at(xs, y)) == repr(D.all_at(xs, y))


def _depth(s):
    depth = 0
    while isinstance(s, Jet):
        s, depth = s.value, depth + 1
    return depth


@pytest.mark.parametrize("suite,times", [("oracle", 1), ("bianchi", 1),
                                         ("compatibility", 1),
                                         ("ricci-commutation", 1)])
def test_memoised_suites_evaluate_each_point_and_depth_once(
        monkeypatch, suite, times):
    from conftest import SCENARIO_DIR
    from kkgeom.scenario import Scenario, load_scenario
    from kkgeom.suites import run_suites

    calls = Counter()
    original = Scenario.dconnection

    def counted(self):
        D = original(self)

        def wrap(name):
            fn = getattr(D, name + "_at")

            def at(xs, y):
                calls[name, tuple(map(primal, xs)), primal(y), _depth(y)] += 1
                return fn(xs, y)
            return at

        return DConnectionCoeffs(D.p, *map(wrap, ("hh", "hv", "vh", "vv")))

    monkeypatch.setattr(Scenario, "dconnection", counted)
    run_suites(load_scenario(str(SCENARIO_DIR / "d1.json")), [suite],
               samples=3, seed=5)
    assert {key[0] for key in calls} == {"hh", "hv", "vh", "vv"}
    assert len({key[1:3] for key in calls}) == 3
    assert set(calls.values()) == {times}


def test_check_all_evaluates_each_point_and_depth_once(monkeypatch, capsys):
    """The four table-sharing suites of ``check --suite all`` run point-major
    on one ``PointTables`` per point: each family once per (point, depth)
    over all of them."""
    from conftest import SCENARIO_DIR
    from kkgeom.cli import main
    from kkgeom.scenario import Scenario
    from kkgeom.suites import SUITES

    calls = Counter()
    original = Scenario.dconnection

    def counted(self):
        D = original(self)

        def wrap(name):
            fn = getattr(D, name + "_at")

            def at(xs, y):
                calls[name, tuple(map(primal, xs)), primal(y), _depth(y)] += 1
                return fn(xs, y)
            return at

        return DConnectionCoeffs(D.p, *map(wrap, ("hh", "hv", "vh", "vv")))

    monkeypatch.setattr(Scenario, "dconnection", counted)
    assert main(["check", str(SCENARIO_DIR / "d1.json"), "--suite", "all",
                 "--seed", "5"]) == 0
    capsys.readouterr()
    assert {key[0] for key in calls} == {"hh", "hv", "vh", "vv"}
    # the default sample counts differ per suite; the largest sets the points
    assert len({key[1:3] for key in calls}) == max(
        SUITES[s].samples for s in
        ("oracle", "ricci-commutation", "bianchi", "compatibility"))
    assert set(calls.values()) == {1}


def _counting_coeffs(calls, fail=False):
    """A p = m = 2 coefficient set that counts its evaluations per family;
    with ``fail`` every evaluation raises."""

    def family(name, value):
        def at(xs, y):
            calls[name] += 1
            if fail:
                raise EvaluationDomainError("no coefficients here")
            return value
        return at

    return DConnectionCoeffs(
        2, family("hh", [[[0.5] * 2] * 2] * 2), family("hv", [0.5] * 2),
        family("vh", [[0.5] * 2] * 2), family("vv", 0.5))


def test_memo_holds_one_base_point():
    """The tables of a point evaluate each family once per depth there and
    refuse every other point, whatever its depth."""
    calls = Counter()
    a, b = PTS[0], PTS[1]
    M = _point_coeffs(_counting_coeffs(calls), a)
    for _ in range(2):
        M.hh_at(a.x, a.y)
        M.hh_at(*seeded_point(a.x, a.y))
    assert calls["hh"] == 2
    for xs, y in ((b.x, b.y), seeded_point(b.x, b.y), (a.x, b.y),
                  ((a.x[0], b.x[1]), a.y)):
        with pytest.raises(ValueError):
            M.hh_at(xs, y)
    assert calls["hh"] == 2
    assert calls["hv"] == calls["vh"] == calls["vv"] == 0


def test_point_tables_are_freed_by_refcount(d1):
    """No closure cycle keeps a point's tables alive after the suites'
    steps there, so one point's remembered evaluations are gone before the
    next point's are made."""
    from kkgeom.curvature import (BianchiCheck, OracleCheck, PointTables,
                                  RicciCommutationCheck, default_test_vector)
    from kkgeom.metric import CompatibilityCheck
    A, N, G = d1
    checks = (OracleCheck(N, A, 1e-8), BianchiCheck(N, A, 1e-5),
              RicciCommutationCheck([default_test_vector(2, 2)], N, A, 1e-6),
              CompatibilityCheck(G, A, N, 1e-9))
    gc.disable()
    try:
        tables = PointTables(canonical_metric_dconnection(G, A, N), N, A,
                             PTS[0])
        for check in checks:
            check.step(PTS[0], tables)
        ref = weakref.ref(tables.D)
        del tables
        assert ref() is None
    finally:
        gc.enable()


def test_memo_does_not_cache_a_raise():
    calls = Counter()
    pt = PTS[0]
    M = _point_coeffs(_counting_coeffs(calls, fail=True), pt)
    for _ in range(3):
        with pytest.raises(EvaluationDomainError):
            M.hh_at(pt.x, pt.y)
    assert calls["hh"] == 3


@pytest.mark.parametrize("name", ["d1", "vdep", "berwald", "gen3_seed1"])
def test_per_depth_serves_what_a_fresh_evaluation_gives(
        monkeypatch, capsys, name):
    """Under ``check --suite all`` each evaluator behind ``PointTables``
    sees one input per depth, and every answer it serves from memory is
    bitwise the answer of a fresh evaluation."""
    from conftest import DATA_DIR, SCENARIO_DIR
    from kkgeom.cli import main
    from kkgeom.curvature import PointTables

    served = []
    original = PointTables.per_depth

    def checked(self, fn):
        at = original(self, fn)
        inputs, calls = {}, Counter()

        def check(xs, y):
            out = at(xs, y)
            depth = _depth(y)
            inputs.setdefault(depth, set()).add(repr((tuple(xs), y)))
            assert len(inputs[depth]) == 1
            if calls[depth]:
                served.append(depth)
                assert repr(out) == repr(fn(xs, y))
            calls[depth] += 1
            return out
        return check

    monkeypatch.setattr(PointTables, "per_depth", checked)
    path = (DATA_DIR if name.startswith("gen") else SCENARIO_DIR) / f"{name}.json"
    assert main(["check", str(path), "--suite", "all", "--seed", "7"]) == 0
    capsys.readouterr()
    # Depth 2 is evaluated by one suite only (bianchi), so nothing there is
    # served twice; test_per_depth_serves_deep_inputs_from_memory covers it.
    assert set(served) >= {0, 1}


def test_per_depth_serves_deep_inputs_from_memory(d1):
    """At depths 2 and 3 too, a second input at the point (seeded afresh)
    is served from memory, bitwise the answer of a fresh evaluation."""
    from conftest import bits
    from kkgeom.curvature import PointTables
    A, N, G = d1
    D = canonical_metric_dconnection(G, A, N)
    pt = PTS[0]
    calls = Counter()

    def counted(xs, y):
        calls[_depth(y)] += 1
        return D.hh_at(xs, y)

    at = PointTables(D, N, A, pt).per_depth(counted)
    xs, y = pt.x, pt.y
    for depth in range(4):
        first = at(xs, y)
        xs2, y2 = pt.x, pt.y
        for _ in range(depth):
            xs2, y2 = seeded_point(xs2, y2)
        assert at(xs2, y2) is first
        assert bits(first) == bits(D.hh_at(xs2, y2))
        xs, y = seeded_point(xs, y)
    assert calls == {0: 1, 1: 1, 2: 1, 3: 1}


def test_transformation_forms_each_bracket_once():
    """The hh change law's bracket delta_g Laminv^a_{b'} + hh^a_{bg}
    Laminv^b_{b'} depends on (a, g, b') only: at p = 2 one sample point
    multiplies hh entries p^4 = 16 times (p^6 when it is formed inside the
    loops over a' and g')."""
    products = Counter()

    class Counted(float):
        def __mul__(self, other):
            products["hh"] += 1
            return float(self) * other

    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    D = _generic_connection()
    D_c = DConnectionCoeffs(
        2, lambda xs, y: [[[Counted(primal(v)) for v in row] for row in hh]
                             for hh in D.hh_at(xs, y)],
        D.hv_at, D.vh_at, D.vv_at)
    res = run_law(dconnection_transformation_point,
                  (D_c, D, CoordinateChange(2, 2), A_ID, N), PTS[:3])
    assert products["hh"] == 3 * 16
    assert res.max_residual == 0.0
