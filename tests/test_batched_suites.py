"""The nesting suites (ricci-commutation, bianchi, compatibility) take every
covariant derivative from one shared derivative pass per point.  These
tests pin their left sides bit for bit to the same derivatives nested one
at a time (``reference.cov_deriv``), pin the Leibniz corrections to a
per-index reference, count the passes, and show the left sides never read
the component tables they are compared with."""

import random
import sys
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kkgeom import curvature
from kkgeom.calculus import Jet
from kkgeom.curvature import (
    _bianchi_values,
    _commutation_values,
    curvature_components_at,
    default_test_vector,
    torsion_components_at,
)
from kkgeom.dconnection import (
    DConnectionCoeffs,
    h_cov_values,
    v_cov_values,
)
from kkgeom.metric import _compatibility_values
from kkgeom.nlconnection import adapted_derivatives
from kkgeom.sampling import Box, sample_points
from kkgeom.scenario import Scenario, load_scenario
from kkgeom.suites import run_suites
from conftest import (DATA_DIR, SCENARIO_DIR, bits,
                      canonical_metric_dconnection, make_d1, make_dense3,
                      make_nonabelian, make_vdep)
from reference import cov_deriv


def _case(name):
    """(A, N, G, D) of a named scenario, D the metric connection."""
    if name == "gen3_seed1":
        sc = load_scenario(str(DATA_DIR / "gen3_seed1.json"))
        return sc.algebroid, sc.connection, sc.metric, sc.dconnection()
    make = {"d1": make_d1, "vdep": make_vdep, "nonabelian": make_nonabelian,
            "dense3": make_dense3}[name]
    A, N, G = make()
    return A, N, G, canonical_metric_dconnection(G, A, N)


def _test_fields(p, m):
    """The two fields the ricci-commutation suite uses."""
    return [default_test_vector(p, m),
            lambda xs, y: ([1.0] + [0.0] * (p - 1), 1.0)]


def _composed_commutation(Z, D, N, A, pt):
    """The vector part of Z (valence (1, 0, 0)) and its vertical part
    (weight 1), each differentiated as hh, h, v, hv and vh."""
    parts = ((lambda xs, y: list(Z(xs, y)[0]), (1, 0, 0)),
             (lambda xs, y: Z(xs, y)[1], (0, 0, 1)))
    return [cov_deriv(T, valence, steps, A, N, D)(pt.x, pt.y)
            for T, valence in parts
            for steps in ("hh", "h", "v", "hv", "vh")]


def _composed_bianchi(D, N, A, pt):
    def family(block, key):
        return lambda xs, y: getattr(block(D, N, A, xs, y), key)

    def curvature_block(*args):
        return curvature_components_at(*args)[1]

    tensors = ((family(torsion_components_at, "Thh"), (1, 2, 0)),
               (family(torsion_components_at, "Tv"), (0, 2, 1)),
               (family(curvature_block, "Rh"), (1, 3, 0)),
               (family(curvature_block, "Rv"), (0, 2, 0)))
    return [cov_deriv(T, valence, "h", A, N, D)(pt.x, pt.y)
            for T, valence in tensors]


def _composed_compatibility(G, D, A, N, pt):
    return [cov_deriv(T, valence, steps, A, N, D)(pt.x, pt.y)
            for T, valence in ((G.g_at, (0, 2, 0)), (G.g00_at, (0, 0, -2)))
            for steps in ("h", "v")]


@pytest.mark.parametrize("name", ["d1", "vdep", "nonabelian", "gen3_seed1",
                                  "dense3"])
def test_batched_left_sides_match_the_compositions_bitwise(name):
    """Each batched suite gives, at every point, the bits of the same
    covariant derivatives nested one pass at a time."""
    A, N, G, D = _case(name)
    fields = _test_fields(D.p, A.m)
    for pt in sample_points(Box.default(A.m), 3, seed=11):
        batched = _commutation_values(fields, D, N, A, pt)
        for Z, values in zip(fields, batched):
            assert bits(values) == bits(_composed_commutation(Z, D, N, A, pt))
        assert bits(_bianchi_values(D, N, A, pt)) == bits(
            _composed_bianchi(D, N, A, pt))
        assert bits(_compatibility_values(G, D, A, N, pt)) == bits(
            _composed_compatibility(G, D, A, N, pt))


def _entry(values, idx):
    for k in idx:
        values = values[k]
    return values


def _tabulate(p, rank, fill, prefix=()):
    if len(prefix) == rank:
        return fill(prefix)
    return [_tabulate(p, rank, fill, prefix + (k,)) for k in range(p)]


def _fill_h(vals, delta, rh, sh, vweight, Hh, Hv, p):
    """The horizontal Leibniz sums, one index tuple at a time."""
    def fill(full_idx):
        idx, g = full_idx[:-1], full_idx[-1]
        out = _entry(delta[g], idx)
        for k in range(rh):
            ak = idx[k]
            out = out + sum(
                Hh[ak][th][g] * _entry(vals, idx[:k] + (th,) + idx[k + 1:])
                for th in range(p))
        for k in range(rh, rh + sh):
            bk = idx[k]
            out = out - sum(
                Hh[th][bk][g] * _entry(vals, idx[:k] + (th,) + idx[k + 1:])
                for th in range(p))
        if vweight:
            out = out + vweight * Hv[g] * _entry(vals, idx)
        return out
    return _tabulate(p, rh + sh + 1, fill)


def _fill_v(vals, ddy, rh, sh, vweight, Vh, Vv, p):
    """The vertical Leibniz sums, one index tuple at a time."""
    def fill(idx):
        acc = _entry(ddy, idx)
        for k in range(rh):
            ak = idx[k]
            acc = acc + sum(
                Vh[ak][th] * _entry(vals, idx[:k] + (th,) + idx[k + 1:])
                for th in range(p))
        for k in range(rh, rh + sh):
            bk = idx[k]
            acc = acc - sum(
                Vh[th][bk] * _entry(vals, idx[:k] + (th,) + idx[k + 1:])
                for th in range(p))
        if vweight:
            acc = acc + vweight * Vv * _entry(vals, idx)
        return acc
    return _tabulate(p, rh + sh, fill)


@st.composite
def _valences(draw):
    rh = draw(st.integers(0, 4))
    sh = draw(st.integers(0, 4 - rh))
    return (draw(st.integers(1, 4)), rh, sh, draw(st.integers(0, 2)),
            draw(st.integers(0, 2)), draw(st.integers(0, 2 ** 32 - 1)))


@settings(max_examples=60, deadline=None)
@given(_valences())
def test_cov_values_match_the_per_index_fill(case):
    """Both correction functions give the bits of the per-index reference
    for every valence up to rank 4 and p = 1..4; signed zeros and exact
    zeros in the data make a changed sum start or order visible."""
    p, rh, sh, rv, sv, seed = case
    rng = random.Random(seed)

    def num():
        return rng.choice((0.0, -0.0, 1.0, rng.uniform(-2.0, 2.0),
                           rng.uniform(-1e-3, 1e-3)))

    def tensor(rank):
        return num() if rank == 0 else [tensor(rank - 1) for _ in range(p)]

    rank = rh + sh
    vals, ddy = tensor(rank), tensor(rank)
    delta = [tensor(rank) for _ in range(p)]
    Hh, Hv, Vh, Vv = tensor(3), tensor(1), tensor(2), num()
    w = rv - sv
    assert bits(h_cov_values(vals, delta, rh, sh, w, Hh, Hv)) == bits(
        _fill_h(vals, delta, rh, sh, w, Hh, Hv, p))
    assert bits(v_cov_values(vals, ddy, rh, sh, w, Vh, Vv)) == bits(
        _fill_v(vals, ddy, rh, sh, w, Vh, Vv, p))


def _passes_per_point(sc, suite, n):
    code, calls = adapted_derivatives.__code__, Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code is code:
            calls["passes"] += 1

    sys.setprofile(profile)
    try:
        run_suites(sc, [suite], samples=n, seed=1)
    finally:
        sys.setprofile(None)
    return calls["passes"] / n


@pytest.mark.parametrize("path", [SCENARIO_DIR / "d1.json",
                                  DATA_DIR / "gen3_seed1.json"])
@pytest.mark.parametrize("suite, passes", [("oracle", 7),
                                           ("ricci-commutation", 7),
                                           ("bianchi", 9),
                                           ("compatibility", 3)])
def test_derivative_passes_per_point(path, suite, passes):
    """Derivative passes per sample point of one suite run alone, the
    point's shared tables included: hh and hv at the point (2) and, for
    the suites reading torsion and curvature, their components (3 more:
    one pass over the coefficients and Gamma, and hh and hv at depth 1).
    The oracle adds one nested pass over all frame fields (2);
    ricci-commutation one over both test fields (2); bianchi one over its
    four tensors and, at its seeded point, one over hh, hv and Gamma (2),
    and hh and hv at depth 2 (2); compatibility one over both metric
    blocks (1)."""
    assert _passes_per_point(load_scenario(str(path)), suite, 2) == passes


def _depth(s):
    depth = 0
    while isinstance(s, Jet):
        s, depth = s.value, depth + 1
    return depth


def test_bianchi_never_evaluates_vh_or_vv_at_depth_two(monkeypatch):
    """Rh and Rv at the seeded point differentiate hh and hv only; vh and
    vv are read there, at depth 1, which is also where the shared
    components pass reads them."""
    depths = {name: set() for name in ("hh", "hv", "vh", "vv")}
    original = Scenario.dconnection

    def recorded(self):
        D = original(self)

        def wrap(name):
            fn = getattr(D, name + "_at")

            def at(xs, y):
                depths[name].add(_depth(y))
                return fn(xs, y)
            return at

        return DConnectionCoeffs(D.p, *map(wrap, depths))

    monkeypatch.setattr(Scenario, "dconnection", recorded)
    run_suites(load_scenario(str(DATA_DIR / "gen3_seed1.json")), ["bianchi"],
               samples=2, seed=1)
    assert depths["hh"] == depths["hv"] == {0, 1, 2}
    assert depths["vh"] == depths["vv"] == {1}


def test_left_sides_do_not_read_the_component_tables(monkeypatch):
    """Moving one Rh entry of the component tables breaks the
    identities that compare against it: the left sides come from nested
    differentiation, not from those tables.  The bump exceeds both suites'
    tolerances (1e-6 and 1e-5)."""
    sc = load_scenario(str(SCENARIO_DIR / "d1.json"))

    def names_failed():
        return {res.name for suite in ("ricci-commutation", "bianchi")
                for res in run_suites(sc, [suite], samples=3, seed=1)[0][1]
                if not res.passed}

    assert names_failed() == set()
    original = curvature.curvature_components_at

    def bumped(*args):
        tors, curv = original(*args)
        curv.Rh[0][0][0][1] += 1e-3
        return tors, curv

    monkeypatch.setattr(curvature, "curvature_components_at", bumped)
    failed = names_failed()
    # the second test field is the first frame field (vertical part 1), so
    # its residual moves by the bump itself
    assert {"bianchi1_h", "ricci_commutation_2"} <= failed
