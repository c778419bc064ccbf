"""The generated kernels of the adapted-derivative split
(``nlconnection``), the Leibniz rule (``dconnection``) and the Koszul
formula (``metric``) against the per-entry loops they replaced, which
``tests/reference.py`` keeps: the same bits, signed zeros included, and
the same number of Jets built.  The data mix exact and signed zeros with
floats of several scales, so a dropped ``0 +`` (the start of the loops'
sums), a reordered sum or a wrong stride shows."""

import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import DATA_DIR, SCENARIO_DIR, bits
from reference import (
    loop_adapted_derivatives,
    loop_h_cov_values,
    loop_koszul,
    loop_split,
    loop_v_cov_values,
)

from kkgeom import calculus, dconnection, metric, nlconnection
from kkgeom.calculus import Jet, seeded_point
from kkgeom.dconnection import h_cov_values, v_cov_values
from kkgeom.metric import matrix_inverse, metric_dconnection
from kkgeom.nlconnection import _split_kernel, adapted_derivatives
from kkgeom.sampling import Box, sample_points
from kkgeom.scenario import load_scenario

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def _traffic(monkeypatch, fn, *args):
    """``fn(*args)`` and the number of Jets it built."""
    built = 0
    init = Jet.__init__

    def counting_init(self, value, dx, dy):
        nonlocal built
        built += 1
        init(self, value, dx, dy)

    with monkeypatch.context() as patch:
        patch.setattr(Jet, "__init__", counting_init)
        out = fn(*args)
    return out, built


def _same(monkeypatch, kernel, reference):
    """Both calls (``(fn, *args)``) give the same bits and build as many
    Jets."""
    got, got_jets = _traffic(monkeypatch, *kernel)
    want, want_jets = _traffic(monkeypatch, *reference)
    assert bits(got) == bits(want)
    assert got_jets == want_jets


def _num(rng):
    return rng.choice((0.0, -0.0, 0.0, -0.0, 1.0, -1.0,
                       rng.uniform(-2.0, 2.0), rng.uniform(-1e-3, 1e-3),
                       rng.uniform(-1e3, 1e3)))


def _scalar(rng, m, depth, float_partials=False):
    """A float (depth 0) or a Jet of that depth with m partials; with
    ``float_partials`` its partials are floats under a Jet value, as
    ``seeded_point`` builds them at a Jet point."""
    if depth == 0:
        return _num(rng)
    if float_partials:
        return Jet(_scalar(rng, m, depth - 1), [_num(rng) for _ in range(m)],
                   _num(rng))
    return Jet(_scalar(rng, m, depth - 1),
               [_scalar(rng, m, depth - 1) for _ in range(m)],
               _scalar(rng, m, depth - 1))


def _leaf(rng, m, kind):
    if kind == "floats":
        return _num(rng)
    if kind == "depth1":
        return _scalar(rng, m, 1)
    if kind == "depth2":
        return _scalar(rng, m, 2, float_partials=rng.random() < 0.3)
    # floats among depth-1 Jets
    return _scalar(rng, m, 1) if rng.random() < 0.5 else _num(rng)


@pytest.mark.parametrize("kind", ["floats", "depth1", "depth2", "mixed"])
@pytest.mark.parametrize("p,m", list(itertools.product(range(1, 5),
                                                       range(1, 5))))
def test_split_kernel_matches_the_leaf_loop(monkeypatch, p, m, kind):
    """Rows of leaves, one leaf, and lists of ``[h_list, v]`` pairs and of
    lists, with rho and Gamma one Jet level below the leaves, as in a
    nested pass."""
    rng = random.Random(f"{p}:{m}:{kind}")
    coeff_depth = 1 if kind == "depth2" else 0
    for _ in range(4):
        rho = [[_scalar(rng, m, coeff_depth) for _ in range(m)]
               for _ in range(p)]
        gam = [_scalar(rng, m, coeff_depth) for _ in range(p)]

        def leaves(n):
            return [_leaf(rng, m, kind) for _ in range(n)]

        for node in (leaves(6), leaves(1), [],
                     [[leaves(p), _leaf(rng, m, kind)] for _ in range(2)],
                     [leaves(3), [leaves(2), leaves(p)], _leaf(rng, m, kind)]):
            _same(monkeypatch,
                  (_split_kernel(p, m), node, rho, gam),
                  (loop_split, node, tuple(zip(rho, gam)), (0.0,) * m))


@pytest.mark.parametrize("name", ["d1.json", "vdep.json", "gen3_seed1.json"])
def test_adapted_derivatives_match_the_leaf_loop(monkeypatch, name):
    """Whole passes over a scenario's g, Gamma and anchor, and over g00
    alone (a scalar), at float, depth-1 and depth-2 points."""
    sc = load_scenario(str((DATA_DIR if name.startswith("gen")
                            else SCENARIO_DIR) / name))
    A, N, G = sc.algebroid, sc.connection, sc.metric

    def tables(jxs, jy):
        return [G.g_at(jxs, jy), G.g00_at(jxs, jy), N.gamma_at(jxs, jy),
                A.rho_at(jxs)]

    for pt in sample_points(Box.default(A.m), 2, seed=7):
        xs, y = pt.x, pt.y
        for _ in range(3):
            for fn in (tables, G.g00_at):
                _same(monkeypatch,
                      (adapted_derivatives, fn, xs, y, A, N),
                      (loop_adapted_derivatives, fn, xs, y, A, N))
            xs, y = seeded_point(xs, y)


def _tensor(rng, p, rank, depth, m=2):
    if rank == 0:
        return _scalar(rng, m, depth)
    return [_tensor(rng, p, rank - 1, depth, m) for _ in range(p)]


def _cov_cases(rng, p, rh, sh, depth):
    rank = rh + sh
    vals = _tensor(rng, p, rank, depth)
    delta = [_tensor(rng, p, rank, depth) for _ in range(p)]
    ddy = _tensor(rng, p, rank, depth)
    Hh, Hv = _tensor(rng, p, 3, depth), _tensor(rng, p, 1, depth)
    Vh, Vv = _tensor(rng, p, 2, depth), _scalar(rng, 2, depth)
    return vals, delta, ddy, Hh, Hv, Vh, Vv


def _check_cov(monkeypatch, rng, p, rh, sh, w, depth, h=True, v=True):
    vals, delta, ddy, Hh, Hv, Vh, Vv = _cov_cases(rng, p, rh, sh, depth)
    if h:
        _same(monkeypatch,
              (h_cov_values, vals, delta, rh, sh, w, Hh, Hv),
              (loop_h_cov_values, vals, delta, rh, sh, w, Hh, Hv))
    if v:
        _same(monkeypatch,
              (v_cov_values, vals, ddy, rh, sh, w, Vh, Vv),
              (loop_v_cov_values, vals, ddy, rh, sh, w, Vh, Vv))


# The valences (rh, sh, vertical weight) that the suites differentiate:
# horizontally (h) and vertically (v).
SUITE_VALENCES_H = [(0, 2, 0), (0, 0, -2), (1, 0, 0), (0, 0, 1), (1, 1, 0),
                    (1, 0, -1), (0, 1, 1), (0, 0, 0), (1, 2, 0), (0, 2, 1),
                    (1, 3, 0)]
SUITE_VALENCES_V = [(0, 2, 0), (0, 0, -2), (1, 0, 0), (0, 0, 1), (1, 1, 0),
                    (0, 1, 1)]


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_leibniz_kernels_match_the_loop_at_suite_valences(monkeypatch, p,
                                                          depth):
    rng = random.Random(f"suite:{p}:{depth}")
    for rh, sh, w in SUITE_VALENCES_H:
        if depth and p ** (rh + sh) > 27:
            continue
        _check_cov(monkeypatch, rng, p, rh, sh, w, depth, v=False)
    for rh, sh, w in SUITE_VALENCES_V:
        _check_cov(monkeypatch, rng, p, rh, sh, w, depth, h=False)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_leibniz_kernels_match_the_loop_at_every_valence(monkeypatch, p):
    """Every (rh, sh) up to rank 4 at weights -2..2, on floats."""
    rng = random.Random(f"all:{p}")
    for rank in range(5):
        for rh in range(rank + 1):
            for w in range(-2, 3):
                _check_cov(monkeypatch, rng, p, rh, rank - rh, w, 0)


@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_koszul_kernel_matches_the_loop(monkeypatch, p, depth):
    rng = random.Random(f"koszul:{p}:{depth}")
    for _ in range(3 if depth < 2 else 1):
        gv = _tensor(rng, p, 2, depth)
        gd = [_tensor(rng, p, 2, depth) for _ in range(p)]
        gi = _tensor(rng, p, 2, depth)
        Lv = _tensor(rng, p, 3, depth)
        _same(monkeypatch,
              (metric._koszul_kernel(p), gv, gd, gi, Lv),
              (loop_koszul, gv, gd, gi, Lv))


@pytest.mark.parametrize("name", ["d1.json", "vdep.json", "nonabelian.json",
                                  "gen3_seed1.json"])
def test_metric_hh_matches_the_koszul_loop(monkeypatch, name):
    """``hh_at`` of a scenario's metric connection at float, depth-1 and
    depth-2 points."""
    sc = load_scenario(str((DATA_DIR if name.startswith("gen")
                            else SCENARIO_DIR) / name))
    A, N, G = sc.algebroid, sc.connection, sc.metric
    D = metric_dconnection(G, sc.baseline_for(N), A, N)

    def reference(xs, y):
        g_vals, g_delta, _ = loop_adapted_derivatives(G.g_at, xs, y, A, N)
        ginv = matrix_inverse(g_vals)
        return loop_koszul(g_vals, g_delta, ginv, A.L_at(xs))

    for pt in sample_points(Box.default(A.m), 2, seed=9):
        xs, y = pt.x, pt.y
        for _ in range(3):
            _same(monkeypatch, (D.hh_at, xs, y), (reference, xs, y))
            xs, y = seeded_point(xs, y)


# Each kernel factory, keys to generate with it, and the module it belongs
# to.
FACTORIES = [
    (calculus._jet_class, [(1,), (4,)], calculus),
    (nlconnection._split_kernel, [(1, 1), (3, 2), (4, 4)], nlconnection),
    (dconnection._leibniz_kernel, [(2, 0, 0, True),
                                   (3, 3, 1, False),
                                   (4, 4, 2, True)], dconnection),
    (metric._koszul_kernel, [(1,), (4,)], metric),
]


def _codes(obj):
    """Every code object of a generated function or class."""
    found = []
    funcs = ([obj] if callable(obj) and hasattr(obj, "__code__")
             else [v for v in vars(obj).values() if hasattr(v, "__code__")])
    stack = [f.__code__ for f in funcs]
    while stack:
        code = stack.pop()
        found.append(code)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return found


@pytest.mark.parametrize("factory,keys,module", FACTORIES,
                         ids=[f[0].__name__ for f in FACTORIES])
def test_generated_kernels_are_charged_to_their_module(factory, keys, module):
    """A profile charges code by ``co_filename``, and perfbench counts
    ``<lambda>`` code in ``<string>`` as compiled scenario expressions: a
    kernel is compiled under its own module's file, with a name."""
    for key in keys:
        codes = _codes(factory(*key))
        assert codes
        for code in codes:
            assert code.co_filename == module.__file__, code
            assert code.co_name != "<lambda>", code


def test_a_load_generates_no_kernel():
    """Kernels are generated on first use: a fresh process that imports
    the CLI and loads scenarios has generated none."""
    code = ("import sys, kkgeom.cli\n"
            "from kkgeom import calculus, dconnection, metric, nlconnection\n"
            "from kkgeom.scenario import load_scenario\n"
            "for path in sys.argv[1:]:\n"
            "    load_scenario(path)\n"
            "print([f.cache_info().currsize for f in (\n"
            "    calculus._jet_class, nlconnection._split_kernel,\n"
            "    dconnection._leibniz_kernel, metric._koszul_kernel)])\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SCENARIO_DIR / "d1.json"),
         str(SCENARIO_DIR / "vdep.json"), str(DATA_DIR / "gen3_seed1.json")],
        capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC_ROOT)))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "[0, 0, 0, 0]\n"
