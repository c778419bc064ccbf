"""The generated kernels against the per-entry loops they replaced, which
``tests/reference.py`` keeps: the adapted-derivative split and the Gamma
change law (``nlconnection``), the Leibniz rule, the oracle's brackets
and frame derivatives and the coefficient change laws (``dconnection``),
the matrix inverse, its self-check, the Koszul formula and the vh rings
(``metric``), the oracle's differences, the Rh/Rv formula and the
commutation and Bianchi contractions (``curvature``), the anchor and
Jacobi sums of the validators (``algebroid``), the primed-chart tables of
the transformation suite (``suites``) and the RK4 step and right sides of
the lifts (``lift``): the same bits, signed zeros included,
and the same number of Jets built.  The data mix exact and signed zeros
with floats of several scales (and, where asked, infinities and NaNs), so a
dropped ``0 +`` (the start of the loops' sums), a reordered sum or a wrong
stride shows.  A residual kernel scans its residuals and returns the
largest of each check; it is compared with the loop that fed ``update``
one residual at a time through the residuals it scans and through the
trackers both leave, the kernel's value fed to ``update`` once
(``_updates``), and the rows scanned in Python (``report.row_max``) with
their per-entry loops the same way."""

import itertools
import linecache
import math
import os
import random
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest
from conftest import DATA_DIR, SCENARIO_DIR, bits
from reference import (
    loop_adapted_derivatives,
    loop_anchor_compatibility,
    loop_antisymmetry,
    loop_bianchi,
    loop_bracket,
    loop_change_laws,
    loop_commutation,
    loop_compatibility_step,
    loop_frame_change,
    loop_frame_derivatives,
    loop_emit_json,
    loop_frames,
    loop_g_symmetry,
    loop_gamma_law,
    loop_h_cov_values,
    loop_horizontal_rhs,
    loop_inverse_check,
    loop_jacobi,
    loop_koszul,
    loop_masked_koszul,
    loop_masked_rh_rv,
    loop_masked_split,
    loop_matrix_inverse,
    loop_oracle_point,
    loop_parallel_rhs,
    loop_rh_rv,
    loop_rk4_step,
    loop_split,
    loop_v_cov_values,
    loop_vh,
    scanned,
)

from kkgeom import (
    algebroid,
    calculus,
    cli,
    curvature,
    dconnection,
    lift,
    metric,
    nlconnection,
    suites,
)
from kkgeom.algebroid import AlgebroidData
from kkgeom.calculus import EPoint, Jet, primal, seeded_point, structural
from kkgeom.cli import main
from kkgeom.curvature import CurvatureComponents, TorsionComponents
from kkgeom.dconnection import h_cov_values, v_cov_values
from kkgeom.metric import (
    MetricStructure,
    SingularMetricError,
    metric_dconnection,
)
from kkgeom.nlconnection import (
    NonlinearConnection,
    _split_kernel,
    adapted_derivatives,
)
from kkgeom.report import ResidualTracker
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


def _num(rng, special=0.0):
    """A float: an exact or signed zero, +-1 or a float of one of three
    scales; with probability ``special`` an infinity or a NaN instead."""
    if special and rng.random() < special:
        return rng.choice((math.inf, -math.inf, math.nan))
    return rng.choice((0.0, -0.0, 0.0, -0.0, 1.0, -1.0,
                       rng.uniform(-2.0, 2.0), rng.uniform(-1e-3, 1e-3),
                       rng.uniform(-1e3, 1e3)))


def _scalar(rng, m, depth, float_partials=False, special=0.0):
    """A float (depth 0) or a Jet of that depth with m partials; with
    ``float_partials`` its partials are floats under a Jet value, as
    ``seeded_point`` builds them at a Jet point."""
    if depth == 0:
        return _num(rng, special)
    if float_partials:
        return Jet(_scalar(rng, m, depth - 1, special=special),
                   [_num(rng, special) for _ in range(m)],
                   _num(rng, special))
    return Jet(_scalar(rng, m, depth - 1, special=special),
               [_scalar(rng, m, depth - 1, special=special)
                for _ in range(m)],
               _scalar(rng, m, depth - 1, special=special))


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


def _tensor(rng, p, rank, depth, m=2, special=0.0):
    if rank == 0:
        return _scalar(rng, m, depth, special=special)
    return [_tensor(rng, p, rank - 1, depth, m, special) for _ in range(p)]


def _cov_cases(rng, p, rh, sh, depth, special=0.0):
    def draw(rank):
        return _tensor(rng, p, rank, depth, special=special)

    vals = draw(rh + sh)
    delta = [draw(rh + sh) for _ in range(p)]
    ddy = draw(rh + sh)
    Hh, Hv, Vh, Vv = draw(3), draw(1), draw(2), draw(0)
    return vals, delta, ddy, Hh, Hv, Vh, Vv


def _check_cov(monkeypatch, rng, p, rh, sh, w, depth, h=True, v=True,
               special=0.0):
    vals, delta, ddy, Hh, Hv, Vh, Vv = _cov_cases(rng, p, rh, sh, depth,
                                                  special)
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


@pytest.mark.parametrize("depth", [0, 1])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_leibniz_kernels_match_the_loop_on_special_values(monkeypatch, p,
                                                          depth):
    """Every (rh, sh) up to rank 4, along h and v, with signed zeros,
    infinities and NaNs among the entries of T, of its derivatives and of
    the coefficients (Jets only up to 27 entries)."""
    rng = random.Random(f"special:{p}:{depth}")
    for rank in range(5):
        if depth and p ** rank > 27:
            continue
        for rh in range(rank + 1):
            for w in (0, 1, -2):
                _check_cov(monkeypatch, rng, p, rh, rank - rh, w, depth,
                           special=0.1)


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


# Entries whose magnitudes tie (equal-magnitude pivot candidates) or vanish
# (exactly singular blocks).
TIES = (1.0, -1.0, 2.0, -2.0, 0.0, -0.0)


def _tied(rng, depth):
    """A float of TIES, or a Jet of that depth over one."""
    if depth == 0:
        return rng.choice(TIES)
    return Jet(_tied(rng, depth - 1),
               [_scalar(rng, 2, depth - 1) for _ in range(2)],
               _scalar(rng, 2, depth - 1))


def _inverse_or_message(inverse, mat):
    """The bits of ``inverse(mat)``, or the message of the
    SingularMetricError that it raises."""
    try:
        return bits(inverse(mat))
    except SingularMetricError as exc:
        return str(exc)


def _same_inverse(monkeypatch, mat):
    """The inverse kernel and the loop give the same bits, or raise with
    the same message, and build as many Jets; returns whether they
    raised."""
    n = len(mat)
    got = _traffic(monkeypatch, _inverse_or_message,
                   metric._inverse_kernel(n), mat)
    assert got == _traffic(monkeypatch, _inverse_or_message,
                           loop_matrix_inverse, mat)
    return isinstance(got[0], str)


@pytest.mark.parametrize("kind", ["floats", "ties", "specials", "depth1",
                                  "depth2"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_inverse_kernel_matches_the_loop(monkeypatch, n, kind):
    """Random blocks of floats, of tied magnitudes, with infinities and
    NaNs, and of depth-1 and depth-2 Jets (some over tied values, some
    with float partials under a Jet value).  Every third block has a zero
    column, so it is exactly singular and both raise, unless an infinity
    or a NaN reaches that column first."""
    rng = random.Random(f"inverse:{n}:{kind}")

    def leaf():
        if kind == "floats":
            return _num(rng)
        if kind == "ties":
            return rng.choice(TIES)
        if kind == "specials":
            return _num(rng, 0.2)
        depth = 1 if kind == "depth1" else 2
        if rng.random() < 0.5:
            return _tied(rng, depth)
        return _scalar(rng, 2, depth, float_partials=rng.random() < 0.3)

    raised = 0
    for case in range(30 if kind != "depth2" else 9):
        mat = [[leaf() for _ in range(n)] for _ in range(n)]
        if case % 3 == 2:
            for row in mat:
                row[case % n] = rng.choice((0.0, -0.0))
        raised += _same_inverse(monkeypatch, mat)
    assert raised >= 3


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("mat", [
    [[NAN, 1.0], [2.0, 3.0]],              # a first NaN stays the pivot
    [[1.0, 2.0], [NAN, 3.0]],              # a later NaN is never chosen
    [[-2.0, 1.0], [2.0, 1.0]],             # a tie keeps the first row
    [[0.0, 1.0], [-0.0, 2.0]],             # zero column: -> 0.000e+00
    [[-0.0]],                              # -> -0.000e+00
    [[1e-301, 0.0], [0.0, 1.0]],           # below 1e-300: singular
    [[INF, 1.0], [1.0, 1.0]],
    [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]],
], ids=lambda mat: repr(mat).replace(" ", ""))
def test_inverse_kernel_keeps_the_loop_pivots(monkeypatch, mat):
    _same_inverse(monkeypatch, mat)


def _mask(rng, *shape, rate=0.6):
    """A random zero mask of ``shape``, each entry marked with probability
    ``rate``."""
    if not shape:
        return rng.random() < rate
    return tuple(_mask(rng, *shape[1:], rate=rate) for _ in range(shape[0]))


def _zeroed(rng, table, mask, stray=0.0):
    """``table`` with each entry that ``mask`` marks a float zero (+-0.0),
    as a structural zero evaluates, but with probability ``stray`` left as
    drawn: a computed entry whose leaves were not finite."""
    if isinstance(table, list):
        return [_zeroed(rng, t, z, stray) for t, z in zip(table, mask)]
    if mask and not rng.random() < stray:
        return rng.choice((0.0, -0.0))
    return table


def _same_masked(monkeypatch, kernel, reference, full, jets):
    """The masked kernel (``(fn, *args)``) gives the masked loop's bits and
    the full kernel's, and, where ``jets``, builds as many Jets as the
    loop: where no factor of a left-out term is inf, NaN or astray, its
    test passes and it runs only the terms left in."""
    got, got_jets = _traffic(monkeypatch, *kernel)
    want, want_jets = _traffic(monkeypatch, *reference)
    assert bits(got) == bits(want)
    assert bits(got) == bits(full[0](*full[1:]))
    if jets:
        assert got_jets == want_jets


@pytest.mark.parametrize("special", [0.0, 0.05])
@pytest.mark.parametrize("kind", ["floats", "depth1", "depth2"])
@pytest.mark.parametrize("p,m", [(1, 1), (2, 2), (2, 3), (3, 2), (4, 4)])
def test_masked_split_kernel_matches_the_masked_loop(monkeypatch, p, m, kind,
                                                     special):
    """Under random zero masks of rho (its marked entries float zeros),
    with infinities and NaNs among the leaves where asked."""
    rng = random.Random(f"masked-split:{p}:{m}:{kind}:{special}")
    depth = {"floats": 0, "depth1": 1, "depth2": 2}[kind]
    for _ in range(4):
        rho_zero = _mask(rng, p, m)
        rho = _zeroed(rng, [[_scalar(rng, m, max(depth - 1, 0))
                             for _ in range(m)] for _ in range(p)], rho_zero)
        gam = [_scalar(rng, m, max(depth - 1, 0)) for _ in range(p)]

        def leaves(n):
            return [_scalar(rng, m, depth, special=special) for _ in range(n)]

        node = [leaves(3), [leaves(2), leaves(p)], leaves(1)]
        _same_masked(
            monkeypatch, (_split_kernel(p, m, structural(rho_zero)), node,
                          rho, gam),
            (loop_masked_split, node, tuple(zip(rho, gam)), (0.0,) * m,
             rho_zero),
            (_split_kernel(p, m), node, rho, gam), not special)


@pytest.mark.parametrize("special", [0.0, 0.05])
@pytest.mark.parametrize("depth", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_masked_koszul_kernel_matches_the_masked_loop(monkeypatch, p, depth,
                                                      special):
    """Under random zero masks of g and L (their marked entries float
    zeros; the gd entries of marked g entries and the gi entries between
    components of g's pattern float zeros but, where asked, now and then
    as drawn), with infinities and NaNs where asked."""
    rng = random.Random(f"masked-koszul:{p}:{depth}:{special}")
    for _ in range(3 if depth < 2 else 1):
        g_zero, L_zero = _mask(rng, p, p), _mask(rng, p, p, p, rate=0.7)
        comp = metric._components(g_zero)
        cross = tuple(tuple(comp[a] != comp[e] for e in range(p))
                      for a in range(p))
        stray = 0.1 if special else 0.0

        def draw(rank):
            return _tensor(rng, p, rank, depth, special=special)

        gv = _zeroed(rng, draw(2), g_zero)
        gd = [_zeroed(rng, draw(2), g_zero, stray) for _ in range(p)]
        gi = _zeroed(rng, draw(2), cross, stray)
        Lv = _zeroed(rng, draw(3), L_zero)
        kernel, _ = metric.koszul_for(p, g_zero, L_zero)
        _same_masked(monkeypatch, (kernel, gv, gd, gi, Lv),
                     (loop_masked_koszul, g_zero, L_zero, gv, gd, gi, Lv),
                     (metric._koszul_kernel(p), gv, gd, gi, Lv), not special)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_masked_koszul_sees_a_t_that_only_a_left_out_product_reads(bad):
    """A diagonal g and a zero L at p = 2: the one non-finite input is a
    gd entry of a live g entry, which only t_0 reads, and t_0 times the
    float zero gi[1][0] is a left-out product.  The full kernel makes
    hh[1][0][0] NaN from it; so does the masked kernel, by its test of
    t_0."""
    g_zero = ((False, True), (True, False))
    L_zero = (((True,) * 2,) * 2,) * 2
    gv = [[2.0, 0.0], [0.0, 3.0]]
    gd = [[[0.5, 0.0], [0.0, 0.25]] for _ in range(2)]
    gd[0][0][0] = bad
    gi = [[0.5, 0.0], [0.0, 1.0 / 3.0]]
    Lv = [[[0.0, 0.0], [0.0, 0.0]] for _ in range(2)]
    kernel, _ = metric.koszul_for(2, g_zero, L_zero)
    got = kernel(gv, gd, gi, Lv)
    assert bits(got) == bits(metric._koszul_kernel(2)(gv, gd, gi, Lv))
    assert math.isnan(got[1][0][0])


@pytest.mark.parametrize("name", ["d1.json", "vdep.json", "nonabelian.json",
                                  "gen3_seed1.json"])
def test_metric_hh_matches_the_koszul_loop(monkeypatch, name):
    """``hh_at`` of a scenario's metric connection at float, depth-1 and
    depth-2 points."""
    sc = load_scenario(str((DATA_DIR if name.startswith("gen")
                            else SCENARIO_DIR) / name))
    A, N, G = sc.algebroid, sc.connection, sc.metric
    D = metric_dconnection(G, sc.baseline_hv(N), A, N)

    def reference(xs, y):
        g_vals, g_delta, _ = loop_adapted_derivatives(G.g_at, xs, y, A, N)
        ginv = loop_matrix_inverse(g_vals)
        return loop_masked_koszul(G.g_zero, A.L_zero, g_vals, g_delta, ginv,
                                  A.L_at(xs))

    for pt in sample_points(Box.default(A.m), 2, seed=9):
        xs, y = pt.x, pt.y
        for _ in range(3):
            _same(monkeypatch, (D.hh_at, xs, y), (reference, xs, y))
            xs, y = seeded_point(xs, y)


# The operands of the kernel-versus-loop tests below: floats, depth-1 Jets
# and depth-2 Jets (some with float partials under a Jet value), each kind
# also with infinities and NaNs among the floats.
OPERANDS = [(kind, special) for kind in ("floats", "depth1", "depth2")
            for special in (0.0, 0.05)]


def _operands(rng, kind, special, m=2):
    """A function that draws one operand of ``kind`` with m partials."""
    def draw():
        if kind == "floats":
            return _num(rng, special)
        if kind == "depth1":
            return _scalar(rng, m, 1, special=special)
        return _scalar(rng, m, 2, float_partials=rng.random() < 0.3,
                       special=special)
    return draw


def _array(draw, *shape):
    """Nested lists of the given shape, each leaf from ``draw()``."""
    if not shape:
        return draw()
    return [_array(draw, *shape[1:]) for _ in range(shape[0])]


# Where a check's tracker stands before a kernel feeds it: fresh, or
# holding a zero, a tiny, a mid-sized or an infinite residual or a NaN from
# another point.
HELD = [None, 0.0, 1e-300, 0.5, math.inf, math.nan]
HELD_PT = EPoint((0.0, 0.0), 0.0)


def _updates(monkeypatch, checks, kernel, reference, *args):
    """The kernel, called as ``kernel(*args)``, computes the residuals
    that the reference, called as ``reference(*updates, *args)`` with one
    ``update`` per check, feeds to ``update`` one entry at a time: the same
    bits in the same order (the kernel's ``abs`` records each residual it
    scans) and as many Jets built.  When the residuals are floats, the
    largest residual that the kernel returns for each check (one value,
    or a tuple of ``checks``), fed to the check's tracker in one
    ``update``, leaves every tracker as the reference's entries do, from
    each state of :data:`HELD`: the same ``max_residual`` bits and
    ``worst_point``."""
    fed = []
    _, built = _traffic(monkeypatch, reference, *[fed.append] * checks,
                        *args)
    seen = []
    with monkeypatch.context() as patch:
        patch.setitem(kernel.__globals__, "abs",
                      lambda r: seen.append(bits(r)) or 0.0)
        _, kernel_built = _traffic(monkeypatch, kernel, *args)
    assert seen == [bits(v) for v in fed]
    assert kernel_built == built
    if not all(type(v) is float for v in fed):
        return

    def returned(trackers):
        worst = kernel(*args)
        _into(trackers, [worst] if checks == 1 else worst)

    for held in HELD:
        assert _left(checks, held, returned) == _left(
            checks, held, lambda ts: reference(*_entries(ts), *args))


def _into(trackers, residuals):
    """Each tracker fed its residual at :data:`PT` in one ``update``, as
    ``run_suites`` feeds a check's trackers."""
    for tracker, r in zip(trackers, residuals, strict=True):
        tracker.update(r, PT)


def _entries(trackers):
    """One ``update`` per tracker, at :data:`PT`, for a per-entry loop."""
    return [lambda v, t=t: t.update(v, PT) for t in trackers]


def _left(checks, held, feed):
    """``(max_residual bits, worst_point)`` of each of ``checks`` trackers,
    each fed ``held`` at :data:`HELD_PT` first (unless None), after
    ``feed(trackers)``."""
    trackers = [ResidualTracker("r", 1.0) for _ in range(checks)]
    if held is not None:
        for tracker in trackers:
            tracker.update(held, HELD_PT)
    feed(trackers)
    return [(_word(t.max_residual), t.worst_point) for t in trackers]


def _word(x):
    """The 64 bits of a float, NaN payloads included."""
    return struct.pack("<d", x)


def _seeded(rng, draw, special):
    """Draws for a seeded table: ``draw()``, or with probability 0.3 a
    float, an entry that does not depend on x."""
    return lambda: _num(rng, special) if rng.random() < 0.3 else draw()


def _ids(cases):
    return [f"{kind}-{special}" for kind, special in cases]


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p,m", list(itertools.product(range(1, 5),
                                                       range(1, 5))))
def test_bracket_kernel_matches_the_pair_loop(monkeypatch, p, m, kind,
                                              special):
    """One pair of two fields, then every pair of three fields and a
    repeated pair.  The kernel sums the anchor over each field component
    once, the loop once per pair and side: for one pair that is the same
    work, for more pairs the kernel builds fewer Jets."""
    rng = random.Random(f"bracket:{p}:{m}:{kind}:{special}")
    draw = _operands(rng, kind, special, m)
    kernel = dconnection._bracket_kernel(p, m)

    def args(fields, pairs):
        nat = [(_array(draw, p), draw(), _array(draw, p, m), _array(draw, m),
                _array(draw, p), draw()) for _ in range(fields)]
        return (_array(draw, p, m), _array(draw, p, p, p), _array(draw, p),
                nat, pairs)

    one = args(2, [(0, 1)])
    _same(monkeypatch, (kernel, *one), (loop_bracket, *one))
    many = args(3, [(x, y) for x in range(3) for y in range(3)] + [(1, 2)])
    got, got_jets = _traffic(monkeypatch, kernel, *many)
    want, want_jets = _traffic(monkeypatch, loop_bracket, *many)
    assert bits(got) == bits(want)
    assert got_jets <= want_jets


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_frame_derivatives_kernel_matches_the_loop(monkeypatch, p, kind,
                                                   special):
    rng = random.Random(f"frames:{p}:{kind}:{special}")
    draw = _operands(rng, kind, special)

    def fields(k):
        return [[_array(draw, p), draw()] for _ in range(k)]

    for k in (1, p + 2):
        args = (fields(k), [fields(k) for _ in range(p)], fields(k),
                _array(draw, p, p, p), _array(draw, p), _array(draw, p, p),
                draw())
        _same(monkeypatch, (dconnection._frame_derivatives_kernel(p), *args),
              (loop_frame_derivatives, *args))


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_frames_kernel_matches_the_differences(monkeypatch, p, kind,
                                               special):
    rng = random.Random(f"definitions:{p}:{kind}:{special}")
    draw = _operands(rng, kind, special)
    n = p + 1
    second = [[[_array(draw, p), draw()] for _ in range(n + n * n)]
              for _ in range(n)]
    br = [[(_array(draw, p), draw()) for _ in range(n)] for _ in range(n)]
    _same(monkeypatch, (curvature._frames_kernel(p), second, br),
          (loop_frames, second, br))


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_rh_rv_kernel_matches_the_loop(monkeypatch, p, kind, special):
    """With delta[g] as the torsion pass of the Bianchi suite builds it
    (hh, hv, Gamma) and as the curvature pass does (five families)."""
    rng = random.Random(f"rh_rv:{p}:{kind}:{special}")
    draw = _operands(rng, kind, special)
    for extra in ([(p,)], [(p, p), (), (p,)]):
        delta = [[_array(draw, p, p, p), _array(draw, p)]
                 + [_array(draw, *shape) for shape in extra]
                 for _ in range(p)]
        args = (_array(draw, p, p, p), _array(draw, p), _array(draw, p, p),
                draw(), delta, _array(draw, p, p), _array(draw, p, p, p))
        _same(monkeypatch, (curvature._rh_rv_kernel(p), *args),
              (loop_rh_rv, *args))


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_masked_rh_rv_kernel_matches_the_masked_loop(monkeypatch, p, kind,
                                                     special):
    """Under random zero masks of L and hh (marked L entries float zeros,
    marked hh entries float zeros but, where asked, now and then as
    drawn), with infinities and NaNs where asked."""
    rng = random.Random(f"masked-rh_rv:{p}:{kind}:{special}")
    draw = _operands(rng, kind, special)
    for _ in range(3):
        L_zero, hh_zero = _mask(rng, p, p, p), _mask(rng, p, p, p, rate=0.4)
        delta = [[_array(draw, p, p, p), _array(draw, p), _array(draw, p)]
                 for _ in range(p)]
        args = (_zeroed(rng, _array(draw, p, p, p), hh_zero,
                        0.1 if special else 0.0),
                _array(draw, p), _array(draw, p, p), draw(), delta,
                _array(draw, p, p), _zeroed(rng, _array(draw, p, p, p),
                                            L_zero))
        kernel = curvature._rh_rv_kernel(p, structural(L_zero),
                                         structural(hh_zero))
        _same_masked(monkeypatch, (kernel, *args),
                     (loop_masked_rh_rv, L_zero, hh_zero, *args),
                     (curvature._rh_rv_kernel(p), *args), not special)


def _blocks(draw, p):
    """Random torsion and curvature blocks of rank p."""
    tors = TorsionComponents(
        Thh=_array(draw, p, p, p), Tv=_array(draw, p, p),
        Ph=_array(draw, p, p), Pv=_array(draw, p), S00=draw())
    curv = CurvatureComponents(
        Rh=_array(draw, p, p, p, p), Rv=_array(draw, p, p),
        Ph=_array(draw, p, p, p), Pv=_array(draw, p), Sh=_array(draw, p, p),
        Sv=draw())
    return tors, curv


PT = EPoint((0.5, -0.25), 1.5)


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_commutation_kernel_matches_the_loop(monkeypatch, p, kind, special):
    rng = random.Random(f"commutation:{p}:{kind}:{special}")
    draw = _operands(rng, kind, special)
    tensors = [_array(draw, *shape) for shape in (
        (p, p, p), (p, p), (p,), (p, p), (p, p), (p, p), (p,), (), (p,),
        (p,))]
    _updates(monkeypatch, 1, curvature._commutation_kernel(p),
             loop_commutation, _array(draw, p), draw(), tensors,
             *_blocks(draw, p))


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_bianchi_kernel_matches_the_loop(monkeypatch, p, kind, special):
    rng = random.Random(f"bianchi:{p}:{kind}:{special}")
    draw = _operands(rng, kind, special)
    _updates(monkeypatch, 4, curvature._bianchi_kernel(p), loop_bianchi,
             *_blocks(draw, p), _array(draw, p, p, p, p),
             _array(draw, p, p, p), _array(draw, p, p, p, p, p),
             _array(draw, p, p, p))


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p,m", list(itertools.product(range(1, 5),
                                                       range(1, 5))))
def test_anchor_kernel_matches_the_loop(monkeypatch, p, m, kind, special):
    rng = random.Random(f"anchor:{p}:{m}:{kind}:{special}")
    draw = _operands(rng, kind, special, m)
    _updates(monkeypatch, 1, algebroid._anchor_kernel(p, m),
             loop_anchor_compatibility,
             _array(_seeded(rng, draw, special), p, m),
             _array(draw, p, p, p))


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p,m", list(itertools.product(range(1, 5),
                                                       range(1, 5))))
def test_jacobi_kernel_matches_the_loop(monkeypatch, p, m, kind, special):
    rng = random.Random(f"jacobi:{p}:{m}:{kind}:{special}")
    draw = _operands(rng, kind, special, m)
    _updates(monkeypatch, 1, algebroid._jacobi_kernel(p, m), loop_jacobi,
             _array(draw, p, m),
             _array(_seeded(rng, draw, special), p, p, p))


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_vh_kernel_matches_the_loop(monkeypatch, p, kind, special):
    rng = random.Random(f"vh:{p}:{kind}:{special}")
    draw = _operands(rng, kind, special)
    args = [_array(draw, p, p) for _ in range(2)]
    _same(monkeypatch, (metric._vh_kernel(p), *args), (loop_vh, *args))


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_change_laws_kernel_matches_the_loop(monkeypatch, p, kind, special):
    rng = random.Random(f"change_laws:{p}:{kind}:{special}")
    draw = _operands(rng, kind, special)

    def coeffs():
        return [_array(draw, p, p, p), _array(draw, p), _array(draw, p, p),
                draw()]

    phi = draw()
    while primal(phi) == 0.0:  # the law divides by phi
        phi = draw()
    _updates(monkeypatch, 1, dconnection._change_laws_kernel(p),
             loop_change_laws, _array(draw, p, p), _array(draw, p, p),
             _array(draw, p, p, p), phi, _array(draw, p, 1), coeffs(),
             coeffs())


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p,m", list(itertools.product(range(1, 5),
                                                       range(1, 5))))
def test_gamma_law_kernel_matches_the_loop(monkeypatch, p, m, kind, special):
    rng = random.Random(f"gamma_law:{p}:{m}:{kind}:{special}")
    draw = _operands(rng, kind, special, m)
    _updates(monkeypatch, 1, nlconnection._gamma_law_kernel(p, m),
             loop_gamma_law, PT.y, draw(), _array(draw, m), _array(draw, p, m),
             _array(draw, p), _array(draw, p), _array(draw, p, p))


@pytest.mark.parametrize("kind,special", OPERANDS, ids=_ids(OPERANDS))
@pytest.mark.parametrize("p,m", list(itertools.product(range(1, 5),
                                                       range(1, 5))))
def test_frame_change_kernel_matches_the_loop(monkeypatch, p, m, kind,
                                              special):
    """Each of the four primed-chart tables, over tables that return
    fixed draws."""
    rng = random.Random(f"frame_change:{p}:{m}:{kind}:{special}")
    draw = _operands(rng, kind, special, m)
    rho, Lv = _array(draw, p, m), _array(draw, p, p, p)
    gam, gv = _array(draw, p), _array(draw, p, p)
    tables = (_array(draw, p, p), _array(draw, p, p),
              AlgebroidData(m, p, lambda xs: rho, lambda xs: Lv),
              NonlinearConnection(p, lambda xs, y: gam),
              MetricStructure(p, lambda xs, y: gv, lambda xs, y: 1.0))
    xs, y = (0.5,) * m, 1.5
    for kernel, loop, args in zip(suites._frame_change_kernel(p)(*tables),
                                  loop_frame_change(*tables),
                                  [(xs,), (xs,), (xs, y), (xs, y)]):
        _same(monkeypatch, (kernel, *args), (loop, *args))


def _wide(rng):
    """A float of :func:`_num`, an infinity or a NaN, or a huge one."""
    if rng.random() < 0.1:
        return rng.choice((1e308, -1.7e308, 3e300))
    return _num(rng, 0.1)


def _floats(rng, *shape, wide=True):
    """Nested lists of floats of :func:`_wide`, or of plain floats of one
    scale (whose sums round, so a reordered sum shows)."""
    return _array(lambda: _wide(rng) if wide else rng.uniform(-3.0, 3.0),
                  *shape)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_rk4_kernel_matches_the_loop(n):
    """One step, 100 times: the same right sides asked at the same bits of
    t and of the three stage states, and the same combined state, a
    tuple."""
    rng = random.Random(f"rk4:{n}")
    for case in range(100):
        wide = case % 2 == 0
        ks = [_floats(rng, n, wide=wide) for _ in range(4)]
        ks[1] = tuple(ks[1])
        t, h, half, sixth = _floats(rng, 4, wide=wide)
        state = tuple(_floats(rng, n, wide=wide))

        def run(step):
            asked, rhs = [], iter(ks)

            def f(t, s):
                asked.append((t, s))
                return next(rhs)
            out = step(f, t, state, h, half, sixth)
            assert type(out) is tuple
            assert all(type(s) is tuple for _, s in asked)
            return bits(out), bits(asked)

        assert run(lift._rk4_kernel(n)) == run(loop_rk4_step)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_lift_rhs_kernels_match_the_loops(p):
    """The parallel right side (a tuple) and the horizontal one (a list of
    p + 1 entries, the parallel term last), 100 times each."""
    rng = random.Random(f"rhs:{p}")
    for case in range(100):
        wide = case % 2 == 0
        u, gam, g = _floats(rng, 3, p, wide=wide)
        u = u[0]
        state = tuple(_floats(rng, p, wide=wide)) + (u,)
        Hh = _floats(rng, p, p, p, wide=wide)
        for kernel, loop, args in [
                (lift._parallel_kernel(p), loop_parallel_rhs, (u, gam, g)),
                (lift._horizontal_kernel(p), loop_horizontal_rhs,
                 (state, Hh, gam, g))]:
            got, want = kernel(*args), loop(*args)
            assert type(got) is type(want)
            assert bits(got) == bits(want)


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_inverse_check_kernel_matches_the_loop(p):
    """``(worst, cond)`` of the conditioning check, over blocks with signed
    zeros, infinities, NaNs and huge entries, and over true inverses, 50
    times each."""
    rng = random.Random(f"inverse_check:{p}")
    for _ in range(50):
        block = [[rng.uniform(-2.0, 2.0) + (3.0 if a == b else 0.0)
                  for b in range(p)] for a in range(p)]
        for g, gi in [(_floats(rng, p, p), _floats(rng, p, p)),
                      (block, loop_matrix_inverse(block))]:
            assert (bits(metric._inverse_check_kernel(p)(g, gi))
                    == bits(loop_inverse_check(g, gi)))


@pytest.mark.parametrize("p", [1, 2, 3])
def test_inverse_check_keeps_max_of_the_first_nan(p):
    """``max`` keeps a NaN met first and drops one met later: a NaN in
    column 0 of g makes cond NaN, and a NaN in the last column does not
    (the 1-norm keeps the first column's sum)."""
    rng = random.Random(f"nan:{p}")
    for col in range(p):
        g = _array(lambda: rng.uniform(0.5, 1.5), p, p)
        gi = _array(lambda: rng.uniform(0.5, 1.5), p, p)
        g[0][col] = math.nan
        got = metric._inverse_check_kernel(p)(g, gi)
        assert bits(got) == bits(loop_inverse_check(g, gi))
        assert math.isnan(got[1]) is (col == 0)


# Each factory of the kernels above, with the reference loop it replaced.
SWAPS = [
    (metric, "_inverse_kernel", loop_matrix_inverse),
    (metric, "_inverse_check_kernel", loop_inverse_check),
    (metric, "_vh_kernel", loop_vh),
    (dconnection, "_change_laws_kernel", scanned(loop_change_laws)),
    (nlconnection, "_gamma_law_kernel", scanned(loop_gamma_law)),
    (suites, "_frame_change_kernel", loop_frame_change),
    (dconnection, "_bracket_kernel", loop_bracket),
    (dconnection, "_frame_derivatives_kernel", loop_frame_derivatives),
    (curvature, "_frames_kernel", loop_frames),
    (curvature, "_commutation_kernel", scanned(loop_commutation)),
    (curvature, "_bianchi_kernel", scanned(loop_bianchi, 4)),
    (algebroid, "_anchor_kernel", scanned(loop_anchor_compatibility)),
    (algebroid, "_jacobi_kernel", scanned(loop_jacobi)),
]


# The factories keyed by zero masks, each with a function of the key's
# masks that gives the masked loop of ``tests/reference.py``.
MASKED_SWAPS = [
    (nlconnection, "_split_kernel", lambda m, rho_zero=None: (
        lambda row, rho, gam: loop_masked_split(
            row, tuple(zip(rho, gam)), (0.0,) * m, rho_zero))),
    (metric, "_koszul_kernel", lambda: loop_koszul),
    (metric, "_masked_koszul_kernel", lambda g_zero, L_zero: (
        lambda *args: loop_masked_koszul(g_zero, L_zero, *args))),
    (curvature, "_rh_rv_kernel", lambda L_zero=None, hh_zero=None: (
        lambda *args: loop_masked_rh_rv(L_zero, hh_zero, *args))),
]


def _swap_in_the_loops(monkeypatch, swaps):
    """Each kernel factory of ``swaps`` and of ``MASKED_SWAPS`` returns
    the loop it replaced."""
    for module, name, loop in swaps:
        monkeypatch.setattr(module, name, lambda *key, loop=loop: loop)
    for module, name, loop_of in MASKED_SWAPS:
        monkeypatch.setattr(module, name,
                            lambda p, *masks, loop_of=loop_of: loop_of(*masks))


# The rows scanned in Python (``report.row_max``), with the loops that fed
# them to ``update`` one entry at a time (in the form of the functions
# they replaced, :func:`reference.scanned`).
ROW_SWAPS = [
    (curvature, "_oracle_point", scanned(loop_oracle_point, 2)),
    (metric.CompatibilityCheck, "step", scanned(loop_compatibility_step, 1)),
    (suites, "antisymmetry_residual", scanned(loop_antisymmetry)),
]


@pytest.mark.parametrize("special", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_oracle_rows_match_the_per_entry_loop(p, special):
    """``_oracle_point`` on 10 draws of definitions and components, signed
    zeros, infinities and NaNs among them, leaves both trackers as the
    per-entry loop does, from every state of :data:`HELD`."""
    rng = random.Random(f"oracle_rows:{p}:{special}")
    draw = _operands(rng, "floats", special)
    r = range(p + 1)
    for _ in range(10):
        tors, curv = _blocks(draw, p)
        T = [[(_array(draw, p), draw()) for _ in r] for _ in r]
        C = [[[(_array(draw, p), draw()) for _ in r] for _ in r] for _ in r]
        for held in HELD:
            assert _left(2, held, lambda ts: _into(ts, curvature._oracle_point(
                tors, curv, T, C, p))) == _left(
                    2, held, lambda ts: loop_oracle_point(
                        *_entries(ts), tors, curv, T, C, p))


@pytest.mark.parametrize("special", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_compatibility_rows_match_the_per_entry_loop(monkeypatch, p,
                                                     special):
    """``CompatibilityCheck.step`` over 20 draws of the four
    covariant-derivative blocks, signed zeros, infinities and NaNs among
    them, leaves its tracker as the per-entry loop does, from every state
    of :data:`HELD`."""
    rng = random.Random(f"compatibility_rows:{p}:{special}")
    draw = _operands(rng, "floats", special)
    check = metric.CompatibilityCheck(None, None, None)
    tables = SimpleNamespace(D=None)
    for _ in range(20):
        blocks = (_array(draw, p, p, p), _array(draw, p, p), _array(draw, p),
                  draw())
        monkeypatch.setattr(metric, "_compatibility_values",
                            lambda *args: blocks)
        for held in HELD:
            assert _left(1, held, lambda ts: _into(
                ts, check.step(PT, tables))) == _left(
                    1, held, lambda ts: loop_compatibility_step(
                        *_entries(ts), check, PT, tables))


@pytest.mark.parametrize("special", [0.0, 0.1, 0.3])
@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_validate_rows_match_the_per_entry_loops(p, special):
    """``validate``'s antisymmetry and ``g_symmetry`` checks over tables
    drawn per point, signed zeros, infinities and NaNs among them: the
    same ``max_residual`` bits and ``worst_point`` as one ``update`` per
    entry."""
    def draws(key, *shape):
        rng = random.Random(f"{key}:{p}:{special}")
        return _array(lambda: _num(rng, special), *shape)

    A = AlgebroidData(2, p, lambda xs: draws(("rho", xs), p, 2),
                      lambda xs: draws(("L", xs), p, p, p))
    G = MetricStructure(p, lambda xs, y: draws(("g", xs, y), p, p),
                        lambda xs, y: 1.0)
    sc = SimpleNamespace(box=Box.default(2), samples=12, seed=5, p=p,
                         algebroid=A, metric=G, lift=None)
    checks = {c["name"]: c for c in suites.run_validate(sc)}
    pts = sample_points(sc.box, sc.samples, sc.seed)
    for name, loop, tables in [("antisymmetry", loop_antisymmetry, A),
                               ("g_symmetry", loop_g_symmetry, G)]:
        tracker = ResidualTracker(name, suites.VALIDATE_TOL)
        for pt in pts:
            loop(lambda v, pt=pt: tracker.update(v, pt), tables, pt)
        want = tracker.to_json_obj()
        got = checks[name]
        assert _word(got.pop("max_residual")) == _word(
            want.pop("max_residual"))
        assert got == want


@pytest.mark.parametrize("path", [SCENARIO_DIR / "d1.json",
                                  DATA_DIR / "gen3_seed1.json",
                                  DATA_DIR / "p2_m3.json",
                                  DATA_DIR / "p3_m2.json"],
                         ids=lambda path: path.stem)
def test_the_cli_prints_what_the_reference_loops_print(monkeypatch, capsys,
                                                       path):
    """``validate`` and ``check --suite all`` print the same bytes, with
    the same exit code and as many Jets built, when every kernel above is
    swapped for the loop it replaced; the m != p scenarios reach the
    (p, m) kernels with m != p."""
    def run():
        out = []
        for argv in (["validate", str(path)],
                     ["check", str(path), "--suite", "all", "--samples", "2",
                      "--seed", "1"]):
            code, built = _traffic(monkeypatch, main, argv)
            out.append((code, built, capsys.readouterr().out))
        return out

    kernels = run()
    _swap_in_the_loops(monkeypatch, SWAPS)
    for owner, name, loop in ROW_SWAPS:
        monkeypatch.setattr(owner, name, loop)
    assert run() == kernels


# The lift's kernel factories, with the reference loops they replaced.
LIFT_SWAPS = [
    (lift, "_rk4_kernel", loop_rk4_step),
    (lift, "_parallel_kernel", loop_parallel_rhs),
    (lift, "_horizontal_kernel", loop_horizontal_rhs),
]


@pytest.mark.parametrize("name", ["d1", "berwald", "riccati", "flat"])
def test_lift_prints_what_the_reference_loops_print(monkeypatch, capsys,
                                                    name):
    """``lift`` in every mode, at the shape of the benchmark's lifts,
    prints the same bytes with the same exit code when the RK4 step, the
    right sides, the metric kernels and the emitter are swapped for the
    loops they replaced."""
    path = SCENARIO_DIR / f"{name}.json"

    def run():
        out = []
        for mode in ("parallel", "horizontal", "vertical"):
            code = main(["lift", str(path), "--mode", mode, "--t0", "0",
                         "--t1", "0.9", "--steps", "400"])
            out.append((code, capsys.readouterr().out))
        return out

    kernels = run()
    _swap_in_the_loops(monkeypatch, LIFT_SWAPS + SWAPS)
    monkeypatch.setattr(cli, "emit_json", loop_emit_json)
    assert run() == kernels


# Each kernel factory, keys to generate with it, and the module it belongs
# to.
FACTORIES = [
    (calculus._jet_class, [(1,), (4,)], calculus),
    (nlconnection._split_kernel, [(1, 1), (3, 2), (4, 4),
                                  (2, 2, ((False, True), (True, False)))],
     nlconnection),
    (dconnection._leibniz_kernel, [(2, 0, 0, True, "h"),
                                   (3, 3, 1, False, "v"),
                                   (4, 4, 2, True, "h"),
                                   (2, 2, 1, True, "v")], dconnection),
    (metric._koszul_kernel, [(1,), (4,)], metric),
    (metric._masked_koszul_kernel, [(1, None, (((True,),),)),
                                    (2, ((False, True), (True, False)),
                                     None)], metric),
    (metric._inverse_kernel, [(1,), (4,)], metric),
    (metric._vh_kernel, [(1,), (4,)], metric),
    (dconnection._change_laws_kernel, [(1,), (4,)], dconnection),
    (nlconnection._gamma_law_kernel, [(1, 1), (3, 2), (4, 4)], nlconnection),
    (suites._frame_change_kernel, [(1,), (4,)], suites),
    (dconnection._bracket_kernel, [(1, 1), (2, 3), (4, 4)], dconnection),
    (dconnection._frame_derivatives_kernel, [(1,), (4,)], dconnection),
    (curvature._frames_kernel, [(1,), (4,)], curvature),
    (curvature._rh_rv_kernel, [(1,), (4,), (2, ((((True,) * 2,) * 2,) * 2),
                                            None)], curvature),
    (curvature._commutation_kernel, [(1,), (4,)], curvature),
    (curvature._bianchi_kernel, [(1,), (4,)], curvature),
    (algebroid._anchor_kernel, [(1, 1), (3, 2), (4, 4)], algebroid),
    (algebroid._jacobi_kernel, [(1, 1), (2, 3), (4, 4)], algebroid),
    (metric._inverse_check_kernel, [(1,), (4,)], metric),
    (lift._rk4_kernel, [(1,), (5,)], lift),
    (lift._parallel_kernel, [(1,), (4,)], lift),
    (lift._horizontal_kernel, [(1,), (4,)], lift),
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


# The one key at which each factory's kernel is read back against its
# template: p = m = 2 (n = 2 for the inverse), a state of 3 entries for the
# RK4 step, and the Leibniz rule along both directions.
LINE_KEYS = {"_rk4_kernel": [(3,)],
             "_leibniz_kernel": [(2, 2, 1, True, "h"), (2, 2, 1, True, "v")],
             "_split_kernel": [(2, 2), (2, 2, ((False, True), (True, False)))],
             "_masked_koszul_kernel": [(2, ((False, True), (True, False)),
                                        None)],
             "_rh_rv_kernel": [(2,), (2, ((((True,) * 2,) * 2,) * 2), None)]}


@pytest.mark.parametrize("factory,keys,module", FACTORIES,
                         ids=[f[0].__name__ for f in FACTORIES])
def test_generated_kernels_keep_their_template_lines(factory, keys, module):
    """A traceback through a kernel, and a profile's line of it, point at
    its template: every def of the kernel (every method of the Jet class)
    is compiled under its module's file at the line that defines it
    there.  The Leibniz source, built line by line, points at its
    factory's ``def``."""
    name = factory.__name__
    for key in LINE_KEYS.get(name, [(2,) * len(keys[0])]):
        codes = [code for code in _codes(factory(*key))
                 if not code.co_name.startswith("<")]
        assert codes
        for code in codes:
            assert code.co_filename == module.__file__, code
            line = linecache.getline(code.co_filename, code.co_firstlineno)
            defined = name if name == "_leibniz_kernel" else code.co_name
            assert line.lstrip().startswith(f"def {defined}("), (code, line)


def test_a_load_generates_no_kernel():
    """Kernels are generated on first use: a fresh process that imports
    the CLI and loads scenarios has generated none."""
    code = ("import sys, kkgeom.cli\n"
            "from kkgeom import algebroid, calculus, curvature, dconnection\n"
            "from kkgeom import lift, metric, nlconnection, suites\n"
            "from kkgeom.scenario import load_scenario\n"
            "for path in sys.argv[1:]:\n"
            "    load_scenario(path)\n"
            "print([f.cache_info().currsize for f in (\n"
            "    calculus._jet_class, nlconnection._split_kernel,\n"
            "    dconnection._leibniz_kernel, metric._koszul_kernel,\n"
            "    metric._masked_koszul_kernel,\n"
            "    dconnection._bracket_kernel,\n"
            "    dconnection._frame_derivatives_kernel,\n"
            "    curvature._frames_kernel, curvature._rh_rv_kernel,\n"
            "    curvature._commutation_kernel, curvature._bianchi_kernel,\n"
            "    algebroid._anchor_kernel, algebroid._jacobi_kernel,\n"
            "    metric._inverse_kernel, metric._vh_kernel,\n"
            "    dconnection._change_laws_kernel,\n"
            "    nlconnection._gamma_law_kernel,\n"
            "    suites._frame_change_kernel, metric._inverse_check_kernel,\n"
            "    lift._rk4_kernel, lift._parallel_kernel,\n"
            "    lift._horizontal_kernel)])\n")
    proc = subprocess.run(
        [sys.executable, "-c", code, str(SCENARIO_DIR / "d1.json"),
         str(SCENARIO_DIR / "vdep.json"), str(DATA_DIR / "gen3_seed1.json"),
         str(DATA_DIR / "p2_m3.json")],
        capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(SRC_ROOT)))
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout.decode() == "[" + ", ".join(["0"] * 22) + "]\n"
