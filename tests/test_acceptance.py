"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Tolerances are pinned here and nowhere else.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

from kkgeom.calculus import jdx, jdy, jval, primal, seeded_point
from kkgeom.curvature import (
    BianchiCheck,
    OracleCheck,
    RicciCommutationCheck,
    curvature_components,
    energy_momentum,
    ricci,
    scalar_curvature,
    torsion_components,
)
from kkgeom.dconnection import DConnectionCoeffs, berwald
from kkgeom.metric import CompatibilityCheck, MetricStructure
from kkgeom.nlconnection import NonlinearConnection, nlc_curvature
from kkgeom.lift import (
    LiftMorphism,
    acceleration_lift,
    integrate_parallel_lift,
    integrate_vertical_parallel,
)
from kkgeom.sampling import Box, sample_points
from kkgeom.scenario import load_scenario
from kkgeom.suites import run_suites
from conftest import SCENARIO_DIR, canonical_metric_dconnection, curve, \
    identity_algebroid, make_d1, make_nonabelian, make_sphere, run_check, \
    table


def report(num, desc, residual, tol):
    ok = residual <= tol
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:>2}: {desc} "
          f"(max {residual:.3e} vs tol {tol:.0e})")
    assert ok, f"criterion {num}: {desc}: {residual} > {tol}"


def test_criterion_01_s_vanishing():
    worst = 0.0
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        sc = load_scenario(str(path))
        D = None
        try:
            D = sc.dconnection()
        except Exception:
            continue
        pts = sample_points(sc.box, 100, seed=sc.seed)
        for pt in pts:
            tors = torsion_components(D, sc.connection, sc.algebroid, pt)
            curv = curvature_components(D, sc.connection, sc.algebroid, pt)
            ric = ricci(curv)
            worst = max(worst, abs(tors.S00), abs(curv.Sv), abs(ric.S00),
                        max(abs(v) for row in curv.Sh for v in row))
    report(1, "vertical-pair torsion/curvature/Ricci blocks vanish "
              "(100 points, every shipped scenario)", worst, 1e-12)


def test_criterion_02_metric_compatibility():
    worst = 0.0
    for make in (make_d1, make_nonabelian):
        A, N, G = make()
        D = canonical_metric_dconnection(G, A, N)
        pts = sample_points(Box.default(2), 40, seed=0xA1B2)
        res, = run_check(CompatibilityCheck(G, A, N), D, N, A, pts, 1e-9)
        worst = max(worst, res.max_residual)
    report(2, "constructed metric connection is compatible on both desk "
              "scenarios", worst, 1e-9)


def _classical_blocks(G, N, pt):
    """Independent classical-reduction oracle: flat frame, zero bracket.
    Plain coordinate jets, explicit 2x2 inverse, and literal classical
    displays for the connection, torsion and curvature families."""
    p = 2

    def delta_of(array_fn):
        # delta_k = d/dx_k - Gamma_k d/dy0 and the plain fiber derivative,
        # written directly (does not reuse the engine helper)
        def out(xs, y):
            jxs, jy = seeded_point(xs, y)
            arr = array_fn(jxs, jy)
            gam = N.gamma_at(xs, y)

            def walk(node, fn):
                if isinstance(node, list):
                    return [walk(v, fn) for v in node]
                return fn(node)

            vals = walk(arr, jval)
            ddy = walk(arr, jdy)
            deltas = [walk(arr, lambda s, _k=k: jdx(s, _k) - gam[_k] * jdy(s))
                      for k in range(p)]
            return vals, deltas, ddy
        return out

    def inv2(g):
        det = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        return [[g[1][1] / det, -g[0][1] / det],
                [-g[1][0] / det, g[0][0] / det]]

    def christoffel(xs, y):
        vals, deltas, ddy = delta_of(lambda a, b: G.g_at(a, b))(xs, y)
        ginv = inv2(vals)
        hh = [[[0.5 * sum(ginv[i][h] * (deltas[k][h][j] + deltas[j][h][k]
                                        - deltas[h][j][k]) for h in range(p))
                for k in range(p)] for j in range(p)] for i in range(p)]
        vh = [[0.5 * sum(ginv[i][h] * ddy[j][h] for h in range(p))
               for j in range(p)] for i in range(p)]
        return hh, vh

    def hv_vv(xs, y):
        jxs, jy = seeded_point(xs, y)
        gam_j = N.gamma_at(jxs, jy)
        dgam = [jdy(v) for v in gam_j]
        g00_j = G.g00_at(jxs, jy)
        g00 = jval(g00_j)
        gam = N.gamma_at(xs, y)
        dg00 = [jdx(g00_j, k) - gam[k] * jdy(g00_j) for k in range(p)]
        hv = [dgam[k] + 0.5 * (dg00[k] - 2.0 * dgam[k] * g00) / g00
              for k in range(p)]
        vv = 0.5 * jdy(g00_j) / g00
        return hv, vv

    hh, vh = christoffel(pt.x, pt.y)
    hv, vv = hv_vv(pt.x, pt.y)

    # torsion displays
    jxs, jy = seeded_point(pt.x, pt.y)
    gam_j = N.gamma_at(jxs, jy)
    gam = [jval(v) for v in gam_j]
    dgam_dx = [[jdx(gam_j[g], k) for k in range(p)] for g in range(p)]
    dgam_dy = [jdy(v) for v in gam_j]
    Rnl = [[dgam_dx[a][b] - gam[b] * dgam_dy[a]
            - (dgam_dx[b][a] - gam[a] * dgam_dy[b])
            for b in range(p)] for a in range(p)]
    thh = [[[hh[i][j][k] - hh[i][k][j] for k in range(p)] for j in range(p)]
           for i in range(p)]
    pv_t = [dgam_dy[j] - hv[j] for j in range(p)]

    # curvature displays
    _, dhh, ddy_hh = delta_of(lambda a, b: christoffel(a, b)[0])(pt.x, pt.y)
    _, dvh, _ = delta_of(lambda a, b: christoffel(a, b)[1])(pt.x, pt.y)
    hv_vals, dhv, ddy_hv = delta_of(lambda a, b: hv_vv(a, b)[0])(pt.x, pt.y)
    vv_vals, dvv, ddy_vv = delta_of(lambda a, b: [hv_vv(a, b)[1]])(pt.x, pt.y)
    rh = [[[[dhh[l][i][j][k] - dhh[k][i][j][l]
             + sum(hh[i][h][l] * hh[h][j][k] - hh[i][h][k] * hh[h][j][l]
                   for h in range(p))
             + Rnl[k][l] * vh[i][j]
             for l in range(p)] for k in range(p)] for j in range(p)]
          for i in range(p)]
    rv = [[dhv[l][k] - dhv[k][l] + Rnl[k][l] * vv_vals[0]
           for l in range(p)] for k in range(p)]
    ph_c = [[[ddy_hh[i][e][k] - dvh[k][i][e]
              + sum(vh[i][h] * hh[h][e][k] - hh[i][h][k] * vh[h][e]
                    for h in range(p))
              + dgam_dy[k] * vh[i][e]
              for k in range(p)] for e in range(p)] for i in range(p)]
    pv_c = [ddy_hv[k] - dvv[k][0] + dgam_dy[k] * vv_vals[0]
            for k in range(p)]
    return {"hh": hh, "hv": hv, "vh": vh, "vv": vv, "thh": thh,
            "tv": Rnl, "ph_t": vh, "pv_t": pv_t, "rh": rh, "rv": rv,
            "ph_c": ph_c, "pv_c": pv_c}


def test_criterion_03_classical_reduction():
    # trivial frame: the generalized formulas must reproduce the classical
    # displays; checked on the d1 data and on a fiber-dependent metric so
    # the vertical families are nonzero
    scenarios = []
    A = identity_algebroid(2)
    scenarios.append(make_d1())
    Nv = NonlinearConnection(2, table(["x2*y0 + 0.3*sin(x1)*y0^2",
                                       "0.2*x1*y0"]))
    Gv = MetricStructure(2, table([["1+x1^2+0.5*y0^2", "0"], ["0", "1"]]),
                         table("exp(2*x1)*(1+0.25*y0^2)"))
    scenarios.append((A, Nv, Gv))
    worst = 0.0
    pts = sample_points(Box.default(2), 50, seed=0xA1B2)
    for A, N, G in scenarios:
        D = canonical_metric_dconnection(G, A, N)
        for pt in pts[:25]:
            ref = _classical_blocks(G, N, pt)
            hh = D.hh_at(pt.x, pt.y)
            hv = D.hv_at(pt.x, pt.y)
            vh = D.vh_at(pt.x, pt.y)
            vv = D.vv_at(pt.x, pt.y)
            tors = torsion_components(D, N, A, pt)
            curv = curvature_components(D, N, A, pt)
            for i in range(2):
                for j in range(2):
                    worst = max(worst, abs(primal(vh[i][j]) - ref["vh"][i][j]),
                                abs(tors.Ph[i][j] - ref["ph_t"][i][j]),
                                abs(tors.Tv[i][j] - ref["tv"][i][j]),
                                abs(curv.Rv[i][j] - ref["rv"][i][j]))
                    for k in range(2):
                        worst = max(
                            worst,
                            abs(primal(hh[i][j][k]) - ref["hh"][i][j][k]),
                            abs(tors.Thh[i][j][k] - ref["thh"][i][j][k]),
                            abs(curv.Ph[i][j][k] - ref["ph_c"][i][j][k]))
                        for l in range(2):
                            worst = max(worst, abs(curv.Rh[i][j][k][l]
                                                   - ref["rh"][i][j][k][l]))
                worst = max(worst, abs(primal(hv[i]) - ref["hv"][i]),
                            abs(tors.Pv[i] - ref["pv_t"][i]),
                            abs(curv.Pv[i] - ref["pv_c"][i]))
            worst = max(worst, abs(primal(vv) - ref["vv"]))
    report(3, "generalized formulas reduce to the classical displays "
              "(50 points)", worst, 1e-10)


def test_criterion_04_oracle_equivalence():
    worst = 0.0
    for make in (make_d1, make_nonabelian):
        A, N, G = make()
        D = canonical_metric_dconnection(G, A, N)
        pts = sample_points(Box.default(2), 20, seed=0xA1B2)
        for res in run_check(OracleCheck(N, A), D, N, A, pts, 1e-8):
            worst = max(worst, res.max_residual)
    report(4, "definition-based torsion/curvature equals component "
              "formulas (20 points, both desk scenarios)", worst, 1e-8)


def test_criterion_05_ricci_type_commutation():
    A, N, G = make_d1()
    D = canonical_metric_dconnection(G, A, N)
    pts = sample_points(Box.default(2), 20, seed=0xA1B2)
    Z1 = table([["x2", "sin(x1)"], "x1*y0"])

    def Z2(xs, y):
        return [1.0, 0.0], 1.0

    worst = max(res.max_residual for res in run_check(
        RicciCommutationCheck([Z1, Z2], N, A), D, N, A, pts, 1e-6))
    report(5, "second-derivative commutation formulas hold for two fixed "
              "test fields on d1", worst, 1e-6)


def test_criterion_06_bianchi_identities():
    A, N, G = make_d1()
    pts = sample_points(Box.default(2), 6, seed=0xA1B2)
    worst = 0.0
    D_metric = canonical_metric_dconnection(G, A, N)
    for res in run_check(BianchiCheck(N, A), D_metric, N, A, pts, 1e-5):
        worst = max(worst, res.max_residual)
    D_berwald = berwald(N)
    for res in run_check(BianchiCheck(N, A), D_berwald, N, A, pts, 1e-5):
        worst = max(worst, res.max_residual)
    report(6, "cyclic component identities hold on d1 (metric and "
              "fiber-derivative connections)", worst, 1e-5)


def test_criterion_07_nlc_curvature_value():
    A = identity_algebroid(2)
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    pts = sample_points(Box.default(2), 25, seed=0xA1B2)
    worst = 0.0
    for pt in pts:
        R = nlc_curvature(A, N, pt)
        worst = max(worst, abs(R[0][1] - pt.y), abs(R[1][0] + pt.y))
    report(7, "bracket curvature of Gamma=(x2*y0, 0) equals y0", worst, 1e-12)


def test_criterion_08_constant_curvature_surface():
    A, N, G = make_sphere()
    D = canonical_metric_dconnection(G, A, N)
    pts = sample_points(Box(((0.3, 2.8), (-1.0, 1.0)), (0.1, 2.0)), 25,
                        seed=0xA1B2)
    worst = 0.0
    for pt in pts:
        r = ricci(curvature_components(D, N, A, pt))
        scal = scalar_curvature(r, G, pt)
        em = energy_momentum(r, scal, G, 1.0, pt)
        worst = max(worst, abs(scal - 2.0),
                    max(abs(v) for row in em.Tab for v in row))
    report(8, "sphere block: scalar curvature 2 and vanishing source "
              "blocks", worst, 1e-7)


def test_criterion_09_transformation_laws():
    sc = load_scenario(str(SCENARIO_DIR / "d1.json"))
    worst = 0.0
    for res in run_suites(sc, ["transformation"], samples=25,
                          seed=0xA1B2)[0][1]:
        worst = max(worst, res.max_residual)
    sc2 = load_scenario(str(SCENARIO_DIR / "nonabelian.json"))
    for res in run_suites(sc2, ["transformation"], samples=25,
                          seed=0xA1B2)[0][1]:
        worst = max(worst, res.max_residual)
    report(9, "coefficient change laws under constant frame change and "
              "fiber rescale", worst, 1e-8)


def test_criterion_10_lift_odes():
    A = identity_algebroid(2)
    c = curve("t", "2*t")
    L = LiftMorphism(2, table(["1", "0"], on_base=True))
    worst_const = max(
        abs(s.state[0] - 1.5)
        for s in integrate_parallel_lift(
            c, L, A, NonlinearConnection.zero(2), 1.5, 1000).points)
    report(10, "zero-coefficient parallel lift stays constant",
           worst_const, 1e-12)

    Nk = NonlinearConnection(2, table(["2", "0"]))
    worst_lin = max(abs(s.state[0] - math.exp(-2.0 * s.t))
                    for s in integrate_parallel_lift(c, L, A, Nk, 1.0,
                                                     1000).points)
    report(10, "constant-coefficient linear lift matches exp closed form",
           worst_lin, 1e-8)

    D = DConnectionCoeffs(
        2, table([[["0"] * 2 for _ in range(2)] for _ in range(2)]),
        table(["0"] * 2), table([["0"] * 2 for _ in range(2)]), table("1"))
    worst_ric = max(
        abs(s.state[0] - 1.0 / (1.0 + s.t))
        for s in integrate_vertical_parallel(
            c, A, NonlinearConnection.zero(2), D, 1.0, 1000).points)
    report(10, "quadratic vertical lift matches Riccati closed form",
           worst_ric, 1e-8)

    exact = math.exp(-2.0)
    e1 = abs(integrate_parallel_lift(c, L, A, Nk, 1.0, 8).last.state[0]
             - exact)
    e2 = abs(integrate_parallel_lift(c, L, A, Nk, 1.0, 16).last.state[0]
             - exact)
    order = math.log2(e1 / e2)
    print(f"     criterion 10: observed integrator order {order:.3f}")
    assert 3.7 <= order <= 4.3

    Ng = NonlinearConnection(2, table(["x2*y0", "0.3*x1"]))
    traj = integrate_parallel_lift(c, L, A, Ng, 1.0, 1000, 0.0, 1.0)
    h = 1.0 / 1000
    pts = traj.points
    worst_horiz = 0.0
    for k in range(2, len(pts) - 2):
        dy = (-pts[k + 2].state[0] + 8 * pts[k + 1].state[0]
              - 8 * pts[k - 1].state[0] + pts[k - 2].state[0]) / (12 * h)
        _, v = acceleration_lift(c, L, A, Ng, pts[k].state[0], dy, pts[k].t)
        worst_horiz = max(worst_horiz, abs(v))
    report(10, "parallel lifts make the acceleration horizontal",
           worst_horiz, 1e-8)


def test_criterion_11_cli_determinism():
    cmd = [sys.executable, "-m", "kkgeom", "check",
           str(SCENARIO_DIR / "d1.json"), "--suite", "all", "--seed", "7"]
    env_root = str(Path(__file__).resolve().parent.parent / "src")
    runs = []
    for _ in range(2):
        proc = subprocess.run(cmd, capture_output=True, cwd="/",
                              env={"PYTHONPATH": env_root, "PATH": "/usr/bin:/bin"})
        assert proc.returncode == 0, proc.stderr.decode()
        runs.append(proc.stdout)
    ok = runs[0] == runs[1]
    print(f"{'PASS' if ok else 'FAIL'} criterion 11: repeated CLI runs are "
          f"byte-identical ({len(runs[0])} bytes)")
    assert ok
    json.loads(runs[0])  # and it is valid JSON
