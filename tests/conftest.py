import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kkgeom.algebroid import AlgebroidData
from kkgeom.calculus import at_point
from kkgeom.curvature import PointTables
from kkgeom.dconnection import berwald
from kkgeom.exprlang import compile_expr, parse
from kkgeom.lift import BaseCurve
from kkgeom.metric import MetricStructure, metric_dconnection
from kkgeom.nlconnection import NonlinearConnection
from kkgeom.report import ResidualTracker

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
# gen3_seed1.json: the p = m = 3 scenario that perfbench/scenarios.py
# generates for seed 1 (exponential anchor, constant bracket, fiber-dependent
# Gamma, diagonal metric over the berwald baseline), written once; the tests
# do not import the benchmark.
DATA_DIR = Path(__file__).resolve().parent / "data"


def bits(s):
    """A scalar, Jet or nested list as nested tuples of ``float.hex``:
    equal exactly when every float is bitwise equal (NaNs compare equal,
    -0.0 and 0.0 do not) and the nesting is the same."""
    if isinstance(s, (list, tuple)):
        return tuple(map(bits, s))
    if hasattr(s, "dx"):
        return ("jet", bits(s.value), bits(s.dx), bits(s.dy))
    return float.hex(s)


def run_check(check, D, N, A, pts, tol):
    """One check class over ``pts``, stepped as ``run_suites`` steps it:
    ``check.step`` inside ``at_point`` at each point, on the coefficient
    set ``D``, one residual per name into one tracker per name with
    tolerance ``tol``; returns the trackers."""
    trackers = [ResidualTracker(name, tol) for name in check.names]
    for pt in pts:
        with at_point(pt):
            residuals = check.step(pt, PointTables(D, N, A, pt))
        for tracker, r in zip(trackers, residuals, strict=True):
            tracker.update(r, pt)
    return trackers


def run_law(point_fn, args, pts, tol=1e-8):
    """The tracker of a change law over ``pts``: the residual
    ``point_fn(*args, pt)`` (a ``*_transformation_point`` function) at each
    point into one tracker, named after the law."""
    tracker = ResidualTracker(point_fn.__name__.removesuffix("_point"), tol)
    for pt in pts:
        tracker.update(point_fn(*args, pt), pt)
    return tracker


def chart_change_residual(C, base_inverse_at, samples):
    """The self-check of a chart change C: base_inverse o base = id,
    Lambda . Lambda^-1 = I and phi != 0 (an infinite residual where phi
    vanishes) on ``samples``, as one tracker."""
    tracker = ResidualTracker("chart_change", 1e-10)
    for pt in samples:
        back = base_inverse_at(tuple(C.base_at(pt.x)))
        for i in range(C.m):
            tracker.update(back[i] - pt.x[i], pt)
        lam = C.lambda_at(pt.x)
        inv = C.lambda_inv_at(pt.x)
        p = len(lam)
        for a in range(p):
            for b in range(p):
                acc = sum(lam[a][c] * inv[c][b] for c in range(p))
                tracker.update(acc - (1.0 if a == b else 0.0), pt)
        if abs(C.phi_at(pt.x)) < 1e-15:
            tracker.update(float("inf"), pt)
    return tracker


def canonical_metric_dconnection(G, A, N):
    """Metric connection over the fiber-derivative (Berwald-type) baseline,
    as a scenario with a metric and ``baseline: berwald`` builds it."""
    return metric_dconnection(G, berwald(N).hv_at, A, N)


def table(src, m=2, on_base=False):
    """A hand-made table as a scenario compiles it: ``src`` is an
    expression or a nested list of them, and the result is the one
    compiled function of ``X`` (on the base) or of ``X, Y`` (on E) that
    returns the table as nested lists."""
    def nodes(s):
        if isinstance(s, list):
            return [nodes(v) for v in s]
        return parse(s, m, allow_y=not on_base)
    return compile_expr(nodes(src), "X" if on_base else "X, Y")


def field(src, m=2, **kw):
    """One expression as a function of ``(xs, y)``."""
    return compile_expr(parse(src, m, **kw), "X, Y")


def curve(*srcs):
    """The base curve with the given component expressions of t."""
    return BaseCurve(compile_expr(
        tuple(parse(s, 0, allow_y=False, allow_t=True) for s in srcs), "T"))


def frame_h(p, idx):
    """The idx-th horizontal frame field."""
    return lambda xs, y: ([1.0 if a == idx else 0.0 for a in range(p)], 0.0)


def frame_v(p):
    """The vertical frame field."""
    return lambda xs, y: ([0.0] * p, 1.0)


def identity_algebroid(m):
    """Coordinate frame: rho = Id (p = m), L = 0."""
    return AlgebroidData(m, m, table(
        [["1" if i == a else "0" for i in range(m)] for a in range(m)], m,
        on_base=True),
        lambda xs: [[[0.0] * m for _ in range(m)] for _ in range(m)])


def flat_metric(p):
    """g = Id, g00 = 1."""
    return MetricStructure(p, table(
        [["1" if a == b else "0" for b in range(p)] for a in range(p)]),
        table("1"))


def make_d1():
    """Desk scenario: identity anchor, zero bracket, Gamma=(x2*y0, 0),
    g = diag(1+x1^2, 1), g00 = exp(2*x1)."""
    A = identity_algebroid(2)
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    G = MetricStructure(2, table([["1+x1^2", "0"], ["0", "1"]]),
                        table("exp(2*x1)"))
    return A, N, G


def make_nonabelian():
    """Anchor diag(1, e^{x1}) with bracket coefficient L^2_{12}=1 (the frame
    fields are d/dx1 and e^{x1} d/dx2, whose commutator is the second frame
    field); same metric and Gamma as the d1 scenario."""
    A = AlgebroidData(
        2, 2, table([["1", "0"], ["0", "exp(x1)"]], on_base=True),
        table([[["0", "0"], ["0", "0"]], [["0", "1"], ["-1", "0"]]],
              on_base=True))
    N = NonlinearConnection(2, table(["x2*y0", "0"]))
    G = MetricStructure(2, table([["1+x1^2", "0"], ["0", "1"]]),
                        table("exp(2*x1)"))
    return A, N, G


def make_vdep():
    """Fiber-dependent metric over the nonabelian frame: every torsion and
    curvature family is nonzero here."""
    A, N, _ = make_nonabelian()
    N = NonlinearConnection(2, table(["x2*y0 + 0.3*sin(x1)*y0^2",
                                      "0.2*x1*y0"]))
    G = MetricStructure(2, table([["1+x1^2+0.5*y0^2", "0"], ["0", "1"]]),
                        table("exp(2*x1)*(1+0.25*y0^2)"))
    return A, N, G


def make_sphere():
    """Constant-curvature surface block: g = diag(1, sin(x1)^2), flat fiber."""
    A = identity_algebroid(2)
    N = NonlinearConnection.zero(2)
    G = MetricStructure(2, table([["1", "0"], ["0", "sin(x1)^2"]]),
                        table("1"))
    return A, N, G


def make_dense3():
    """p = m = 3 with every table dense and varying: anchor, bracket, Gamma
    and a symmetric metric with off-diagonal entries.  It need not satisfy
    the structure identities; it makes every summand of the index sums
    nonzero, so a reordered or reassociated sum changes bits."""
    rho = [[f"{1 + (a == i)} + 0.{a + i + 1}*sin(x{1 + (a + i) % 3})"
            for i in range(3)] for a in range(3)]
    L = [[[f"0.{g + 1}*x{1 + a}*x{1 + b} + {a - b}*cos(x{1 + g})"
           for b in range(3)] for a in range(3)] for g in range(3)]
    A = AlgebroidData(3, 3, table(rho, 3, on_base=True),
                      table(L, 3, on_base=True))
    N = NonlinearConnection(3, table([
        f"0.{g + 2}*x{1 + g}*y0 + 0.1*sin(x{1 + (g + 1) % 3})*y0^2"
        "+ 0.2*x1*x2*x3" for g in range(3)], 3))
    off = {(0, 1): "0.3*x2*y0", (0, 2): "0.2*sin(x3)", (1, 2): "0.25*x1*x3"}
    diag = ["3+x1^2", "2+x2^2+0.1*y0^2", "4+cos(x1*y0)"]
    dense = "+0.1*x1*x2*x3*y0"
    G = MetricStructure(3, table([
        [(diag[a] if a == b else off[min(a, b), max(a, b)]) + dense
         for b in range(3)] for a in range(3)], 3),
        table("exp(0.5*x1)*(1+y0^2)", 3))
    return A, N, G


@pytest.fixture(scope="session")
def d1():
    return make_d1()


@pytest.fixture(scope="session")
def nonabelian():
    return make_nonabelian()


@pytest.fixture(scope="session")
def vdep():
    return make_vdep()


@pytest.fixture(scope="session")
def sphere():
    return make_sphere()
