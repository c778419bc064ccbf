import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from kkgeom.algebroid import AlgebroidData
from kkgeom.calculus import at_point
from kkgeom.curvature import PointTables
from kkgeom.dconnection import berwald
from kkgeom.exprlang import eval_field, parse
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


def run_check(check, D, N, A, pts):
    """One check class over ``pts``, stepped as ``run_suites`` steps it:
    ``check.step`` inside ``at_point`` at each point, on the coefficient
    set ``D``; returns ``check.finish()``."""
    for pt in pts:
        with at_point(pt):
            check.step(pt, PointTables(D, N, A, pt))
    return check.finish()


def run_law(point_fn, args, pts, tol=1e-8):
    """The CheckResult of a change law over ``pts``: ``point_fn(*args, pt,
    tracker)`` (a ``*_transformation_point`` function) at each point into
    one tracker, named after the law."""
    tracker = ResidualTracker(point_fn.__name__.removesuffix("_point"), tol)
    for pt in pts:
        point_fn(*args, pt, tracker)
    return tracker.result()


def canonical_metric_dconnection(G, A, N):
    """Metric connection over the fiber-derivative (Berwald-type) baseline,
    as a scenario with a metric and ``baseline: berwald`` builds it."""
    return metric_dconnection(G, berwald(N), A, N)


def field(src, m=2, **kw):
    return eval_field(parse(src, m, **kw))


def make_d1():
    """Desk scenario: identity anchor, zero bracket, Gamma=(x2*y0, 0),
    g = diag(1+x1^2, 1), g00 = exp(2*x1)."""
    A = AlgebroidData.identity(2)
    N = NonlinearConnection(2, (field("x2*y0"), field("0")))
    G = MetricStructure(2, ((field("1+x1^2"), field("0")),
                            (field("0"), field("1"))), field("exp(2*x1)"))
    return A, N, G


def make_nonabelian():
    """Anchor diag(1, e^{x1}) with bracket coefficient L^2_{12}=1 (the frame
    fields are d/dx1 and e^{x1} d/dx2, whose commutator is the second frame
    field); same metric and Gamma as the d1 scenario."""
    A = AlgebroidData(2, 2,
                      ((field("1"), field("0")),
                       (field("0"), field("exp(x1)"))),
                      (((field("0"), field("0")), (field("0"), field("0"))),
                       ((field("0"), field("1")), (field("-1"), field("0")))))
    N = NonlinearConnection(2, (field("x2*y0"), field("0")))
    G = MetricStructure(2, ((field("1+x1^2"), field("0")),
                            (field("0"), field("1"))), field("exp(2*x1)"))
    return A, N, G


def make_vdep():
    """Fiber-dependent metric over the nonabelian frame: every torsion and
    curvature family is nonzero here."""
    A, N, _ = make_nonabelian()
    N = NonlinearConnection(2, (field("x2*y0 + 0.3*sin(x1)*y0^2"),
                                field("0.2*x1*y0")))
    G = MetricStructure(2,
                        ((field("1+x1^2+0.5*y0^2"), field("0")),
                         (field("0"), field("1"))),
                        field("exp(2*x1)*(1+0.25*y0^2)"))
    return A, N, G


def make_sphere():
    """Constant-curvature surface block: g = diag(1, sin(x1)^2), flat fiber."""
    A = AlgebroidData.identity(2)
    N = NonlinearConnection.zero(2)
    G = MetricStructure(2, ((field("1"), field("0")),
                            (field("0"), field("sin(x1)^2"))), field("1"))
    return A, N, G


def make_dense3():
    """p = m = 3 with every table dense and varying: anchor, bracket, Gamma
    and a symmetric metric with off-diagonal entries.  It need not satisfy
    the structure identities; it makes every summand of the index sums
    nonzero, so a reordered or reassociated sum changes bits."""
    f = lambda s: field(s, 3)  # noqa: E731
    rho = tuple(tuple(f(f"{1 + (a == i)} + 0.{a + i + 1}*sin(x{1 + (a + i) % 3})")
                      for i in range(3)) for a in range(3))
    L = tuple(tuple(tuple(f(f"0.{g + 1}*x{1 + a}*x{1 + b} + {a - b}*cos(x{1 + g})")
                          for b in range(3)) for a in range(3))
              for g in range(3))
    A = AlgebroidData(3, 3, rho, L)
    N = NonlinearConnection(3, tuple(
        f(f"0.{g + 2}*x{1 + g}*y0 + 0.1*sin(x{1 + (g + 1) % 3})*y0^2"
          "+ 0.2*x1*x2*x3")
        for g in range(3)))
    off = {(0, 1): "0.3*x2*y0", (0, 2): "0.2*sin(x3)", (1, 2): "0.25*x1*x3"}
    diag = ["3+x1^2", "2+x2^2+0.1*y0^2", "4+cos(x1*y0)"]
    dense = "+0.1*x1*x2*x3*y0"
    G = MetricStructure(3, tuple(
        tuple(f((diag[a] if a == b else off[min(a, b), max(a, b)]) + dense)
              for b in range(3)) for a in range(3)), f("exp(0.5*x1)*(1+y0^2)"))
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
