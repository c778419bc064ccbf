"""Scenario files: JSON documents with expression-string tables.

A scenario fixes the dimensions (m, p), the sampling box, the anchor and
bracket tables, the nonlinear connection, and optionally a metric (with a
baseline choice), explicit connection tables, a lift section, kappa, the
sampling seed and sample count.  Shape errors and expression parse errors
are reported with their JSON path and byte offset before anything is
evaluated.  Each table then becomes, as a whole, the one function that
evaluates it (the lift curve likewise, as a tuple of t): a table with a
variable compiles once; a table whose every entry is a number is its
value, returned by ``exprlang.constant_table`` with no code generated.
The load also computes the zero masks of rho, L, g and an explicit hh
(``_zeros``: the entries that are 0 under signs), which key the kernels
that read those tables; no other code computes a mask.
"""

from __future__ import annotations

import json
import math

from .algebroid import AlgebroidData
from .dconnection import ConnectionZeros, DConnectionCoeffs, berwald
from .exprlang import Neg, Num, ParseError, compile_expr, parse, zero_table
from .lift import BaseCurve, LiftMorphism
from .metric import MetricStructure, metric_dconnection
from .nlconnection import NonlinearConnection
from .sampling import DEFAULT_SEED, MAX_SAMPLES, Box

__all__ = ["Scenario", "ScenarioError", "bounded_count", "load_scenario",
           "scenario_from_dict"]


class ScenarioError(ValueError):
    """Malformed scenario (shape or expression); maps to exit code 2."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def _parsed(src, m, location, memo, on_base=False, allow_t=False):
    """The parsed expression ``src``.  ``memo`` maps ``(src, on_base)`` to
    the trees already parsed in this load, so each distinct source is
    parsed once; an expression of t (``allow_t``) keeps a memo of its
    own."""
    if not isinstance(src, str):
        raise ScenarioError(location, f"expected an expression string, got {src!r}")
    key = (src, on_base)
    if key not in memo:
        try:
            memo[key] = parse(src, m, allow_y=not on_base, allow_t=allow_t)
        except ParseError as exc:
            raise ScenarioError(location, str(exc)) from exc
    return memo[key]


def _nodes(src, shape, m, location, memo, on_base):
    if not shape:
        return _parsed(src, m, location, memo, on_base)
    if not isinstance(src, list) or len(src) != shape[0]:
        raise ScenarioError(
            location, f"expected a list of length {shape[0]}, got {src!r}")
    return [_nodes(v, shape[1:], m, f"{location}[{i}]", memo, on_base)
            for i, v in enumerate(src)]


def _table(src, shape, m, location, memo, on_base=False):
    """The evaluator of a whole table of the given shape (``()`` for one
    expression): one compiled function of ``X`` on the base or of ``X, Y``
    on E that returns the table as nested lists."""
    return compile_expr(_nodes(src, shape, m, location, memo, on_base),
                        "X" if on_base else "X, Y")


def _zeros(nodes):
    """The zero mask of a parsed table: nested tuples of bools, True where
    the entry is the number 0 under any number of signs (``Num(0)``,
    ``-0``: a zero ``exprlang._value``), which its evaluator returns as a
    float zero at every point.  The signs are walked here, not through
    ``_value``, which takes 2.5x as long per entry."""
    if type(nodes) is list:
        return tuple([_zeros(node) for node in nodes])
    while type(nodes) is Neg:
        nodes = nodes.child
    return type(nodes) is Num and nodes.value == 0.0


def _masked_table(src, shape, m, location, memo, on_base=False):
    """:func:`_table` and the :func:`_zeros` mask of the table."""
    nodes = _nodes(src, shape, m, location, memo, on_base)
    return compile_expr(nodes, "X" if on_base else "X, Y"), _zeros(nodes)


def _section(doc, key):
    """The optional section ``doc[key]``: an object, or None if absent."""
    section = doc.get(key)
    if section is not None and not isinstance(section, dict):
        raise ScenarioError(key, "must be an object")
    return section


def _integer(value, location) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(location, "must be an integer")
    return value


def _finite(value, location) -> float:
    """A JSON number that is finite as a float."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ScenarioError(location, "must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(location, "must be finite")
    return number


def bounded_count(value, location, maximum) -> int:
    """A count (``samples``, ``--samples``, ``--steps``): an integer in
    1..maximum, so a loop never starts on a count it cannot finish."""
    _integer(value, location)
    if value < 1:
        raise ScenarioError(location, "must be >= 1")
    if value > maximum:
        raise ScenarioError(location, f"must be <= {maximum}")
    return value


class LiftSection:
    __slots__ = ("curve", "morphism", "y0")

    def __init__(self, curve: BaseCurve, morphism: LiftMorphism, y0: float):
        self.curve = curve
        self.morphism = morphism
        self.y0 = y0


class Scenario:
    __slots__ = ("path", "m", "p", "box", "algebroid", "connection",
                 "metric", "baseline", "explicit_dconnection", "lift",
                 "kappa", "seed", "samples")

    def __init__(self, path: str, m: int, p: int, box: Box,
                 algebroid: AlgebroidData, connection: NonlinearConnection,
                 metric: MetricStructure | None, baseline: str,
                 explicit_dconnection: DConnectionCoeffs | None,
                 lift: LiftSection | None, kappa: float, seed: int,
                 samples: int):
        self.path = path
        self.m = m
        self.p = p
        self.box = box
        self.algebroid = algebroid
        self.connection = connection
        self.metric = metric
        self.baseline = baseline            # "zero" | "berwald"
        self.explicit_dconnection = explicit_dconnection
        self.lift = lift
        self.kappa = kappa
        self.seed = seed
        self.samples = samples

    @property
    def dconnection_is_metric(self) -> bool:
        """Whether :meth:`dconnection` is :meth:`metric_dconnection`: there
        is a metric and no explicit tables override it."""
        return self.explicit_dconnection is None and self.metric is not None

    def metric_dconnection(self) -> DConnectionCoeffs:
        """The metric connection over the configured baseline."""
        return metric_dconnection(self.metric,
                                  self.baseline_hv(self.connection),
                                  self.algebroid, self.connection)

    def dconnection(self) -> DConnectionCoeffs:
        """Explicit tables win; otherwise the metric connection over the
        configured baseline."""
        if self.dconnection_is_metric:
            return self.metric_dconnection()
        if self.explicit_dconnection is not None:
            return self.explicit_dconnection
        raise ScenarioError("dconnection",
                            "scenario has neither a metric nor explicit tables")

    def baseline_hv(self, N: NonlinearConnection):
        """The hv evaluator of the configured baseline connection over
        ``N``, the one family of it that :func:`metric_dconnection` reads:
        the fiber-derivative (Berwald-type) one's, or zero's."""
        if self.baseline == "berwald":
            return berwald(N).hv_at
        return zero_table(self.p, 1)


def scenario_from_dict(doc: dict, path: str = "<dict>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "top level must be a JSON object")

    def need(key):
        if key not in doc:
            raise ScenarioError("$", f"missing required key {key!r}")
        return _integer(doc[key], f"$.{key}")

    m = need("m")
    p = need("p")
    if m < 1 or p < 1:
        raise ScenarioError("$", "m and p must be positive")

    box_doc = doc.get("box")
    if box_doc is not None:
        try:
            xr = box_doc["x"]
            yr = box_doc["y"]
            if len(xr) != m:
                raise ScenarioError("box.x", f"expected {m} ranges")
            ranges = [*xr, yr]
            for r in ranges:
                if not isinstance(r, (list, tuple)) or len(r) != 2:
                    raise TypeError(f"range {r!r} is not a [lo, hi] pair")
            for bound in (b for r in ranges for b in r):
                if (isinstance(bound, bool)
                        or not isinstance(bound, (int, float))):
                    raise TypeError(f"bound {bound!r} is not a number")
            box = Box(ranges[:-1], ranges[-1])
        except (KeyError, TypeError, IndexError, ValueError,
                OverflowError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError("box", f"malformed box: {exc}") from exc

    memo = {}
    alg_doc = doc.get("algebroid")
    if not isinstance(alg_doc, dict) or "rho" not in alg_doc:
        raise ScenarioError("algebroid", "must be an object with a 'rho' table")
    rho_at, rho_zero = _masked_table(alg_doc["rho"], (p, m), m,
                                     "algebroid.rho", memo, on_base=True)
    if box_doc is None:
        # Only now, with p x m entries of rho in the document, is m bounded.
        box = Box.default(m)
    if "L" in alg_doc:
        L_at, L_zero = _masked_table(alg_doc["L"], (p, p, p), m,
                                     "algebroid.L", memo, on_base=True)
    else:
        L_at = zero_table(p, 3)
        L_zero = (((True,) * p,) * p,) * p
    algebroid = AlgebroidData(m, p, rho_at, L_at, rho_zero, L_zero)

    conn_doc = _section(doc, "connection")
    if conn_doc is None:
        connection = NonlinearConnection.zero(p)
    else:
        connection = NonlinearConnection(p, _table(
            conn_doc.get("Gamma"), (p,), m, "connection.Gamma", memo))

    metric = None
    baseline = "berwald"
    met_doc = _section(doc, "metric")
    if met_doc is not None:
        g_at, g_zero = _masked_table(met_doc.get("g"), (p, p), m,
                                     "metric.g", memo)
        g00_at = _table(met_doc.get("g00"), (), m, "metric.g00", memo)
        baseline = met_doc.get("baseline", "berwald")
        if baseline not in ("zero", "berwald"):
            raise ScenarioError("metric.baseline",
                                f"must be 'zero' or 'berwald', got {baseline!r}")
        metric = MetricStructure(p, g_at, g00_at, g_zero)

    explicit = None
    dcon_doc = _section(doc, "dconnection")
    if dcon_doc is not None:
        hh_at, hh_zero = _masked_table(dcon_doc.get("Hh"), (p, p, p), m,
                                       "dconnection.Hh", memo)
        explicit = DConnectionCoeffs(p, hh_at, *[
            _table(dcon_doc.get(key), shape, m, f"dconnection.{key}", memo)
            for key, shape in (("Hv", (p,)), ("Vh", (p, p)), ("Vv", ()))],
            zeros=ConnectionZeros(L_zero, hh_zero))

    lift = None
    lift_doc = _section(doc, "lift")
    if lift_doc is not None:
        curve_src = lift_doc.get("curve")
        if not isinstance(curve_src, list) or len(curve_src) != m:
            raise ScenarioError("lift.curve", f"expected {m} expressions of t")
        curve_memo = {}
        comps = [_parsed(src, 0, f"lift.curve[{i}]", curve_memo,
                         on_base=True, allow_t=True)
                 for i, src in enumerate(curve_src)]
        g_lift = _table(lift_doc.get("g"), (p,), m, "lift.g", memo,
                        on_base=True)
        gtilde = None
        if lift_doc.get("gtilde") is not None:
            gtilde = _table(lift_doc["gtilde"], (p,), m, "lift.gtilde",
                            memo, on_base=True)
        y0 = _finite(lift_doc.get("y0", 1.0), "lift.y0")
        lift = LiftSection(BaseCurve(compile_expr(tuple(comps), "T")),
                           LiftMorphism(p, g_lift, gtilde), y0)

    kappa = _finite(doc.get("kappa", 1.0), "kappa")
    if kappa == 0.0:
        raise ScenarioError("kappa", "must be nonzero")
    seed = _integer(doc.get("seed", DEFAULT_SEED), "seed")
    samples = bounded_count(doc.get("samples", 64), "samples", MAX_SAMPLES)

    return Scenario(
        path=path, m=m, p=p, box=box, algebroid=algebroid,
        connection=connection, metric=metric, baseline=baseline,
        explicit_dconnection=explicit, lift=lift,
        kappa=kappa, seed=seed, samples=samples,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(path, f"cannot read: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(path, f"invalid JSON: {exc}") from exc
    return scenario_from_dict(doc, path)
