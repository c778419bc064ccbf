"""Scenario files: JSON documents with expression-string tables.

A scenario fixes the dimensions (m, p), the sampling box, the anchor and
bracket tables, the nonlinear connection, and optionally a metric (with a
baseline choice), explicit connection tables, a lift section, kappa, the
sampling seed and sample count.  Shape errors and expression parse errors
are reported with their JSON path and byte offset before anything is
evaluated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebroid import AlgebroidData
from .calculus import SmoothField
from .dconnection import DConnectionCoeffs, berwald
from .exprlang import ParseError, curve_function, eval_field, parse
from .lift import BaseCurve, LiftMorphism
from .metric import MetricStructure, metric_dconnection
from .nlconnection import NonlinearConnection
from .sampling import DEFAULT_SEED, Box

__all__ = ["Scenario", "ScenarioError", "load_scenario", "scenario_from_dict"]


class ScenarioError(ValueError):
    """Malformed scenario (shape or expression); maps to exit code 2."""

    def __init__(self, location: str, message: str):
        super().__init__(f"{location}: {message}")
        self.location = location


def _field(src, m, location, on_base=False) -> SmoothField:
    if not isinstance(src, str):
        raise ScenarioError(location, f"expected an expression string, got {src!r}")
    try:
        node = parse(src, m, allow_y=not on_base)
    except ParseError as exc:
        raise ScenarioError(location, str(exc)) from exc
    return eval_field(node, m, name=src)


def _table(src, shape, m, location, on_base=False):
    if not shape:
        return _field(src, m, location, on_base)
    if not isinstance(src, list) or len(src) != shape[0]:
        raise ScenarioError(
            location, f"expected a list of length {shape[0]}, got {src!r}")
    return tuple(
        _table(v, shape[1:], m, f"{location}[{i}]", on_base)
        for i, v in enumerate(src)
    )


@dataclass
class LiftSection:
    curve: BaseCurve
    morphism: LiftMorphism
    y0: float


@dataclass
class Scenario:
    path: str
    m: int
    p: int
    box: Box
    algebroid: AlgebroidData
    connection: NonlinearConnection
    metric: MetricStructure | None
    baseline: str                       # "zero" | "berwald"
    explicit_dconnection: DConnectionCoeffs | None
    lift: LiftSection | None
    kappa: float
    seed: int
    samples: int

    def dconnection(self) -> DConnectionCoeffs:
        """Explicit tables win; otherwise the metric connection over the
        configured baseline."""
        if self.explicit_dconnection is not None:
            return self.explicit_dconnection
        if self.metric is not None:
            return metric_dconnection(self.metric,
                                      self.baseline_for(self.connection),
                                      self.algebroid, self.connection)
        raise ScenarioError("dconnection",
                            "scenario has neither a metric nor explicit tables")

    def baseline_for(self, N: NonlinearConnection) -> DConnectionCoeffs:
        """The configured baseline (ring) connection over ``N``: the
        fiber-derivative (Berwald-type) one, or zero."""
        if self.baseline == "berwald":
            return berwald(N, self.m)
        return DConnectionCoeffs.zero(self.p, self.m)


def scenario_from_dict(doc: dict, path: str = "<dict>") -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioError("$", "top level must be a JSON object")

    def need(key, typ, where="$"):
        if key not in doc:
            raise ScenarioError(where, f"missing required key {key!r}")
        value = doc[key]
        if typ is int and (not isinstance(value, int) or isinstance(value, bool)):
            raise ScenarioError(f"{where}.{key}", "must be an integer")
        return value

    m = need("m", int)
    p = need("p", int)
    if m < 1 or p < 1:
        raise ScenarioError("$", "m and p must be positive")

    box_doc = doc.get("box")
    if box_doc is None:
        box = Box.default(m)
    else:
        try:
            xr = box_doc["x"]
            yr = box_doc["y"]
            if len(xr) != m:
                raise ScenarioError("box.x", f"expected {m} ranges")
            box = Box(tuple((r[0], r[1]) for r in xr), (yr[0], yr[1]))
        except (KeyError, TypeError, IndexError, ValueError) as exc:
            if isinstance(exc, ScenarioError):
                raise
            raise ScenarioError("box", f"malformed box: {exc}") from exc

    alg_doc = doc.get("algebroid")
    if not isinstance(alg_doc, dict) or "rho" not in alg_doc:
        raise ScenarioError("algebroid", "must be an object with a 'rho' table")
    rho = _table(alg_doc["rho"], (p, m), m, "algebroid.rho", on_base=True)
    if "L" in alg_doc:
        L = _table(alg_doc["L"], (p, p, p), m, "algebroid.L", on_base=True)
    else:
        zero = SmoothField.constant(0.0, m)
        L = tuple(tuple((zero,) * p for _ in range(p)) for _ in range(p))
    algebroid = AlgebroidData(m, p, rho, L)

    conn_doc = doc.get("connection")
    if conn_doc is None:
        connection = NonlinearConnection.zero(p, m)
    else:
        gamma = _table(conn_doc.get("Gamma"), (p,), m, "connection.Gamma")
        connection = NonlinearConnection(p, gamma)

    metric = None
    baseline = "berwald"
    met_doc = doc.get("metric")
    if met_doc is not None:
        g = _table(met_doc.get("g"), (p, p), m, "metric.g")
        g00 = _field(met_doc.get("g00"), m, "metric.g00")
        baseline = met_doc.get("baseline", "berwald")
        if baseline not in ("zero", "berwald"):
            raise ScenarioError("metric.baseline",
                                f"must be 'zero' or 'berwald', got {baseline!r}")
        metric = MetricStructure(p, g, g00)

    explicit = None
    dcon_doc = doc.get("dconnection")
    if dcon_doc is not None:
        hh = _table(dcon_doc.get("Hh"), (p, p, p), m, "dconnection.Hh")
        hv = _table(dcon_doc.get("Hv"), (p,), m, "dconnection.Hv")
        vh = _table(dcon_doc.get("Vh"), (p, p), m, "dconnection.Vh")
        vv = _field(dcon_doc.get("Vv"), m, "dconnection.Vv")
        explicit = DConnectionCoeffs.from_fields(p, m, hh, hv, vh, vv)

    lift = None
    lift_doc = doc.get("lift")
    if lift_doc is not None:
        curve_src = lift_doc.get("curve")
        if not isinstance(curve_src, list) or len(curve_src) != m:
            raise ScenarioError("lift.curve", f"expected {m} expressions of t")
        comps = []
        for i, src in enumerate(curve_src):
            try:
                comps.append(curve_function(
                    parse(src, 0, allow_y=False, allow_t=True)))
            except ParseError as exc:
                raise ScenarioError(f"lift.curve[{i}]", str(exc)) from exc
        g_lift = _table(lift_doc.get("g"), (p,), m, "lift.g", on_base=True)
        gtilde = None
        if lift_doc.get("gtilde") is not None:
            gtilde = _table(lift_doc["gtilde"], (p,), m, "lift.gtilde",
                            on_base=True)
        y0 = float(lift_doc.get("y0", 1.0))
        lift = LiftSection(BaseCurve(m, tuple(comps)),
                           LiftMorphism(p, g_lift, gtilde), y0)

    kappa = float(doc.get("kappa", 1.0))
    if kappa == 0.0:
        raise ScenarioError("kappa", "must be nonzero")
    seed = int(doc.get("seed", DEFAULT_SEED))
    samples = int(doc.get("samples", 64))
    if samples < 1:
        raise ScenarioError("samples", "must be >= 1")

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
