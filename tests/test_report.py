import math

from kkgeom.calculus import EPoint
from kkgeom.report import ResidualTracker, emit_json

P0 = EPoint((0.0, 0.0), 1.0)
P1 = EPoint((0.5, 0.0), 1.0)
P2 = EPoint((0.0, 0.5), 1.0)


def test_tracker_keeps_largest_finite_residual():
    t = ResidualTracker("r", 1e-8)
    t.update(-3e-9, P0)
    t.update(1e-9, P1)
    assert t.max_residual == 3e-9 and t.worst_point == P0 and t.passed


def test_nan_residual_becomes_max_and_fails():
    t = ResidualTracker("r", 1e-8)
    t.update(1e-9, P0)
    t.update(float("nan"), P1)
    t.update(2e-9, P2)
    t.update(float("inf"), P2)
    assert math.isnan(t.max_residual)
    assert t.worst_point == P1
    assert not t.passed
    assert '"max_residual": "nan"' in emit_json(t.to_json_obj())


def test_inf_residual_fails():
    t = ResidualTracker("r", 1e-8)
    t.update(float("-inf"), P0)
    t.update(1.0, P1)
    assert t.max_residual == float("inf") and t.worst_point == P0
    assert not t.passed
    assert '"max_residual": "inf"' in emit_json(t.to_json_obj())
