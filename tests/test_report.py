import json
import math
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from reference import loop_emit_json

from kkgeom.calculus import EPoint
from kkgeom.report import ResidualTracker, emit_json

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

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


# A document of the shapes the emitter meets: scalars of every kind
# (bools, None, ints, signed zeros, infinities, NaN), strings, empty and
# non-empty lists and tuples, rows mixing scalars and lists, and nested
# dicts.
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**20, 10**20),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]))
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, st.text(max_size=5)),
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.lists(st.one_of(SCALARS, st.lists(SCALARS, max_size=4)),
                 max_size=4),
        st.dictionaries(st.text(max_size=5), children, max_size=4)),
    max_leaves=30)


@given(DOCUMENTS)
@settings(max_examples=200, deadline=None)
def test_emitter_prints_what_the_recursive_emitter_prints(doc):
    assert emit_json(doc) == loop_emit_json(doc)


def test_emitter_prints_every_golden_document():
    """Each golden document, read back, prints as the recursive emitter
    prints it, and as it is recorded."""
    paths = sorted(GOLDEN_DIR.glob("*.json"))
    assert paths
    for path in paths:
        text = path.read_text()
        doc = json.loads(text)
        assert emit_json(doc) == loop_emit_json(doc) == text.rstrip("\n")
