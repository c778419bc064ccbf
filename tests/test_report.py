import itertools
import json
import math
import struct
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import DATA_DIR, SCENARIO_DIR
from reference import loop_emit_json

from kkgeom.calculus import EPoint
from kkgeom.cli import main
from kkgeom.report import ResidualTracker, emit_json, row_max

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


def _nan(payload):
    """A quiet NaN with the given payload, so the tests can tell NaNs
    apart."""
    return struct.unpack("<d", struct.pack("<Q", 0x7FF8000000000000
                                           | payload))[0]


# Entries of the rows below: ties in value and in magnitude, both signed
# zeros, both infinities, and three NaNs told apart by payload and sign.
ENTRIES = [0.0, -0.0, 1.0, -1.0, 2.0, 1e-300, math.inf, -math.inf, _nan(1),
           -_nan(2), _nan(3)]
# A tracker's state before a row: fresh, or holding a residual or a NaN.
HELD = [None, 0.0, 1e-300, 1.0, 1.5, math.inf, _nan(4)]


def _state(tracker):
    return struct.pack("<d", tracker.max_residual), tracker.worst_point


def _both(rows, held):
    """The trackers left by ``rows`` (one per point) fed one entry at a
    time and by one ``update(row_max(row))`` per row, from ``held``."""
    entrywise, scanned = ResidualTracker("r", 1.0), ResidualTracker("r", 1.0)
    for tracker in (entrywise, scanned):
        if held is not None:
            tracker.update(held, P0)
    for row, pt in rows:
        for value in row:
            entrywise.update(value, pt)
        scanned.update(row_max(row), pt)
    return entrywise, scanned


def test_row_max_feeds_a_tracker_as_its_entries_do():
    """Every row of up to three entries of ENTRIES (so a tie, a signed
    zero, an infinity and a NaN at every position), from every HELD state:
    the same ``max_residual`` bits (NaN payload included) and the same
    ``worst_point``."""
    for n in (1, 2, 3):
        for row in itertools.product(ENTRIES, repeat=n):
            for held in HELD:
                entrywise, scanned = _both([(row, P1)], held)
                assert _state(scanned) == _state(entrywise), (row, held)


def test_row_max_over_consecutive_rows():
    """Two rows at two points, among them a NaN row followed by a larger
    finite row and a finite row followed by a NaN row."""
    rows = list(itertools.product([0.0, 2.0, math.inf, _nan(1), _nan(2)],
                                  repeat=2))
    for first in rows:
        for second in rows:
            for held in (None, 1.0, _nan(4)):
                entrywise, scanned = _both([(first, P1), (second, P2)], held)
                assert _state(scanned) == _state(entrywise)
    entrywise, scanned = _both([((_nan(1), 1.0), P1), ((3.0, 7.0), P2)], None)
    assert scanned.worst_point is P1 and math.isnan(scanned.max_residual)


def test_each_check_updates_each_tracker_once_per_point(monkeypatch,
                                                        capsys):
    """``update`` is called once per tracker per sample point: 244 times
    for d1's ``check --suite all`` (oracle and ricci-commutation 2 x 20,
    bianchi 4 x 6, compatibility 40, transformation 4 x 25) and 256 for
    ``validate`` on gen3 (antisymmetry, anchor, Jacobi and g_symmetry at
    64 points)."""
    calls = 0
    update = ResidualTracker.update

    def counting(self, value, point):
        nonlocal calls
        calls += 1
        update(self, value, point)

    monkeypatch.setattr(ResidualTracker, "update", counting)
    for argv, want in [
            (["check", str(SCENARIO_DIR / "d1.json"), "--suite", "all",
              "--seed", "1"], 244),
            (["validate", str(DATA_DIR / "gen3_seed1.json")], 256)]:
        calls = 0
        assert main(argv) == 0
        capsys.readouterr()
        assert calls == want, argv
