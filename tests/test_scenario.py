import json

import pytest

from kkgeom import exprlang
from kkgeom.curvature import curvature_components_at, torsion_components_at
from kkgeom.sampling import MAX_SAMPLES, Box, sample_points
from kkgeom.scenario import ScenarioError, load_scenario, scenario_from_dict
from conftest import DATA_DIR, SCENARIO_DIR


def minimal():
    return {
        "m": 2, "p": 2,
        "algebroid": {"rho": [["1", "0"], ["0", "1"]]},
    }


INF, NAN = float("inf"), float("nan")


@pytest.mark.parametrize("x,y,message", [
    ([[1, 0], [0, 1]], [0.1, 2], "empty sampling range [1.0, 0.0]"),
    ([[0, 1], [0, 1]], [NAN, 2], "empty sampling range [nan, 2.0]"),
    ([[0, INF], [0, 1]], [0.1, 2], "unbounded sampling range [0.0, inf]"),
    ([[0, 1], [-INF, 1]], [0.1, 2], "unbounded sampling range [-inf, 1.0]"),
    ([[0, 1], [0, 1]], [0.1, INF], "unbounded sampling range [0.1, inf]"),
    ([[-1e308, 1e308], [0, 1]], [0.1, 2],
     "unbounded sampling range [-1e+308, 1e+308]"),
])
def test_box_ranges_must_be_bounded_and_nonempty(x, y, message):
    """A reversed, NaN or infinite range (or one whose width overflows) is
    a ``box`` input error, before any point is drawn."""
    doc = minimal()
    doc["box"] = {"x": x, "y": y}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"box: malformed box: {message}"


@pytest.mark.parametrize("x,y,message", [
    ([[0, 10 ** 400], [0, 1]], [0.1, 2], "int too large to convert to float"),
    ([[0, True], [0, 1]], [0.1, 2], "bound True is not a number"),
    ([[0, 1], [0, 1]], [False, 2], "bound False is not a number"),
    ([[0, 1], ["0", 1]], [0.1, 2], "bound '0' is not a number"),
])
def test_box_bounds_must_be_float_numbers(x, y, message):
    """A bound is a JSON number that converts to a float: an integer too
    large for one, a boolean or a string is a ``box`` input error."""
    doc = minimal()
    doc["box"] = {"x": x, "y": y}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"box: malformed box: {message}"


def test_default_box_waits_for_the_rho_shape(monkeypatch):
    """``m`` is bounded only by the p x m entries of rho, so a huge ``m``
    with a short rho is refused before the default box of m ranges is
    built."""
    def build(m):
        pytest.fail(f"Box.default({m}) built before the rho shape check")

    monkeypatch.setattr(Box, "default", staticmethod(build))
    doc = {"m": 10 ** 9, "p": 1, "algebroid": {"rho": [["1"]]}}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == ("algebroid.rho[0]: expected a list of length "
                              "1000000000, got ['1']")


def test_minimal_scenario_defaults():
    sc = scenario_from_dict(minimal())
    assert sc.m == 2 and sc.p == 2
    assert sc.seed == 0xA1B2 and sc.samples == 64
    assert sc.kappa == 1.0
    assert sc.box.x_ranges == ((-1.0, 1.0), (-1.0, 1.0))
    assert sc.box.y_range == (0.1, 2.0)
    # Gamma defaults to zero, bracket table defaults to zero
    assert sc.connection.gamma[0]((0.5, 0.5), 1.0) == 0.0
    with pytest.raises(ScenarioError):
        sc.dconnection()  # neither metric nor explicit tables


def test_all_shipped_scenarios_load():
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        sc = load_scenario(str(path))
        assert sc.m >= 1 and sc.p >= 1


def test_shape_error_rho():
    doc = minimal()
    doc["algebroid"]["rho"] = [["1", "0", "0"], ["0", "1"]]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "algebroid.rho[0]" in str(err.value)


def test_shape_error_L():
    doc = minimal()
    doc["algebroid"]["L"] = [[["0", "0"], ["0", "0"]]]
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "algebroid.L" in str(err.value)


def test_expression_error_reports_location_and_offset():
    doc = minimal()
    doc["metric"] = {"g": [["1+*2", "0"], ["0", "1"]], "g00": "1"}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    msg = str(err.value)
    assert "metric.g[0][0]" in msg and "offset 2" in msg


def test_variable_out_of_range_rejected():
    doc = minimal()
    doc["connection"] = {"Gamma": ["x3", "0"]}
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_base_only_tables_reject_y0():
    doc = minimal()
    doc["algebroid"]["rho"] = [["y0", "0"], ["0", "1"]]
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_bad_baseline_rejected():
    doc = minimal()
    doc["metric"] = {"g": [["1", "0"], ["0", "1"]], "g00": "1",
                     "baseline": "frobnicate"}
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_zero_kappa_rejected():
    doc = minimal()
    doc["kappa"] = 0.0
    with pytest.raises(ScenarioError):
        scenario_from_dict(doc)


def test_lift_curve_arity_checked():
    doc = minimal()
    doc["lift"] = {"curve": ["t"], "g": ["1", "0"]}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "lift.curve" in str(err.value)


def test_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario(str(tmp_path / "nope.json"))


def test_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError):
        load_scenario(str(path))


def _leaves(node):
    if isinstance(node, (list, tuple)):
        for child in node:
            yield from _leaves(child)
    elif node is not None:
        yield node


# (section, key, parsed on the base M, so without y0)
TABLES = [("algebroid", "rho", True), ("algebroid", "L", True),
          ("connection", "Gamma", False), ("metric", "g", False),
          ("metric", "g00", False), ("dconnection", "Hh", False),
          ("dconnection", "Hv", False), ("dconnection", "Vh", False),
          ("dconnection", "Vv", False), ("lift", "g", True),
          ("lift", "gtilde", True)]


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json"))
                         + [DATA_DIR / "gen3_seed1.json"],
                         ids=lambda path: path.stem)
def test_a_load_compiles_each_distinct_expression_once(monkeypatch, path):
    """One compile per distinct (source, parsed on the base) pair of the
    tables, plus one per distinct curve component; entries with the same
    source share one field."""
    doc = json.loads(path.read_text())
    pairs = {(src, on_base) for section, key, on_base in TABLES
             for src in _leaves(doc.get(section, {}).get(key))}
    curves = set(doc.get("lift", {}).get("curve", ()))
    compiled = []
    compile_expr = exprlang.compile_expr

    def counted(node, params):
        compiled.append(node)
        return compile_expr(node, params)

    monkeypatch.setattr(exprlang, "compile_expr", counted)
    sc = load_scenario(str(path))
    assert len(compiled) == len(pairs) + len(curves)
    alg = doc["algebroid"]
    base = [(alg["rho"], sc.algebroid.rho)] + (
        [(alg["L"], sc.algebroid.L)] if "L" in alg else [])
    gamma = [(doc["connection"]["Gamma"], sc.connection.gamma)]
    for tables in (base, gamma):
        shared = {}
        for sources, fields in tables:
            for src, f in zip(_leaves(sources), _leaves(fields), strict=True):
                assert shared.setdefault(src, f) is f


def _is_compiled(fn):
    """Whether ``fn`` is an expression as compiled, with no wrapper."""
    return (fn.__code__.co_name, fn.__code__.co_filename) \
        == ("<lambda>", "<string>")


def test_scenario_fields_are_the_compiled_functions():
    """A field of a loaded scenario is the function its expression compiled
    to, and so is a curve component: no wrapper sits between them and the
    code that calls them."""
    sc = load_scenario(str(SCENARIO_DIR / "d1.json"))
    gamma, comp = sc.connection.gamma[0], sc.lift.curve.components[0]
    assert _is_compiled(gamma) and _is_compiled(comp)
    assert (gamma.__code__.co_argcount, comp.__code__.co_argcount) == (2, 1)


def _blocks(record):
    """The blocks of a torsion or curvature record, as a list."""
    return [getattr(record, name) for name in record.__slots__]


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json"))
                         + [DATA_DIR / "gen3_seed1.json"],
                         ids=lambda path: path.stem)
def test_evaluators_return_floats_at_float_points(path):
    """Jets exist only inside a derivative pass: at a float point every
    evaluator returns exact floats, so no caller needs to unwrap one."""
    sc = load_scenario(str(path))
    A, N = sc.algebroid, sc.connection
    D = (sc.dconnection() if sc.metric is not None
         or sc.explicit_dconnection is not None else None)
    for k, pt in enumerate(sample_points(sc.box, 3, sc.seed)):
        blocks = [A.rho_at(pt.x), A.L_at(pt.x), N.gamma_at(pt.x, pt.y)]
        if sc.metric is not None:
            blocks += [sc.metric.g_at(pt.x, pt.y),
                       sc.metric.g00_at(pt.x, pt.y)]
        if D is not None:
            records = [torsion_components_at(D, N, A, pt.x, pt.y),
                       *curvature_components_at(D, N, A, pt.x, pt.y)]
            blocks += [D.all_at(pt.x, pt.y), *map(_blocks, records)]
        if sc.lift is not None:
            curve, t = sc.lift.curve, k / 2
            blocks += [sc.lift.morphism.g_at(pt.x), curve.point_at(t),
                       curve.velocity_at(t)]
        leaves = list(_leaves(blocks))
        assert leaves and all(type(v) is float for v in leaves), path.stem


def test_repeated_bad_expression_reports_its_first_path():
    doc = minimal()
    doc["connection"] = {"Gamma": ["x1", "1+*2"]}
    doc["metric"] = {"g": [["1+*2", "0"], ["0", "1"]], "g00": "1+*2"}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value).startswith("connection.Gamma[1]: ")


def test_a_source_compiled_on_E_is_parsed_again_on_the_base():
    """``y0`` is valid in Gamma but not in a base table: the memo keys by
    where an expression is parsed, not by its source alone."""
    doc = minimal()
    doc["connection"] = {"Gamma": ["y0", "0"]}
    doc["lift"] = {"curve": ["t", "t"], "g": ["1", "y0"]}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value).startswith("lift.g[1]: ")


@pytest.mark.parametrize("curve", [[1, "t"], ["t", ["t"]]])
def test_non_string_curve_component_rejected(curve):
    doc = minimal()
    doc["lift"] = {"curve": curve, "g": ["1", "0"]}
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert "expected an expression string" in str(err.value)


@pytest.mark.parametrize("key,value,message", [
    ("samples", "abc", "must be an integer"),
    ("samples", 2.7, "must be an integer"),
    ("samples", True, "must be an integer"),
    ("samples", 0, "must be >= 1"),
    ("samples", MAX_SAMPLES + 1, f"must be <= {MAX_SAMPLES}"),
    ("seed", "x", "must be an integer"),
    ("seed", 1.5, "must be an integer"),
    ("kappa", "abc", "must be a number"),
    ("kappa", True, "must be a number"),
    ("kappa", float("inf"), "must be finite"),
    pytest.param("kappa", 10 ** 400, "must be finite", id="kappa-10**400"),
    ("lift.y0", "1", "must be a number"),
    ("lift.y0", float("nan"), "must be finite"),
])
def test_scalar_fields_are_type_checked(key, value, message):
    doc = minimal()
    doc["lift"] = {"curve": ["t", "t"], "g": ["1", "0"]}
    if key == "lift.y0":
        doc["lift"]["y0"] = value
    else:
        doc[key] = value
    with pytest.raises(ScenarioError) as err:
        scenario_from_dict(doc)
    assert str(err.value) == f"{key}: {message}"


def test_scalar_fields_accept_their_types():
    doc = minimal()
    doc.update(samples=MAX_SAMPLES, seed=-3, kappa=2)
    doc["lift"] = {"curve": ["t", "t"], "g": ["1", "0"], "y0": -1}
    sc = scenario_from_dict(doc)
    assert (sc.samples, sc.seed, sc.kappa, sc.lift.y0) == (MAX_SAMPLES, -3,
                                                           2.0, -1.0)
    assert type(sc.kappa) is float and type(sc.lift.y0) is float
