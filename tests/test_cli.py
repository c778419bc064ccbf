import json
import math
import os
import subprocess
import sys
import time
import tomllib

import pytest

from kkgeom import lift
from kkgeom.calculus import seeded_point
from kkgeom.cli import main
from kkgeom.lift import MAX_STEPS
from kkgeom.sampling import MAX_SAMPLES
from kkgeom.scenario import load_scenario
from conftest import SCENARIO_DIR


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def scen(name):
    return str(SCENARIO_DIR / name)


def test_validate_flat_passes(capsys):
    code, out, _ = run(capsys, "validate", scen("flat.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    names = {c["name"] for c in doc["checks"]}
    assert {"antisymmetry", "anchor_compatibility", "jacobi"} <= names


def test_validate_antisymmetry_violation(capsys, tmp_path):
    doc = {
        "m": 2, "p": 2,
        "algebroid": {
            "rho": [["1", "0"], ["0", "1"]],
            "L": [[["0", "0"], ["0", "0"]], [["0", "1"], ["0", "0"]]],
        },
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 1
    report = json.loads(out)
    anti = next(c for c in report["checks"] if c["name"] == "antisymmetry")
    assert anti["passed"] is False
    assert anti["max_residual"] == pytest.approx(1.0)


def test_malformed_expression_exits_2(capsys, tmp_path):
    doc = {"m": 2, "p": 2,
           "algebroid": {"rho": [["1+*2", "0"], ["0", "1"]]}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(path))
    assert code == 2
    assert "offset 2" in err


def test_compute_einstein_flat_zero(capsys):
    code, out, _ = run(capsys, "compute", scen("flat.json"),
                       "--what", "einstein", "--at", "x1=0.1,x2=0.2,y0=1.0")
    assert code == 0
    values = json.loads(out)["values"]
    assert all(v == 0.0 for row in values["Tab"] for v in row)
    assert values["T00"] == 0.0


def test_compute_scalar_sphere(capsys):
    code, out, _ = run(capsys, "compute", scen("sphere.json"),
                       "--what", "scalar", "--at", "x1=1.0,x2=0.2,y0=1.0")
    assert code == 0
    assert json.loads(out)["values"]["scalar_curvature"] == pytest.approx(
        2.0, abs=1e-7)


def test_compute_torsion_metric_connection(capsys):
    code, out, _ = run(capsys, "compute", scen("d1.json"),
                       "--what", "torsion", "--at", "x1=0.4,x2=-0.7,y0=1.3")
    assert code == 0
    thh = json.loads(out)["values"]["Thh"]
    assert max(abs(v) for a in thh for b in a for v in b) <= 1e-10


def test_compute_point_outside_box_exits_2(capsys):
    code, _, err = run(capsys, "compute", scen("d1.json"),
                       "--what", "scalar", "--at", "x1=5.0,x2=0.0,y0=1.0")
    assert code == 2
    assert "outside box" in err


def test_compute_missing_coordinate_exits_2(capsys):
    code, _, _ = run(capsys, "compute", scen("d1.json"),
                     "--what", "scalar", "--at", "x1=0.5,y0=1.0")
    assert code == 2


def test_compute_repeated_coordinate_exits_2(capsys):
    """A coordinate given twice in ``--at`` is refused, not read as its
    last value."""
    code, out, err = run(capsys, "compute", scen("d1.json"), "--what",
                         "frame", "--at", "x1=0.1,x1=0.9,x2=0.2,y0=1")
    assert code == 2 and out == ""
    assert err == "kkgeom: error: --at: coordinate 'x1' given twice\n"


def test_check_all_passes_d1(capsys):
    code, out, _ = run(capsys, "check", scen("d1.json"), "--suite", "all",
                       "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    suites = {c["suite"] for c in doc["checks"]}
    assert suites == {"oracle", "ricci-commutation", "bianchi",
                      "compatibility", "transformation"}


def test_check_perturbed_connection_fails_compatibility(capsys):
    code, out, _ = run(capsys, "check", scen("d1_perturbed.json"),
                       "--suite", "compatibility")
    assert code == 1
    doc = json.loads(out)
    comp = next(c for c in doc["checks"] if c["name"] == "compatibility")
    assert comp["max_residual"] >= 0.1


def test_check_deterministic_output(capsys):
    _, out1, _ = run(capsys, "check", scen("berwald.json"), "--suite",
                     "oracle", "--seed", "7", "--samples", "4")
    _, out2, _ = run(capsys, "check", scen("berwald.json"), "--suite",
                     "oracle", "--seed", "7", "--samples", "4")
    assert out1 == out2


def test_check_transformation_requires_metric(capsys):
    code, out, err = run(capsys, "check", scen("berwald.json"),
                         "--suite", "transformation")
    assert (code, out) == (2, "")
    assert err == ("kkgeom: error: metric: transformation suite requires a "
                   "metric (the primed connection is rebuilt from the "
                   "transformed metric)\n")


def test_check_compatibility_requires_metric(capsys):
    code, out, err = run(capsys, "check", scen("berwald.json"),
                         "--suite", "compatibility")
    assert (code, out) == (2, "")
    assert err == "kkgeom: error: metric: compatibility suite requires a " \
                  "metric\n"


def test_lift_parallel_flat_constant(capsys):
    code, out, _ = run(capsys, "lift", scen("flat.json"), "--mode",
                       "parallel", "--steps", "50")
    assert code == 0
    doc = json.loads(out)
    assert doc["completed"] is True
    assert all(abs(state[0] - 1.5) <= 1e-12 for _, state in doc["trajectory"])


def test_lift_riccati_blowup_exit_1(capsys):
    code, out, err = run(capsys, "lift", scen("riccati.json"), "--mode",
                         "vertical", "--t1", "2", "--steps", "1000")
    assert code == 1
    doc = json.loads(out)
    assert doc["completed"] is False
    assert "error" in doc
    # singularity of -1/(1-t) sits at t = 1
    assert abs(doc["final"]["t"] - 1.0) <= 0.05


def test_lift_horizontal_riccati_closed_form(capsys):
    code, out, _ = run(capsys, "lift", scen("riccati.json"), "--mode",
                       "horizontal", "--steps", "400")
    assert code == 0
    doc = json.loads(out)
    # z' = -0.7 z^2, z(0) = -1  ->  z = -1/(1 - 0.7 t)... blowup beyond box;
    # on [0, 1] it stays finite: z(t) = z0/(1 + 0.7 z0 t) with z0 = -1
    for t, state in doc["trajectory"]:
        expected = -1.0 / (1.0 - 0.7 * t)
        assert abs(state[0] - expected) <= 1e-6


def test_lift_without_section_exits_2(capsys):
    code, _, _ = run(capsys, "lift", scen("sphere.json"), "--mode",
                     "parallel")
    assert code == 2


def test_unreadable_scenario_exits_2(capsys):
    code, _, _ = run(capsys, "validate", "does-not-exist.json")
    assert code == 2


def _variant(tmp_path, name, edit):
    doc = json.loads((SCENARIO_DIR / name).read_text())
    edit(doc)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_nan_residual_fails_check(capsys, tmp_path):
    def overflow(doc):
        doc["connection"]["Gamma"][0] = "x1*1e308*10*y0"

    path = _variant(tmp_path, "berwald.json", overflow)
    code, out, _ = run(capsys, "check", path, "--suite", "oracle",
                       "--samples", "3")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert [c["max_residual"] for c in doc["checks"]] == ["nan", "nan"]


def _asymmetric_bracket(doc):
    doc["algebroid"]["L"][0][0][1] = "1"


def test_nlc_curvature_asymmetry_is_an_evaluation_error(capsys, tmp_path):
    path = _variant(tmp_path, "nonabelian.json", _asymmetric_bracket)
    code, out, err = run(capsys, "compute", path, "--what", "nlc-curvature",
                         "--at", "x1=0.1,x2=0.2,y0=0.5")
    assert code == 1 and out == ""
    assert "not antisymmetric" in err and "EPoint" in err


def _kkgeom(*args, optimize=False):
    root = SCENARIO_DIR.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    cmd = [sys.executable] + (["-O"] if optimize else []) \
        + ["-m", "kkgeom", *args]
    return subprocess.run(cmd, cwd=root, env=env, capture_output=True,
                          timeout=300)


def test_checks_do_not_rely_on_assert(tmp_path):
    """``python -O`` strips asserts; every check and its output must stay."""
    argv = ("check", "scenarios/d1_perturbed.json", "--suite", "all",
            "--seed", "1")
    plain = _kkgeom(*argv)
    optimized = _kkgeom(*argv, optimize=True)
    assert plain.returncode == 1 and optimized.returncode == 1
    assert optimized.stdout == plain.stdout
    path = _variant(tmp_path, "nonabelian.json", _asymmetric_bracket)
    proc = _kkgeom("compute", path, "--what", "nlc-curvature",
                   "--at", "x1=0.1,x2=0.2,y0=0.5", optimize=True)
    assert proc.returncode == 1 and proc.stdout == b""
    assert b"Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def _one_line_error(err):
    assert "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("section", ["connection", "metric", "dconnection",
                                     "lift"])
@pytest.mark.parametrize("value", [["oops"], "oops", 3])
def test_a_section_that_is_not_an_object_is_an_input_error(
        capsys, tmp_path, section, value):
    """An optional section holding a list, a string or a number is refused
    in one line, as ``algebroid`` is, not with a traceback."""
    def replace(doc):
        doc[section] = value

    path = _variant(tmp_path, "d1.json", replace)
    code, out, err = run(capsys, "validate", path)
    assert code == 2 and out == ""
    _one_line_error(err)
    assert err == f"kkgeom: error: {section}: must be an object\n"


def test_compute_rejects_nonfinite_values(capsys, tmp_path):
    def overflow(doc):
        doc["connection"]["Gamma"][0] = "x1*1e308*10*y0"

    path = _variant(tmp_path, "berwald.json", overflow)
    code, out, err = run(capsys, "compute", path, "--what", "curvature",
                         "--at", "x1=0.5,x2=0.2,y0=0.5")
    assert code == 1 and out == ""
    _one_line_error(err)
    assert "non-finite value in curvature block" in err
    assert "EPoint(x=(0.5, 0.2), y=0.5)" in err


def test_validate_nan_determinant_fails_nondegeneracy(capsys, tmp_path):
    def nan_entry(doc):
        doc["metric"]["g"][1][1] = "1+x1*1e308*10*0"

    path = _variant(tmp_path, "d1.json", nan_entry)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    check = next(c for c in json.loads(out)["checks"]
                 if c["name"] == "metric_nondegeneracy")
    assert check["passed"] is False
    assert check["min_abs_det_g"] == "nan"


def test_validate_nan_lift_inverse_fails_invertibility(capsys, tmp_path):
    def nan_inverse(doc):
        doc["lift"]["gtilde"] = ["1+x1*1e308*10*0"]

    path = _variant(tmp_path, "riccati.json", nan_inverse)
    code, out, _ = run(capsys, "validate", path)
    assert code == 1
    check = next(c for c in json.loads(out)["checks"]
                 if c["name"] == "lift_local_invertibility")
    assert check["passed"] is False
    assert check["max_residual"] == "nan"


def test_validate_nan_fiber_derivative_clears_riemannian_flags(capsys,
                                                                tmp_path):
    """g = g00 = 1 + 0*exp(707*y0) is finite on the box, but its d/dy0 is
    0 * inf = NaN there: neither block is shown independent of y0."""
    nan_dy = "1 + 0*exp(707*y0)"
    path = tmp_path / "nan_dy.json"
    path.write_text(json.dumps({
        "m": 1, "p": 1, "box": {"x": [[-1.0, 1.0]], "y": [1.0, 1.0039]},
        "algebroid": {"rho": [["1"]]},
        "metric": {"g": [[nan_dy]], "g00": nan_dy}}))
    code, out, _ = run(capsys, "validate", str(path))
    assert code == 0
    check = next(c for c in json.loads(out)["checks"]
                 if c["name"] == "riemannian_flags")
    assert check["h_independent_of_y0"] is False
    assert check["v_independent_of_y0"] is False


def test_power_overflow_is_an_evaluation_error(capsys, tmp_path):
    def overflow(doc):
        doc["metric"]["g"][1][1] = "(1e200+x1)^2.5"

    path = _variant(tmp_path, "d1.json", overflow)
    for argv in (("validate", path),
                 ("check", path, "--suite", "compatibility", "--samples", "2")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        _one_line_error(err)
        assert "power overflow" in err


@pytest.mark.parametrize("levels,code", [(180, 0), (250, 2), (3000, 2)])
def test_deeply_nested_expression_exit_code(capsys, tmp_path, levels, code):
    def nest(doc):
        doc["metric"]["g"][1][1] = "(" * levels + "1" + ")" * levels

    path = _variant(tmp_path, "d1.json", nest)
    got, _, err = run(capsys, "validate", path, "--samples", "2")
    assert got == code
    if code:
        _one_line_error(err)
        assert "nested" in err


# The most nested operations an entry may hold (``exprlang._MAX_DEPTH``),
# and where a deepest entry goes: (section, key, index path into the table).
DEEPEST = 196
DEEP_SLOTS = [("metric", "g00", ()), ("connection", "Gamma", (0,)),
              ("metric", "g", (0, 1)), ("algebroid", "L", (1, 0, 1)),
              ("dconnection", "Hh", (0, 0, 0)), ("lift", "curve", (0,))]


def _deep_d1(tmp_path, deeper=None):
    """d1 with explicit L and dconnection tables and, in each table of
    DEEP_SLOTS, one entry of DEEPEST nested operations (one more in the
    table ``deeper``)."""
    def deepen(doc):
        zeros = [[["0", "0"], ["0", "0"]], [["0", "0"], ["0", "0"]]]
        doc["algebroid"]["L"] = json.loads(json.dumps(zeros))
        doc["dconnection"] = {"Hh": json.loads(json.dumps(zeros)),
                              "Hv": ["0", "0"], "Vh": [["0", "0"], ["0", "0"]],
                              "Vv": "0"}
        for section, key, index in DEEP_SLOTS:
            # a sum of n terms compiles to n - 1 nested parentheses
            terms = DEEPEST + 1 + (key == deeper)
            src = "+".join(["t" if key == "curve" else "x1"] * terms)
            if not index:
                doc[section][key] = src
                continue
            node = doc[section][key]
            for k in index[:-1]:
                node = node[k]
            node[index[-1]] = src

    return _variant(tmp_path, "d1.json", deepen)


def test_the_deepest_accepted_entry_compiles_in_every_table(capsys, tmp_path):
    """An entry at the accepted nesting depth loads and evaluates inside
    every table display, three brackets deep in L and Hh; one operation
    more is an input error in one line, never a compile traceback."""
    sc = load_scenario(_deep_d1(tmp_path))
    xs, y = (0.5, 0.2), 0.7
    deep = 0.5 * (DEEPEST + 1)
    assert sc.metric.g00_at(xs, y) == deep
    assert sc.connection.gamma_at(xs, y)[0] == deep
    assert sc.metric.g_at(xs, y)[0][1] == deep
    assert sc.algebroid.L_at(xs)[1][0][1] == deep
    assert sc.explicit_dconnection.hh_at(xs, y)[0][0][0] == deep
    assert sc.lift.curve.point_at(xs[0])[0] == deep
    assert sc.algebroid.L_at(seeded_point(xs, y)[0])[1][0][1].value == deep
    for section, key, index in DEEP_SLOTS:
        code, out, err = run(capsys, "validate", _deep_d1(tmp_path, key))
        assert code == 2 and out == "", key
        _one_line_error(err)
        where = "".join(f"[{k}]" for k in index)
        assert err == (f"kkgeom: error: {section}.{key}{where}: parse error "
                       f"at offset 0: expected at most {DEEPEST} nested "
                       f"operations\n"), key


# The most nested parentheses (a call's included) an entry may hold
# (``exprlang._MAX_NESTING``).
NESTING = 196


def _deep_calls(tmp_path, levels, keys=("g00", "Gamma")):
    """d1 with g00 and Gamma[0] (those of them in ``keys``) each
    ``levels`` nested calls deep."""
    def deepen(doc):
        if "g00" in keys:
            doc["metric"]["g00"] = ("exp(" + "sin(" * (levels - 1) + "x1"
                                    + ")" * levels)
        if "Gamma" in keys:
            doc["connection"]["Gamma"][0] = ("sin(" * levels + "x1"
                                             + ")" * levels)

    return _variant(tmp_path, "d1.json", deepen)


def test_the_deepest_accepted_nesting_loads_and_evaluates(capsys, tmp_path):
    """Nested calls at the nesting limit load, evaluate on floats and on
    Jets of depth 1-3, and pass ``validate`` in process and in a
    subprocess alike: the limit does not depend on the caller's stack."""
    path = _deep_calls(tmp_path, NESTING)
    sc = load_scenario(path)
    inner = 0.5
    for _ in range(NESTING - 1):
        inner = math.sin(inner)
    xs, y = (0.5, 0.2), 0.7
    for depth in range(4):
        g00 = sc.metric.g00_at(xs, y)
        gamma = sc.connection.gamma_at(xs, y)[0]
        for _ in range(depth):
            g00, gamma = g00.value, gamma.value
        assert g00 == math.exp(inner), depth
        assert gamma == math.sin(inner), depth
        xs, y = seeded_point(xs, y)
    code, out, err = run(capsys, "validate", path)
    proc = _kkgeom("validate", path)
    assert code == proc.returncode == 0, err
    assert proc.stdout.decode() == out


@pytest.mark.parametrize("key", ["g00", "Gamma"])
def test_one_level_deeper_is_refused_alike_in_a_subprocess(capsys, tmp_path,
                                                           key):
    """One parenthesis past the limit is an input error in one line that
    names the limit and the offset of that parenthesis, the same in
    process and in a fresh process."""
    path = _deep_calls(tmp_path, NESTING + 1, (key,))
    code, out, err = run(capsys, "validate", path)
    proc = _kkgeom("validate", path)
    where = "metric.g00" if key == "g00" else "connection.Gamma[0]"
    offset = 4 * NESTING + 3
    assert err == (f"kkgeom: error: {where}: parse error at offset "
                   f"{offset}: expected at most {NESTING} nested "
                   f"parentheses\n")
    assert code == proc.returncode == 2 and out == ""
    assert proc.stdout.decode() == "" and proc.stderr.decode() == err


GOLDEN_DIR = SCENARIO_DIR.parent / "tests" / "golden"


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob(
    "*.json")))
def test_check_all_matches_golden_output(capsys, monkeypatch, name):
    """``check --suite all --seed 1`` prints the recorded bytes: speed-ups
    must not change any digit of the certified output."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    code, out, _ = run(capsys, "check", f"scenarios/{name}.json", "--suite",
                       "all", "--seed", "1")
    assert code == (1 if name == "d1_perturbed" else 0)
    assert out == (GOLDEN_DIR / f"check_all_seed1_{name}.json").read_text()


@pytest.mark.parametrize("name", sorted(p.stem for p in SCENARIO_DIR.glob(
    "*.json")))
def test_check_all_few_samples_matches_golden_output(capsys, monkeypatch,
                                                      name):
    """``check --suite all --samples 3 --seed 7``: every suite on the same
    points, so the point-major run is pinned where suites overlap fully."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    code, out, _ = run(capsys, "check", f"scenarios/{name}.json", "--suite",
                       "all", "--samples", "3", "--seed", "7")
    assert code == (1 if name == "d1_perturbed" else 0)
    assert out == (GOLDEN_DIR
                   / f"check_all_samples3_seed7_{name}.json").read_text()


def test_power_overflow_error_names_the_point(capsys, tmp_path):
    def overflow(doc):
        doc["metric"]["g"][1][1] = "(1e200+x1)^2.5"

    path = _variant(tmp_path, "d1.json", overflow)
    for argv in (("validate", path), ("check", path, "--suite", "all")):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        _one_line_error(err)
        assert "power overflow" in err and " at EPoint(x=(" in err


@pytest.mark.parametrize("gamma,code", [("x1^1e12", 0), ("(x1+2)^1e12", 1),
                                        ("x1^-1e12", 1)])
def test_huge_integer_power_takes_bounded_time(tmp_path, gamma, code):
    def power(doc):
        doc["connection"]["Gamma"][0] = gamma

    path = _variant(tmp_path, "berwald.json", power)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SCENARIO_DIR.parent / "src")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "kkgeom", "compute", path, "--what", "frame",
         "--at", "x1=0.5,x2=0.2,y0=0.5"],
        capture_output=True, text=True, env=env, timeout=10)
    assert time.perf_counter() - t0 < 1.0
    assert proc.returncode == code
    _one_line_error(proc.stderr)


@pytest.mark.parametrize("gamma,message", [
    ("sin(x1*1e308*10)", "sin of inf"),
    ("cos(y0*1e308*10)", "cos of inf"),
    ("tan(-x2*1e308*10)", "tan of -inf"),
    ("x1^(1e308*10)", "non-finite exponent inf"),
    ("pow(x1+2, 0*(1e308*10))", "non-finite exponent nan"),
])
def test_nonfinite_function_argument_is_an_evaluation_error(
        capsys, tmp_path, gamma, message):
    """An infinite trigonometric argument or a non-finite exponent ends in
    exit 1 and one error line, with and without ``python -O``."""
    def edit(doc):
        doc["connection"]["Gamma"][0] = gamma

    argv = ("compute", _variant(tmp_path, "d1.json", edit), "--what",
            "frame", "--at", "x1=0.5,x2=0.2,y0=0.5")
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    _one_line_error(err)
    assert err.startswith("kkgeom: error: ") and message in err
    assert err.endswith(" at EPoint(x=(0.5, 0.2), y=0.5)\n")
    proc = _kkgeom(*argv, optimize=True)
    assert proc.returncode == 1 and proc.stdout == b""
    assert proc.stderr.decode() == err


@pytest.mark.parametrize("gamma", ["x1^1e400", "x1*1e400", "x1+.5e309"])
def test_overflowing_literal_is_a_parse_error(capsys, tmp_path, gamma):
    """A literal beyond the float range is an input error (exit 2, one line
    naming its offset), not an evaluation or compile failure."""
    def literal(doc):
        doc["connection"]["Gamma"][0] = gamma

    path = _variant(tmp_path, "berwald.json", literal)
    for argv in (("compute", path, "--what", "frame",
                  "--at", "x1=0.5,x2=0.2,y0=0.5"),
                 ("check", path, "--suite", "all", "--samples", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        _one_line_error(err)
        assert "connection.Gamma[0]" in err and "offset 3" in err


GEN3 = "tests/data/gen3_seed1.json"


def test_validate_gen3_matches_golden_output(capsys, monkeypatch):
    """A p = m = 3 scenario: the index sums over the frame rank are pinned
    where p is above the shipped scenarios' 2."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    code, out, _ = run(capsys, "validate", GEN3, "--seed", "1")
    assert code == 0
    assert out == (GOLDEN_DIR / "validate_seed1_gen3_seed1.json").read_text()


def test_check_all_gen3_matches_golden_output(capsys, monkeypatch):
    monkeypatch.chdir(SCENARIO_DIR.parent)
    code, out, _ = run(capsys, "check", GEN3, "--suite", "all",
                       "--samples", "2", "--seed", "1")
    assert code == 0
    assert out == (GOLDEN_DIR
                   / "check_all_samples2_seed1_gen3_seed1.json").read_text()


@pytest.mark.parametrize("argv", [
    ("check", "--suite", "all", "--samples", "0"),
    ("check", "--suite", "all", "--samples", "-3"),
    ("check", "--suite", "oracle", "--samples", str(MAX_SAMPLES + 1)),
    ("validate", "--samples", "0"),
    ("validate", "--samples", str(MAX_SAMPLES + 1)),
])
def test_samples_flag_out_of_range_exits_2(capsys, argv):
    """A count outside 1..MAX_SAMPLES is an input error before any point is
    drawn, not a pass over zero points or a run that cannot end."""
    code, out, err = run(capsys, argv[0], scen("d1.json"), *argv[1:])
    assert code == 2 and out == ""
    _one_line_error(err)
    assert err.startswith("kkgeom: error: --samples: must be ")


def test_infinite_box_bound_exits_2(capsys, tmp_path):
    path = _variant(tmp_path, "d1.json", lambda doc: doc.__setitem__(
        "box", {"x": [[0, float("inf")], [0, 1]], "y": [0.1, 2]}))
    code, out, err = run(capsys, "validate", path, "--samples", "2")
    assert code == 2 and out == ""
    _one_line_error(err)
    assert err.startswith("kkgeom: error: box: ")


@pytest.mark.parametrize("x_range", [[0, 10 ** 400], [0, True], [False, 1]],
                         ids=["400-digit", "true", "false"])
def test_non_float_box_bound_exits_2(capsys, tmp_path, x_range):
    """A bound too large for a float, or a JSON boolean, is a malformed
    box: one line and exit 2, never a traceback or a bound of 1.0/0.0."""
    path = _variant(tmp_path, "d1.json", lambda doc: doc.__setitem__(
        "box", {"x": [x_range, [0, 1]], "y": [0.1, 2]}))
    code, out, err = run(capsys, "validate", path, "--samples", "2")
    assert code == 2 and out == ""
    _one_line_error(err)
    assert err.startswith("kkgeom: error: box: malformed box: ")


@pytest.mark.parametrize("x_range,y_range", [([0, 1, "junk"], [0.1, 2]),
                                              ([0, 1], [0.1, 2, 7])],
                         ids=["x-triple", "y-triple"])
def test_box_range_not_a_pair_exits_2(capsys, tmp_path, x_range, y_range):
    """A range with more than two entries is a malformed box, never a box
    built from its first two."""
    path = _variant(tmp_path, "d1.json", lambda doc: doc.__setitem__(
        "box", {"x": [x_range, [0, 1]], "y": y_range}))
    code, out, err = run(capsys, "validate", path, "--samples", "2")
    assert code == 2 and out == ""
    _one_line_error(err)
    assert err.startswith("kkgeom: error: box: malformed box: range ")


@pytest.mark.parametrize("steps", [0, -5, MAX_STEPS + 1])
def test_steps_flag_out_of_range_exits_2(capsys, monkeypatch, steps):
    """A step count outside 1..MAX_STEPS is an input error before any
    integration starts, not a traceback or a run that cannot end."""
    def integrate(*args):
        raise AssertionError("integration started")

    monkeypatch.setattr(lift, "rk4_integrate", integrate)
    for mode in ("parallel", "horizontal", "vertical"):
        code, out, err = run(capsys, "lift", scen("d1.json"), "--mode", mode,
                             "--steps", str(steps))
        assert code == 2 and out == ""
        _one_line_error(err)
        assert err.startswith("kkgeom: error: --steps: must be ")


def test_closed_stdout_ends_without_a_traceback():
    """A reader that closes stdout before the document is written (as
    ``| head -1`` can) gets exit 1 and a quiet stderr, not a
    ``BrokenPipeError`` traceback."""
    _quiet_on_closed_stdout(["-m", "kkgeom"])


def _quiet_on_closed_stdout(launch):
    """Run ``compute`` through ``launch`` (interpreter arguments before the
    command line) with stdout closed at once: exit 1 and a quiet stderr."""
    root = SCENARIO_DIR.parent
    proc = subprocess.Popen(
        [sys.executable, *launch, "compute", "scenarios/vdep.json",
         "--what", "torsion", "--at", "x1=0.1,x2=0.2,y0=1"],
        cwd=root, env=dict(os.environ, PYTHONPATH=str(root / "src")),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1
    assert "Traceback" not in err and "BrokenPipe" not in err, err


def _console_script():
    """What the installed ``kkgeom`` script runs: ``sys.exit`` of the
    function that ``[project.scripts]`` names."""
    pyproject = SCENARIO_DIR.parent / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module, _, func = scripts["kkgeom"].partition(":")
    return ["-c", f"import sys; from {module} import {func}; "
                  f"sys.exit({func}())"]


@pytest.mark.parametrize("launch", [["-m", "kkgeom.cli"], _console_script()],
                         ids=["python -m kkgeom.cli", "console script"])
def test_every_entry_is_quiet_on_closed_stdout(launch):
    """``python -m kkgeom.cli`` and the ``kkgeom`` console script handle a
    closed stdout as ``python -m kkgeom`` does."""
    _quiet_on_closed_stdout(launch)


@pytest.mark.parametrize("argv,message", [
    (("lift", "scenarios/d1.json", "--mode", "parallel", "--steps", "abc"),
     "argument --steps: invalid int value: 'abc'"),
    (("check", "scenarios/d1.json", "--samples", "abc"),
     "argument --samples: invalid int value: 'abc'"),
    (("compute", "scenarios/vdep.json", "--what", "bogus",
      "--at", "x1=0.1,x2=0.2,y0=1"),
     "argument --what: invalid choice: 'bogus' "),
    # an infinite tolerance passes the compatibility check that
    # d1_perturbed must fail
    (("check", "scenarios/d1_perturbed.json", "--suite", "compatibility",
      "--tol", "inf"), "argument --tol: must be finite, got 'inf'\n"),
    (("check", "scenarios/d1.json", "--suite", "compatibility",
      "--tol", "nan"), "argument --tol: must be finite, got 'nan'\n"),
    (("validate", "scenarios/d1.json", "--tol", "-0.5"),
     "argument --tol: must be >= 0, got '-0.5'\n"),
    (("check", "scenarios/d1.json", "--tol", "abc"),
     "argument --tol: invalid float value: 'abc'\n"),
    (("lift", "scenarios/d1.json", "--mode", "parallel", "--t0", "nan"),
     "argument --t0: must be finite, got 'nan'\n"),
    (("lift", "scenarios/d1.json", "--mode", "parallel", "--t1", "inf"),
     "argument --t1: must be finite, got 'inf'\n"),
    # both ends finite, but the step (t1 - t0) / steps would be infinite
    (("lift", "scenarios/d1.json", "--mode", "parallel", "--t0", "-1e308",
      "--t1", "1e308", "--steps", "10"),
     "--t1: t1 - t0 overflows (t0=-1e+308, t1=1e+308)\n"),
], ids=["steps", "samples", "what", "tol-inf", "tol-nan", "tol-negative",
        "tol-abc", "t0-nan", "t1-inf", "t1-t0-overflow"])
def test_bad_command_line_is_one_line(capsys, monkeypatch, argv, message):
    """A command line argparse refuses, or whose lift interval overflows,
    ends in exit 2 and one stderr line, with no usage block.  Float options
    take finite values only, so no check passes or fails on a non-finite
    tolerance and no lift runs over a non-finite time."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    code = _main_result(argv)
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    _one_line_error(err)
    assert err.startswith(f"kkgeom: error: {message}")


def _singular_metric_variant(tmp_path):
    return _variant(tmp_path, "d1.json", lambda doc: doc["metric"].__setitem__(
        "g", [["1", "x1"], ["x1", "x1*x1"]]))


@pytest.mark.parametrize("argv,where", [
    (("check", "--suite", "compatibility", "--samples", "2"),
     "EPoint(x=(0.4037995698960939, -0.5625283377982404), "
     "y=0.3408166176045755)"),
    (("compute", "--what", "torsion", "--at", "x1=0.5,x2=0.2,y0=0.5"),
     "EPoint(x=(0.5, 0.2), y=0.5)"),
], ids=["check", "compute"])
def test_singular_metric_block_exits_1(capsys, tmp_path, argv, where):
    """A horizontal metric block that is singular at a sample point (or at
    the ``compute`` point) fails its conditioning check there, before the
    metric connection inverts it unchecked; the error names the point."""
    path = _singular_metric_variant(tmp_path)
    code, out, err = run(capsys, argv[0], path, *argv[1:])
    assert code == 1 and out == ""
    _one_line_error(err)
    assert err == ("kkgeom: error: singular metric: singular matrix (pivot "
                   f"0.000e+00 in column 1) (condition inf) at {where}\n")


@pytest.mark.parametrize("what", ["scalar", "einstein"])
def test_vanishing_g00_under_explicit_tables_exits_1(capsys, tmp_path, what):
    """When explicit tables replace the metric connection, nothing before
    the scalar curvature divides by g00; a g00 that vanishes at the point
    is a singular metric there, in one line, not a ZeroDivisionError."""
    path = _variant(tmp_path, "d1_perturbed.json",
                    lambda doc: doc["metric"].__setitem__("g00", "x1"))
    code, out, err = run(capsys, "compute", path, "--what", what,
                         "--at", "x1=0,x2=0.1,y0=1")
    assert code == 1 and out == ""
    _one_line_error(err)
    assert err == ("kkgeom: error: singular metric: g00 vanishes at "
                   "EPoint(x=(0.0, 0.1), y=1.0)\n")


def test_nan_metric_entry_exits_1(capsys, tmp_path):
    """A metric block entry that evaluates to NaN compares false against
    every bound of the conditioning check; it is refused as a non-finite
    value at the first sample point."""
    path = _variant(tmp_path, "d1.json", lambda doc: doc["metric"]["g"][1]
                    .__setitem__(1, "0*(1e308*10)"))
    code, out, err = run(capsys, "check", path)
    assert code == 1 and out == ""
    assert err == ("kkgeom: error: evaluation error: non-finite value in "
                   "metric block g at EPoint(x=(0.4037995698960939, "
                   "-0.5625283377982404), y=0.3408166176045755)\n")


def test_singular_metric_in_a_lift_is_not_a_blow_up(capsys, tmp_path):
    """The horizontal lift inverts the metric block at curve points that no
    conditioning check has seen; a singular block there is reported as
    such, at the lifted point and with no condition estimate, not as a
    blow-up."""
    path = _singular_metric_variant(tmp_path)
    code, out, err = run(capsys, "lift", path, "--mode", "horizontal",
                         "--steps", "20")
    assert code == 1 and out == ""
    _one_line_error(err)
    assert err == ("kkgeom: error: singular metric: singular matrix (pivot "
                   "0.000e+00 in column 1) at EPoint(x=(0.0, 0.0), "
                   "y=1.0)\n")


@pytest.mark.parametrize("mode", ["horizontal", "vertical"])
def test_a_singular_metric_in_a_lift_names_the_point(capsys, tmp_path, mode):
    """A vanishing g00 entry of the horizontal block (``hh_at``) and a
    vanishing g00 (``vv_at``) stop a lift with the same kind of line: the
    singular metric and the point where it is singular."""
    def degenerate(doc):
        doc["metric"]["g"] = [["0*x1", "0"], ["0", "1"]]
        doc["metric"]["g00"] = "x1"

    path = _variant(tmp_path, "d1.json", degenerate)
    code, out, err = run(capsys, "lift", path, "--mode", mode, "--steps", "5")
    assert code == 1 and out == ""
    _one_line_error(err)
    what = ("singular matrix (pivot 0.000e+00 in column 0)"
            if mode == "horizontal" else "g00 vanishes")
    assert err == (f"kkgeom: error: singular metric: {what} at "
                   "EPoint(x=(0.0, 0.0), y=1.0)\n")


@pytest.mark.parametrize("key,value", [("samples", "abc"), ("samples", 2.7),
                                       ("samples", MAX_SAMPLES + 1),
                                       ("seed", "x"), ("kappa", "abc")])
def test_bad_scenario_scalar_exits_2(capsys, tmp_path, key, value):
    path = _variant(tmp_path, "d1.json",
                    lambda doc: doc.__setitem__(key, value))
    for argv in (("validate", path),
                 ("check", path, "--suite", "oracle", "--samples", "1")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == ""
        _one_line_error(err)
        assert err.startswith(f"kkgeom: error: {key}: must be ")


def _main_result(argv):
    try:
        return main(list(argv))
    except SystemExit as exc:  # argparse errors
        return exc.code


def test_in_process_calls_match_a_fresh_process(capsys, monkeypatch):
    """Repeated, interleaved ``main`` calls in one process, which share one
    parser, print the bytes and exit codes of a fresh process each."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    calls = [
        ("compute", "scenarios/vdep.json", "--what", "einstein",
         "--at", "x1=0.3,x2=-0.2,y0=0.7"),
        ("compute", GEN3, "--what", "curvature",
         "--at", "x1=0.1,x2=0.2,x3=-0.3,y0=1.1"),
        ("lift", "scenarios/d1.json", "--mode", "horizontal",
         "--steps", "20"),
        ("compute", "scenarios/vdep.json", "--what", "frame"),  # no --at
    ]
    fresh = [_kkgeom(*argv) for argv in calls]
    assert [proc.returncode for proc in fresh] == [0, 0, 0, 2]
    for _ in range(2):
        for argv, proc in zip(calls, fresh):
            code = _main_result(argv)
            out, err = capsys.readouterr()
            assert code == proc.returncode, argv
            assert out == proc.stdout.decode(), argv
            assert err == proc.stderr.decode(), argv


@pytest.mark.parametrize("name", ["d1", "berwald", "riccati", "flat"])
@pytest.mark.parametrize("mode", ["parallel", "horizontal", "vertical"])
def test_lift_matches_golden_output(capsys, monkeypatch, name, mode):
    """``lift`` on a shipped scenario prints the recorded bytes: a faster
    integrator or right-hand side must not change any digit."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    code, out, _ = run(capsys, "lift", f"scenarios/{name}.json", "--mode",
                       mode, "--t0", "0", "--t1", "0.9", "--steps", "40")
    assert code == 0
    assert out == (GOLDEN_DIR / f"lift_{name}_{mode}.json").read_text()


def test_lift_blow_up_matches_golden_output(capsys, monkeypatch):
    """A genuine blow-up keeps its message and the partial trajectory."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    code, out, err = run(capsys, "lift", "scenarios/riccati.json", "--mode",
                         "vertical", "--t1", "2", "--steps", "100")
    assert code == 1
    assert out == (GOLDEN_DIR / "lift_riccati_vertical_t1_2.json").read_text()
    assert err.endswith("  [state blew up after t=1]\n")


def test_exponent_form_negative_values_are_values(capsys, monkeypatch):
    """A negative number in exponent form is an option's value, not an
    option: ``--t0 -1e-3`` prints the bytes of ``--t0=-1e-3``, and
    ``--tol -1e-8`` meets the same refusal as ``--tol -0.5``."""
    monkeypatch.chdir(SCENARIO_DIR.parent)
    lift_argv = ("lift", "scenarios/d1.json", "--mode", "parallel")
    rest = ("--t1", "0.5", "--steps", "10")
    joined = run(capsys, *lift_argv, "--t0=-1e-3", *rest)
    assert joined[0] == 0
    assert run(capsys, *lift_argv, "--t0", "-1e-3", *rest) == joined
    for tol in ("-1e-8", "-0.5"):
        with pytest.raises(SystemExit) as exc:
            main(["check", "scenarios/d1.json", "--tol", tol])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        _one_line_error(err)
        assert err == f"kkgeom: error: argument --tol: must be >= 0, " \
                      f"got '{tol}'\n"


def test_domain_error_in_a_lift_is_not_a_blow_up(capsys, tmp_path):
    """A coefficient evaluated outside its domain ends the lift with exit 1,
    the partial trajectory and an evaluation-error message, where a state
    that grows past the limit is a blow-up (see the golden test above)."""
    path = _variant(tmp_path, "d1.json", lambda doc: doc["connection"][
        "Gamma"].__setitem__(0, "log(x1-0.3)*y0"))
    code, out, err = run(capsys, "lift", path, "--mode", "parallel",
                         "--t0", "0.5", "--t1", "0", "--steps", "10")
    assert code == 1
    doc = json.loads(out)
    message = "evaluation error after t=0.35: log of non-positive value 0.0"
    assert doc["completed"] is False and doc["error"] == message
    assert [t for t, _ in doc["trajectory"]] == pytest.approx(
        [0.5, 0.45, 0.4, 0.35])
    assert doc["final"]["state"] == doc["trajectory"][-1][1]
    _one_line_error(err)
    assert err.endswith(f"  [{message}]\n")
