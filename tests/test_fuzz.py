"""Fuzz of the CLI over the expression grammar and the scenario JSON.

Each example writes one generated scenario and runs ``validate``,
``compute`` and ``check --samples 2`` on it through ``cli.main`` in
process.  Whatever the input, a call ends in exit 0, 1 or 2; a call that
prints nothing on stdout prints exactly one ``kkgeom: error:`` line on
stderr; and no call takes long.  An exception escaping ``main`` (a
traceback for the user) fails the example.
"""

import contextlib
import io
import itertools
import json
import signal

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kkgeom.cli import WHAT_CHOICES, main
from kkgeom.sampling import MAX_SAMPLES
from kkgeom.suites import SUITES

SECONDS_PER_CALL = 20

NUMBERS = ["0", "1", "2", "0.5", "10", "1e308", "1e-300"]
# Subexpressions that evaluate to inf, -inf and nan, as frequent leaves:
# every function must turn such an argument into an evaluation error or
# a non-finite value, never into another exception.
EDGES = ["(1e308*10)", "(-1e308*10)", "(0*(1e308*10))"]
FUNCTIONS = ["sin", "cos", "tan", "exp", "log", "sqrt", "abs"]
MALFORMED = ["1+*2", "x9", "sin(", "", "y0)", "foo(x1)", "t", "1e400"]
# Malformed values of the scenario's scalar keys (y0 is lift.y0).  A count
# just above the maximum must be refused before any point is drawn.
BAD_SCALARS = {
    "samples": ["abc", 2.7, 0, -3, True, None, MAX_SAMPLES + 1],
    "seed": ["x", 1.5, None, [1]],
    "kappa": ["abc", 0, True, None, float("inf"), float("nan")],
    "y0": ["1", None, float("-inf"), float("nan")],
}
# Optional sections, and values of them that are not JSON objects.
SECTIONS = ["connection", "metric", "dconnection", "lift"]
NOT_OBJECTS = [["oops"], "oops", 3, True]


def expressions(m, base=False):
    """Strings of the expression grammar over x1..xm (and y0 unless
    ``base``), now and then a malformed one."""
    names = [f"x{i + 1}" for i in range(m)] + ([] if base else ["y0"])
    leaves = st.sampled_from(NUMBERS + EDGES + names + ["pi", "e"])

    def extend(children):
        return st.one_of(
            st.tuples(children, st.sampled_from("+-*/^"), children).map(
                lambda t: f"({t[0]}{t[1]}{t[2]})"),
            st.tuples(st.sampled_from(FUNCTIONS), children).map(
                lambda t: f"{t[0]}({t[1]})"),
            st.tuples(children, children).map(
                lambda t: f"pow({t[0]}, {t[1]})"),
            children.map(lambda s: f"-{s}"))

    grammar = st.recursive(leaves, extend, max_leaves=6)
    return st.one_of(*[grammar] * 9, st.sampled_from(MALFORMED))


def _plain(shape, diagonal):
    """A table of ``shape`` with ``diagonal`` on its diagonal, else "0"."""
    if len(shape) == 1:
        return [diagonal if diagonal != "0" and k == 0 else "0"
                for k in range(shape[0])]
    return [[diagonal if a == b else "0" for b in range(shape[1])]
            for a in range(shape[0])]


@st.composite
def scenarios(draw):
    """A valid scenario (identity-like anchor, zero bracket, a Gamma, a
    unit metric or explicit tables) with one to three entries replaced by
    generated expressions, and now and then a structural defect or a
    malformed scalar, or an optional section that is not an object."""
    m, p = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    doc = {"m": m, "p": p,
           "algebroid": {"rho": _plain((p, m), "1"),
                         "L": [_plain((p, p), "0") for _ in range(p)]},
           "connection": {"Gamma": ["x1*y0"] * p}}
    if draw(st.booleans()):
        doc["metric"] = {"g": _plain((p, p), "1"), "g00": "1",
                         "baseline": draw(st.sampled_from(["zero",
                                                           "berwald"]))}
    if "metric" not in doc or draw(st.booleans()):
        doc["dconnection"] = {"Hh": [_plain((p, p), "0") for _ in range(p)],
                              "Hv": _plain((p,), "0"),
                              "Vh": _plain((p, p), "0"), "Vv": "0"}
    slots = [(table, key, path)
             for table, key, shape in (
                 ("algebroid", "rho", (p, m)), ("algebroid", "L", (p, p, p)),
                 ("connection", "Gamma", (p,)), ("metric", "g", (p, p)),
                 ("metric", "g00", ()), ("dconnection", "Hh", (p, p, p)),
                 ("dconnection", "Hv", (p,)), ("dconnection", "Vh", (p, p)),
                 ("dconnection", "Vv", ()))
             if table in doc
             for path in itertools.product(*map(range, shape))]
    for _ in range(draw(st.integers(1, 3))):
        table, key, path = draw(st.sampled_from(slots))
        src = draw(expressions(m, base=table == "algebroid"))
        if not path:
            doc[table][key] = src
            continue
        node = doc[table][key]
        for k in path[:-1]:
            node = node[k]
        node[path[-1]] = src
    defect = draw(st.sampled_from([None] * 12 + ["m", "rho", "Gamma",
                                                 "section"]
                                  + list(BAD_SCALARS)))
    if defect == "m":
        del doc["m"]
    elif defect == "rho":
        doc["algebroid"]["rho"] = doc["algebroid"]["rho"][:-1]
    elif defect == "Gamma":
        doc["connection"]["Gamma"].append("0")
    elif defect == "section":
        doc[draw(st.sampled_from(SECTIONS))] = draw(
            st.sampled_from(NOT_OBJECTS))
    elif defect == "y0":
        doc["lift"] = {"curve": ["t"] * m, "g": ["1"] * p,
                       "y0": draw(st.sampled_from(BAD_SCALARS["y0"]))}
    elif defect is not None:
        doc[defect] = draw(st.sampled_from(BAD_SCALARS[defect]))
    return doc


class _Overtime(Exception):
    pass


def _alarm(signum, frame):
    raise _Overtime()


def _run(argv):
    """``main(argv)`` in process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, SECONDS_PER_CALL)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except _Overtime:
        pytest.fail(f"{argv} took over {SECONDS_PER_CALL} s")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=40, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(doc=scenarios(), what=st.sampled_from(WHAT_CHOICES),
       suite=st.sampled_from([*SUITES, "all"]))
def test_every_input_ends_in_an_exit_code_and_one_line(workdir, doc, what,
                                                       suite):
    path = workdir / "scenario.json"
    path.write_text(json.dumps(doc))
    at = ",".join([f"x{i + 1}=0.5" for i in range(doc.get("m", 1))]
                  + ["y0=0.5"])
    for argv in (["validate", str(path), "--samples", "2"],
                 ["compute", str(path), "--what", what, "--at", at],
                 ["check", str(path), "--suite", suite, "--samples", "2"]):
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, code)
        if out:
            report = json.loads(out)
            assert code == 0 or report.get("passed") is False, argv
        else:
            assert code != 0, argv
            lines = err.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith(
                "kkgeom: error: "), (argv, err)
