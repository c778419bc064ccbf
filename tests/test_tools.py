"""The tools under ``tools/``."""

import importlib.util
import json
import os
import platform
import py_compile
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _tool(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_cli_digest_lines_repeat(monkeypatch):
    """A check, a compute and a lift of the digest's list, run twice: each
    prints the same line both times, with its command, its exit code and
    the two sha256 digests."""
    cli_digest = _tool("cli_digest")
    monkeypatch.chdir(ROOT)
    calls = cli_digest.calls()
    picked = [next(argv for argv in calls if argv[0] == command)
              for command in ("check", "compute", "lift")]
    first = [cli_digest.digest(argv) for argv in picked]
    assert [cli_digest.digest(argv) for argv in picked] == first
    for argv, line in zip(picked, first):
        command, rc, out, err = line.split("\t")
        assert (command, rc) == (shlex.join(argv), "0")
        assert len(out) == len(err) == 64


# The sha256 of the digest before ``tests/data/torsion3.json`` and
# ``tests/data/rules.json`` joined its list of calls.
EARLIER_DIGEST_SHA256 = (
    "25d9c684d4a6f03854c7d4d09be6566146bf74011ed0306f43af04a3dfba3d92")


def test_cli_digest_keeps_every_earlier_line():
    """The recorded digest, without the lines of the two scenarios added
    last, is the earlier digest byte for byte: adding them changed no
    earlier line or its place."""
    import hashlib
    lines = (ROOT / "tests" / "golden" / "cli_digest.txt").read_text(
    ).splitlines(keepends=True)
    earlier = [line for line in lines
               if "tests/data/torsion3.json" not in line
               and "tests/data/rules.json" not in line]
    assert len(lines) - len(earlier) == 2 * (2 + 2 * 7)
    assert hashlib.sha256("".join(earlier).encode()).hexdigest() \
        == EARLIER_DIGEST_SHA256


def test_cli_digest_strips_wall_times():
    cli_digest = _tool("cli_digest")
    assert cli_digest._TIME.sub(
        "<t>", "check: pass (oracle 0.05s, bianchi 12.30s; total 12.35 s)\n"
               "ok  compatibility  max 2.220e-16 tol 1e-09\n") == (
        "check: pass (oracle <t>, bianchi <t>; total <t>)\n"
        "ok  compatibility  max 2.220e-16 tol 1e-09\n")


def test_cli_digest_equals_the_golden_digest(monkeypatch, capsys):
    """Every listed call prints the stdout, the timing-stripped stderr and
    the exit code recorded in ``tests/golden/cli_digest.txt``."""
    cli_digest = _tool("cli_digest")
    monkeypatch.chdir(ROOT)
    assert cli_digest.run() == 0
    golden = (ROOT / "tests" / "golden" / "cli_digest.txt").read_text()
    assert capsys.readouterr().out == golden


def test_cold_cli_prints_one_line_per_call():
    """One call at N = 1: a header, the bytecode state, the two scale
    lines, then the call's line with a time, a kernel count, a compile
    time and its command."""
    cold_cli = _tool("cold_cli")
    argv = ["lift", "scenarios/flat.json", "--mode", "parallel", "--steps",
            "5"]
    lines = cold_cli.run([argv], 1)
    assert lines[0] == "# median_ms\tkernels\tkernel_ms\tcommand"
    assert lines[1] == "# bytecode: {} modules cached, {} not".format(
        *cold_cli.bytecode_counts())
    assert sum(cold_cli.bytecode_counts()) == len(list(
        cold_cli.PACKAGE.glob("*.py")))
    assert [text.split("\t")[1:] for text in lines[2:4]] == [
        ["-", "-", "python -c pass"],
        ["-", "-", "python -c 'import kkgeom.cli'"]]
    assert len(lines) == 5
    ms, made, spent, command = lines[4].split("\t")
    float(ms), float(spent)
    assert int(made) >= 1
    assert command == shlex.join(argv)


def test_cold_cli_sees_a_module_without_bytecode(tmp_path):
    """The bytecode line counts the modules of the package that have their
    ``.pyc`` where the interpreter looks for it and those that do not, so
    a tree with some cached reads apart from one with none."""
    cold_cli = _tool("cold_cli")
    for name in ("a.py", "b.py", "c.py"):
        (tmp_path / name).write_text("X = 1\n")
    assert cold_cli.bytecode_counts(tmp_path) == (0, 3)
    py_compile.compile(str(tmp_path / "a.py"))
    assert cold_cli.bytecode_counts(tmp_path) == (1, 2)
    for name in ("b.py", "c.py"):
        py_compile.compile(str(tmp_path / name))
    assert cold_cli.bytecode_counts(tmp_path) == (3, 0)


def test_cold_cli_times_each_kernel_from_its_factory():
    """A kernel is counted at its factory's first call for a key, so the
    count is the number of keys that the call's factories (the cached
    ``*_kernel`` functions and ``calculus._jet_class``) hold afterwards,
    and the time includes each kernel's generation."""
    cold_cli = _tool("cold_cli")
    argv = ["lift", "scenarios/flat.json", "--mode", "horizontal",
            "--steps", "5"]
    made, spent = cold_cli.kernels(argv)
    held = ("import contextlib, io, sys\n"
            "from kkgeom import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    cli.main(sys.argv[1:])\n"
            "print(sum(f.cache_info().currsize\n"
            "          for name, m in list(sys.modules.items())\n"
            "          if name.startswith('kkgeom.')\n"
            "          for a, f in vars(m).items()\n"
            "          if (a.endswith('_kernel') or a == '_jet_class')\n"
            "          and hasattr(f, 'cache_info')))\n")
    proc = subprocess.run([sys.executable, "-c", held, *argv], cwd=ROOT,
                          env=cold_cli._env(), capture_output=True,
                          text=True, check=True)
    assert made == int(proc.stdout) >= 3
    assert spent > 0.0


def test_bench_record_writes_the_schema(tmp_path, capsys):
    """One short query-lift run at seed 1, untraced and traced: a
    sorted-key document with the commit, the Python version, the CPU count
    and, per workload and seed, perfbench's verdict and its five
    end-to-end metrics, and the verdict and count-unit per-layer metrics
    of the traced run; ``--compare`` of the file with itself reads 1.000
    for each end-to-end metric, marked single-run (one run per side), and
    ``same`` for each count, and ``differs`` for a count that changed.
    The times are not checked."""
    bench_record = _tool("bench_record")
    out = tmp_path / "BENCH_0.json"
    bench_record.write(bench_record.record(0.2, ["query-lift"], [1]), out)
    text = out.read_text(encoding="utf-8")
    doc = json.loads(text)
    assert text == json.dumps(doc, indent=1, sort_keys=True) + "\n"
    assert set(doc) == {"commit", "uncommitted_changes", "python",
                        "cpu_count", "seconds", "runs", "traced"}
    assert doc["python"] == platform.python_version()
    assert doc["cpu_count"] == os.cpu_count()
    assert doc["seconds"] == 0.2
    assert list(doc["runs"]) == list(doc["traced"]) == ["query-lift"]
    assert list(doc["runs"]["query-lift"]) == ["1"]
    assert list(doc["traced"]["query-lift"]) == ["1"]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = bench["end_to_end"]
    count_names = {m["name"] for m in bench["per_layer"]
                   if m["unit"] == "count"}
    run = doc["runs"]["query-lift"]["1"]
    traced = doc["traced"]["query-lift"]["1"]
    for verdict in (run, traced):
        assert (verdict["correct"], verdict["failed"]) == (True, 0)
        assert verdict["attempted"] > 0
    assert {name: metric["unit"] for name, metric in run["metrics"].items()
            } == {m["name"]: m["unit"] for m in end_to_end}
    assert set(traced["metrics"]) == count_names
    assert traced["metrics"]["scenario.loads"]["value"] > 0
    capsys.readouterr()
    assert bench_record.main(["--compare", str(out), str(out)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 + len(end_to_end) + len(count_names)
    marks = [line.split("\t")[5:] for line in lines[1:]]
    assert marks == ([["1.000", "single-run"]] * len(end_to_end)
                     + [["same"]] * len(count_names))
    traced["metrics"]["scenario.loads"]["value"] += 1
    changed = [line.split("\t")[2::3]
               for line in bench_record.compare(json.loads(text), doc)
               if line.split("\t")[-1] == "differs"]
    assert changed == [["scenario.loads", "differs"]]
