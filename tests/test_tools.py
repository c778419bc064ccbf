"""The tools under ``tools/``."""

import importlib.util
import shlex
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
    """One call at N = 1: a header, the two scale lines, then the call's
    line with a time, a kernel count, a compile time and its command."""
    cold_cli = _tool("cold_cli")
    argv = ["lift", "scenarios/flat.json", "--mode", "parallel", "--steps",
            "5"]
    lines = cold_cli.run([argv], 1)
    assert lines[0] == "# median_ms\tkernels\tkernel_ms\tcommand"
    assert [text.split("\t")[1:] for text in lines[1:3]] == [
        ["-", "-", "python -c pass"],
        ["-", "-", "python -c 'import kkgeom.cli'"]]
    assert len(lines) == 4
    ms, made, spent, command = lines[3].split("\t")
    float(ms), float(spent)
    assert int(made) >= 1
    assert command == shlex.join(argv)
