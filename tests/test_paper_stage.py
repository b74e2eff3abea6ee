"""The ``paper`` stage of ``make verify`` reruns every
``benchmarks/bench_*.py`` and fails when ``git status -- results/`` is
not empty.  That catches drift only if every file a bench writes is one
git tracks (or ignores on purpose): these tests stop a bench from
growing a side file the stage would report as untracked."""

import importlib.util
import json
import re
import subprocess
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
BENCHMARKS = REPO / "benchmarks"
#: ``emit("name", ...)`` writes ``results/name.txt``, ``emit_json``
#: ``results/name.json``.
CALL = re.compile(r"\bemit(_json)?\(")
LITERAL_CALL = re.compile(r"\bemit(_json)?\(\s*\"(\w+)\"")


@pytest.fixture(scope="module")
def harness():
    """``benchmarks/conftest.py`` under a name of its own (tests/ has a
    conftest too)."""
    spec = importlib.util.spec_from_file_location(
        "bench_harness", BENCHMARKS / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def emitted_paths():
    """``results/<name>.txt|json`` of every emit call in a bench; a name
    that is not a string literal would hide its path, so it fails."""
    paths = set()
    for bench in sorted(BENCHMARKS.glob("bench_*.py")):
        text = bench.read_text()
        calls = LITERAL_CALL.findall(text)
        assert len(calls) == len(CALL.findall(text)), \
            f"{bench.name}: emit with a computed name"
        paths.update(f"results/{name}.{'json' if json_ else 'txt'}"
                     for json_, name in calls)
    return sorted(paths)


def git(*args) -> subprocess.CompletedProcess:
    try:
        return subprocess.run(["git", *args], cwd=REPO, text=True,
                              capture_output=True, timeout=30)
    except OSError:
        pytest.skip("git is not installed")


def test_every_emitted_file_is_tracked_or_ignored():
    paths = emitted_paths()
    assert "results/fig09_breakeven.txt" in paths
    assert "results/fleet_boot.json" in paths
    listed = git("ls-files", "--", "results")
    if listed.returncode:
        pytest.skip("not a git checkout")
    untracked = sorted(set(paths) - set(listed.stdout.split()))
    ignored = git("check-ignore", "--no-index", *untracked).stdout.split() \
        if untracked else []
    # a host-clock figure differs on every machine, so it is ignored
    assert ignored == ["results/functional_throughput.txt"]
    assert untracked == ignored


def test_emitters_write_only_their_own_file(harness, tmp_path,
                                            monkeypatch):
    monkeypatch.setattr(harness, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(harness, "_EMITTED", [])
    payload = {"b": [1, 2.5], "a": {"cycles": 7}}
    harness.emit_json("probe", payload)
    assert [path.name for path in tmp_path.iterdir()] == ["probe.json"]
    assert json.loads((tmp_path / "probe.json").read_text()) == payload
    harness.emit("probe", "table")
    assert sorted(path.name for path in tmp_path.iterdir()) == \
        ["probe.json", "probe.txt"]
    assert (tmp_path / "probe.txt").read_text() == "table\n"
