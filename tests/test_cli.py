"""CLI tests (python -m repro)."""

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main

REPO = Path(__file__).resolve().parent.parent


def subcommands(parser):
    """Every subcommand ``build_parser()`` registers: name -> parser."""
    return next(action.choices for action in parser._actions
                if isinstance(action, argparse._SubParsersAction))


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.asm"
    path.write_text("""
start:
    mov ecx, 20
loop:
    add esi, ecx
    dec ecx
    jnz loop
    mov eax, 1
    mov ebx, esi
    int 0x80
    mov eax, 0
    mov ebx, 0
    int 0x80
""")
    return str(path)


class TestRunCommand:
    def test_runs_program(self, program_file, capsys):
        code = main(["run", program_file, "--hot-threshold", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "210" in out          # sum 1..20
        assert "VM.soft" in out

    def test_config_alias(self, program_file, capsys):
        main(["run", program_file, "--config", "fe"])
        assert "VM.fe" in capsys.readouterr().out

    def test_full_config_name(self, program_file, capsys):
        main(["run", program_file, "--config", "Ref: superscalar"])
        assert "Ref" in capsys.readouterr().out

    def test_unknown_config_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["run", program_file, "--config", "bogus"])

    def test_runs_seed_workload(self, capsys):
        code = main(["run", "fibonacci", "--hot-threshold", "5"])
        assert code == 0
        assert "VM.soft" in capsys.readouterr().out


@pytest.fixture
def bad_program(tmp_path):
    path = tmp_path / "bad.asm"
    path.write_text("start:\n    frobnicate eax\n")
    return str(path)


class TestUserInputErrors:
    """A mistake in what the user typed is a one-line exit, never a
    traceback."""

    @staticmethod
    def exit_message(argv):
        with pytest.raises(SystemExit) as caught:
            main(argv)
        message = caught.value.code
        assert isinstance(message, str) and "\n" not in message
        return message

    def test_missing_program_file(self):
        assert "nosuch.asm" in self.exit_message(["run", "nosuch.asm"])

    @pytest.mark.parametrize("argv", [
        ["run", "{}"], ["trace", "{}"], ["profile", "{}"],
        ["verify", "--program", "{}"],
        ["cache", "save", "{}", "--cache-dir", "{}.cache"]])
    def test_malformed_assembly_names_the_line(self, argv, bad_program):
        message = self.exit_message(
            [arg.format(bad_program) for arg in argv])
        assert "line 2" in message and "frobnicate" in message

    @pytest.mark.parametrize("line", [
        "mov eax,", "add eax", "ret eax, ebx, ecx"])
    def test_wrong_operand_count_names_the_line(self, line, tmp_path):
        path = tmp_path / "bad.asm"
        path.write_text(f"start:\n    {line}\n")
        message = self.exit_message(["run", str(path)])
        assert "line 2" in message and "operand(s)" in message

    def test_python_m_repro_run_exits_without_a_traceback(self, tmp_path):
        path = tmp_path / "bad.asm"
        path.write_text("start:\n    add eax\n")
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", str(path)], env=env,
            capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stderr == \
            f"{path}: line 2: add takes 2 operand(s), not 1\n"

    def test_missing_fleet_report(self, tmp_path):
        path = str(tmp_path / "missing.json")
        assert path in self.exit_message(["fleet", "report", path])

    def test_fleet_report_that_is_not_json(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("not json")
        assert str(path) in self.exit_message(
            ["fleet", "report", str(path)])

    def test_unknown_fleet_workload(self):
        assert "unknown workload" in self.exit_message(
            ["fleet", "run", "--workload", "nosuch"])

    def test_unknown_startup_app(self):
        assert "Nope" in self.exit_message(["startup", "--app", "Nope"])


#: What each subcommand parses to when given only what it requires, for
#: the values more than one command takes: a command's own default must
#: not leak into another's.
PINNED = ("hot_threshold", "max_instructions", "seed", "instrs",
          "timeout", "retries", "config", "cache_dir", "budget")
VM = dict(config="soft", hot_threshold=None, max_instructions=10_000_000)
PARSED_DEFAULTS = {
    "run": (["prog.asm"], VM),
    "startup": ([], dict(instrs=500_000_000, seed=0)),
    "breakeven": ([], dict(instrs=500_000_000, seed=0)),
    "profile": ([], dict(VM, instrs=100_000_000, seed=0)),
    "trace": (["checksum"], VM),
    "configs": ([], {}),
    "verify": ([], dict(VM, hot_threshold=20)),
    "serve": ([], dict(cache_dir=".repro-cache")),
    "fleet": (["run"], dict(VM, hot_threshold=20,
                            max_instructions=2_000_000, seed=0)),
    "cluster": (["health", "--cluster", "s"], dict(timeout=2.0,
                                                   retries=1)),
    "monitor": (["--cluster", "s"], dict(timeout=2.0, retries=1)),
    "cache": (["stats"], dict(VM, cache_dir=".repro-cache", timeout=2.0,
                              retries=3, budget=64 * 1024 * 1024)),
    "lint": ([], {}),
}


class TestParser:
    def test_every_subcommand_is_pinned(self):
        assert set(subcommands(build_parser())) == set(PARSED_DEFAULTS)

    @pytest.mark.parametrize("command", sorted(PARSED_DEFAULTS))
    def test_parsed_defaults(self, command):
        argv, expected = PARSED_DEFAULTS[command]
        parsed = vars(build_parser().parse_args([command] + argv))
        assert {key: parsed[key] for key in PINNED
                if key in parsed} == expected

    def test_readme_names_every_subcommand(self):
        text = (REPO / "README.md").read_text()
        listed = re.search(r"python -m repro \{([a-z,]+)\}", text)
        assert listed, "README.md lost its CLI command list"
        assert set(listed.group(1).split(",")) == \
            set(subcommands(build_parser()))


class TestAnalysisCommands:
    def test_startup(self, capsys):
        code = main(["startup", "--app", "Winzip",
                     "--instrs", "20000000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "breakeven vs reference" in out
        assert "VM.be" in out

    def test_profile(self, capsys):
        code = main(["profile", "--instrs", "10000000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "frequency profile" in out
        assert "10,000+" in out

    def test_configs(self, capsys):
        code = main(["configs"])
        out = capsys.readouterr().out
        assert code == 0
        for name in ("VM.soft", "VM.be", "VM.fe"):
            assert name in out

    def test_breakeven_small(self, capsys):
        code = main(["breakeven", "--instrs", "5000000"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Project" in out and "Winzip" in out

    def test_missing_command(self):
        with pytest.raises(SystemExit):
            main([])


class TestObservabilityCommands:
    def test_trace_writes_valid_perfetto_json(self, tmp_path, capsys):
        out_file = str(tmp_path / "run.json")
        code = main(["trace", "checksum", "--out", out_file])
        out = capsys.readouterr().out
        assert code == 0
        assert "perfetto" in out
        with open(out_file) as handle:
            doc = json.load(handle)
        from repro.obs.export import validate_trace
        assert validate_trace(doc) == []
        assert doc["metadata"]["workload"] == "checksum"

    def test_trace_stdout_is_json(self, capsys):
        code = main(["trace", "checksum"])
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["conserved"] is True

    def test_profile_workload_prints_attribution(self, capsys):
        code = main(["profile", "checksum", "--top", "3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cycle attribution" in out
        assert "bbt_translation" in out
        assert "BBT translation" in out

    def test_trace_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["trace", "no-such-workload"])

    def test_log_level_flag(self, capsys):
        code = main(["--log-level", "debug", "configs"])
        assert code == 0
        with pytest.raises(SystemExit):
            main(["--log-level", "shouting", "configs"])


class TestVerifyCommand:
    def test_single_workload_verifies_clean(self, capsys):
        code = main(["verify", "--workload", "fibonacci"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fibonacci" in out
        assert "0 violation(s)" in out

    def test_program_file_verifies_clean(self, program_file, capsys):
        code = main(["verify", "--program", program_file,
                     "--hot-threshold", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 violation(s)" in out

    def test_json_report_shape(self, capsys):
        code = main(["verify", "--workload", "sieve", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["translations_checked"] > 0
        assert "sieve" in payload["workloads"]
        assert payload["rules_run"]  # the rule-pack actually ran

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["verify", "--workload", "bogus"])


class TestCacheCommand:
    def test_save_then_load_skips_translation(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        code = main(["cache", "save", "fibonacci",
                     "--cache-dir", cache_dir, "--hot-threshold", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "saved" in out and "translation record(s)" in out

        code = main(["cache", "load", "fibonacci",
                     "--cache-dir", cache_dir, "--hot-threshold", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "warm start:" in out
        assert "BBT blocks:           0" in out
        assert "warm-start loads" in out

    def test_save_accepts_program_file(self, program_file, tmp_path,
                                       capsys):
        cache_dir = str(tmp_path / "cache")
        code = main(["cache", "save", program_file,
                     "--cache-dir", cache_dir, "--hot-threshold", "5"])
        assert code == 0
        code = main(["cache", "load", program_file,
                     "--cache-dir", cache_dir, "--hot-threshold", "5"])
        out = capsys.readouterr().out
        assert code == 0
        assert "210" in out  # program output survives the warm start

    def test_stats_and_gc(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["cache", "save", "checksum", "--cache-dir", cache_dir,
              "--hot-threshold", "50"])
        capsys.readouterr()
        code = main(["cache", "stats", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "objects:" in out and "manifest" in out

        code = main(["cache", "gc", "--cache-dir", cache_dir,
                     "--budget", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "evicted" in out
        code = main(["cache", "stats", "--cache-dir", cache_dir])
        assert "objects:    0" in capsys.readouterr().out

    def test_load_without_program_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "load",
                  "--cache-dir", str(tmp_path / "cache")])

    def test_unknown_program_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "save", "no-such-program",
                  "--cache-dir", str(tmp_path / "cache")])


class TestServeAndSharedCache:
    def test_serve_runs_and_reports(self, tmp_path, capsys):
        code = main(["serve", "--cache-dir", str(tmp_path / "repo"),
                     "--max-seconds", "0.1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "serving translation cache" in out
        assert "served 0 request(s)" in out

    def test_serve_rejects_socket_plus_port(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["serve", "--socket", str(tmp_path / "s.sock"),
                  "--port", "1234"])

    def test_push_pull_through_live_server(self, tmp_path, capsys):
        from repro.cacheserver import CacheServer
        with CacheServer(tmp_path / "served") as server:
            code = main(["cache", "push", "fibonacci",
                         "--server", server.address,
                         "--cache-dir", str(tmp_path / "local"),
                         "--hot-threshold", "50"])
            out = capsys.readouterr().out
            assert code == 0
            assert f"to {server.address}" in out
            assert server.repository.stats().objects > 0

            code = main(["cache", "pull", "fibonacci",
                         "--server", server.address,
                         "--cache-dir", str(tmp_path / "local2"),
                         "--hot-threshold", "50"])
            out = capsys.readouterr().out
        assert code == 0
        assert "warm start:" in out
        assert "BBT blocks:           0" in out

    def test_push_pull_require_server(self, tmp_path):
        for action in ("push", "pull"):
            with pytest.raises(SystemExit, match="--server"):
                main(["cache", action, "fibonacci",
                      "--cache-dir", str(tmp_path / "cache")])

    def test_pull_degrades_to_local_with_dead_server(self, tmp_path,
                                                     capsys):
        cache_dir = str(tmp_path / "cache")
        main(["cache", "save", "fibonacci", "--cache-dir", cache_dir,
              "--hot-threshold", "50"])
        capsys.readouterr()
        code = main(["cache", "pull", "fibonacci",
                     "--server", f"unix:{tmp_path / 'no.sock'}",
                     "--cache-dir", cache_dir,
                     "--timeout", "0.5", "--retries", "1",
                     "--hot-threshold", "50"])
        out = capsys.readouterr().out
        assert code == 0
        assert "shared cache:" in out          # degradation reported
        assert "fallback(s)" in out
        assert "BBT blocks:           0" in out   # local store warm
