"""reprolint: one violating and one clean snippet per rule, plus the
suppression machinery and the live-tree gate.

Corpus snippets are linted in-memory through
:meth:`repro.lint.LintEngine.lint_sources` with *injected* registries
(event taxonomy, fault sites), so these tests stay hermetic while the
real CLI resolves the same registries from the live modules.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

from repro.lint import LintEngine, all_rule_ids
from repro.lint.core import ERROR, WARNING, RULES, Rule, register_rule
from repro.lint.index import ModuleInfo

REPO = Path(__file__).resolve().parents[1]


def lint_one(path, source, rule, **registries):
    """Run a single rule over one in-memory module."""
    engine = LintEngine(rules=[rule], **registries)
    return engine.lint_sources({path: source})


def hits(report, rule_id):
    return [v for v in report.violations if v.rule_id == rule_id]


# -- framework ----------------------------------------------------------------


def test_rule_catalog_is_complete():
    expected = {"DET001", "DET002", "DET003", "CONC001", "CONC002",
                "FLT001", "OBS001", "OBS003", "EXC001",
                "F401", "E501", "W291", "W191"}
    assert expected <= set(all_rule_ids())


def test_rule_catalog_doc_has_one_row_per_rule():
    doc = (REPO / "docs" / "static_analysis.md").read_text()
    rows = set(re.findall(r"^\| `([A-Z]+[0-9]+)` \|", doc, re.MULTILINE))
    assert rows == set(all_rule_ids())


def test_register_rule_rejects_duplicates():
    with pytest.raises(ValueError):
        @register_rule
        class Duplicate(Rule):            # noqa: F811 - intentional
            rule_id = "DET001"
    assert RULES["DET001"].__name__ != "Duplicate"


def test_engine_rejects_unknown_rules():
    with pytest.raises(ValueError):
        LintEngine(rules=["NOPE999"])


def test_syntax_error_reports_e999():
    report = LintEngine().lint_sources(
        {"src/repro/vmm/broken.py": "def broken(:\n"})
    assert [v.rule_id for v in report.violations] == ["E999"]
    assert not report.ok


def test_unreadable_file_reports_e999(tmp_path):
    (tmp_path / "good.py").write_text("x = 1\n")
    (tmp_path / "bad.py").write_bytes(b"\xff\xfe")
    report = LintEngine().lint_paths([tmp_path])
    assert report.files == 2
    assert [(v.rule_id, Path(v.path).name)
            for v in report.violations] == [("E999", "bad.py")]
    assert "unreadable" in report.violations[0].message
    assert not report.ok


def test_severity_split():
    assert RULES["DET001"].severity == ERROR
    assert RULES["E501"].severity == WARNING


# -- DET001-003: determinism --------------------------------------------------


def test_det001_flags_wall_clock_in_simulated_code():
    source = "import time\n\n\ndef step():\n    return time.time()\n"
    report = lint_one("src/repro/vmm/sim.py", source, "DET001")
    assert len(hits(report, "DET001")) == 1


def test_det001_sees_through_from_import_aliases():
    source = ("from time import monotonic as mono\n\n\n"
              "def step():\n    return mono()\n")
    report = lint_one("src/repro/timing/model.py", source, "DET001")
    assert len(hits(report, "DET001")) == 1


def test_det001_allows_the_lease_protocol_module():
    source = "import time\n\n\ndef expiry(ttl):\n    return time.time() + ttl\n"
    report = lint_one("src/repro/persist/lease.py", source, "DET001")
    assert report.ok


def test_det001_clean_with_injected_clock():
    source = "def step(clock):\n    return clock()\n"
    report = lint_one("src/repro/vmm/sim.py", source, "DET001")
    assert report.ok


def test_det002_flags_datetime_now():
    source = ("from datetime import datetime\n\n\n"
              "def stamp():\n    return datetime.now()\n")
    report = lint_one("src/repro/obs/export2.py", source, "DET002")
    assert len(hits(report, "DET002")) == 1


def test_det002_ignores_unrelated_now_methods():
    source = "def stamp(clock):\n    return clock.now()\n"
    report = lint_one("src/repro/obs/export2.py", source, "DET002")
    assert report.ok


def test_det003_flags_module_level_rng():
    source = "import random\n\n\ndef jitter():\n    return random.random()\n"
    report = lint_one("src/repro/faults/jitter.py", source, "DET003")
    assert len(hits(report, "DET003")) == 1


def test_det003_flags_unseeded_random_instance():
    source = "import random\n\n\ndef rng():\n    return random.Random()\n"
    report = lint_one("src/repro/faults/jitter.py", source, "DET003")
    assert len(hits(report, "DET003")) == 1


def test_det003_banned_even_in_wall_clock_modules():
    source = "import random\n\n\ndef jitter():\n    return random.random()\n"
    report = lint_one("src/repro/persist/lease.py", source, "DET003")
    assert len(hits(report, "DET003")) == 1


def test_det003_clean_with_seeded_instance():
    source = ("import random\n\n\n"
              "def rng(seed):\n    return random.Random(seed)\n")
    report = lint_one("src/repro/faults/jitter.py", source, "DET003")
    assert report.ok


# -- CONC001-002: lock discipline ----------------------------------------------


_UNGUARDED = """\
import threading


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0

    def bump(self):
        self.hits += 1
"""

_GUARDED = """\
import threading


class Stats:
    def __init__(self):
        self._lock = threading.Lock()
        self.hits = 0

    def bump(self):
        with self._lock:
            self.hits += 1
"""


def test_conc001_flags_unguarded_rmw():
    report = lint_one("src/repro/cacheserver/stats2.py", _UNGUARDED,
                      "CONC001")
    assert len(hits(report, "CONC001")) == 1


def test_conc001_clean_under_the_lock():
    report = lint_one("src/repro/cacheserver/stats2.py", _GUARDED,
                      "CONC001")
    assert report.ok


def test_conc001_plain_rebind_is_exempt():
    source = _UNGUARDED.replace("self.hits += 1\n", "self.hits = None\n")
    report = lint_one("src/repro/cacheserver/stats2.py", source,
                      "CONC001")
    assert report.ok


def test_conc001_out_of_scope_packages_are_skipped():
    report = lint_one("src/repro/vmm/stats2.py", _UNGUARDED, "CONC001")
    assert report.ok


_LOCK_CONFLICT = """\
import threading

push_lock = threading.Lock()
trace_lock = threading.Lock()


def forward():
    with push_lock:
        with trace_lock:
            pass


def backward():
    with trace_lock:
        with push_lock:
            pass
"""


def test_conc002_flags_conflicting_lock_order():
    report = lint_one("src/repro/cacheserver/locks2.py", _LOCK_CONFLICT,
                      "CONC002")
    found = hits(report, "CONC002")
    assert len(found) == 1
    assert "push_lock" in found[0].message
    assert "trace_lock" in found[0].message


def test_conc002_consistent_order_is_clean():
    source = _LOCK_CONFLICT.replace(
        "def backward():\n    with trace_lock:\n        with push_lock:",
        "def backward():\n    with push_lock:\n        with trace_lock:")
    report = lint_one("src/repro/cacheserver/locks2.py", source,
                      "CONC002")
    assert report.ok


def test_conc002_resolves_one_call_level():
    source = """\
import threading

push_lock = threading.Lock()


def save():
    with lease():
        pass


def handler():
    with push_lock:
        save()


def other():
    with lease():
        with push_lock:
            pass
"""
    report = lint_one("src/repro/cacheserver/paths2.py", source,
                      "CONC002")
    found = hits(report, "CONC002")
    assert len(found) == 1
    assert "writer.lease" in found[0].message


# -- FLT001: fault-point coverage ----------------------------------------------


def test_flt001_flags_unguarded_open_in_persist():
    source = ("def read_blob(path):\n"
              "    with open(path) as handle:\n"
              "        return handle.read()\n")
    report = lint_one("src/repro/persist/blob.py", source, "FLT001",
                      fault_sites={"repo.read"})
    found = hits(report, "FLT001")
    assert len(found) == 1
    assert "open()" in found[0].message


def test_flt001_clean_with_dominating_fault_point():
    source = ("from repro.faults.plane import fault_point\n\n\n"
              "def read_blob(path):\n"
              "    fault_point(\"repo.read\", path=path)\n"
              "    with open(path) as handle:\n"
              "        return handle.read()\n")
    report = lint_one("src/repro/persist/blob.py", source, "FLT001",
                      fault_sites={"repo.read"})
    assert report.ok


def test_flt001_flags_unregistered_site_literal():
    for site in ("bogus.site", "overload.bogus"):
        source = ("from repro.faults.plane import fault_point\n\n\n"
                  f"def step():\n    fault_point(\"{site}\")\n")
        report = lint_one("src/repro/persist/step2.py", source, "FLT001",
                          fault_sites={"repo.read", "overload.shed"})
        found = hits(report, "FLT001")
        assert len(found) == 1
        assert site in found[0].message


FULL_SCAN = {
    "src/repro/persist/a.py":
        "from repro.faults.plane import fault_point\n\n\n"
        "def touch(path):\n"
        "    fault_point(\"repo.read\", path=path)\n"
        "    with open(path) as handle:\n"
        "        return handle.read()\n",
    "src/repro/translator/b.py": "x = 1\n",
    "src/repro/vmm/c.py": "y = 2\n",
    "src/repro/faults/table.py":
        "ROWS = [Fault(\"ghost\", \"remote\", (\"net.ghost\",)),\n"
        "        Fault(\"hedge\", \"cluster\", (\"overload.hedge\",))]\n",
}


def test_flt001_reports_registry_drift_on_full_scans():
    engine = LintEngine(rules=["FLT001"],
                        fault_sites={"repo.read", "net.ghost",
                                     "overload.hedge"})
    found = hits(engine.lint_sources(FULL_SCAN), "FLT001")
    assert [(v.path, v.line) for v in found] == \
        [("repro/faults/table.py", 1), ("repro/faults/table.py", 2)]
    assert "net.ghost" in found[0].message
    assert "overload.hedge" in found[1].message


def test_flt001_drift_reads_the_live_fault_table():
    found = hits(LintEngine(rules=["FLT001"]).lint_sources(FULL_SCAN),
                 "FLT001")
    missing = {v.message.split("'")[1] for v in found}
    assert "repo.write" in missing and "cluster.route" in missing
    assert "repo.read" not in missing


def test_flt001_partial_scans_skip_the_drift_check():
    source = "x = 1\n"
    report = lint_one("src/repro/persist/a.py", source, "FLT001",
                      fault_sites={"net.ghost"})
    assert report.ok


# -- OBS001: taxonomy conformance ----------------------------------------------


def test_obs001_flags_unregistered_event_name():
    source = ("def step(self):\n"
              "    self.tracer.instant(\"vm.nope\", 0)\n")
    report = lint_one("src/repro/vmm/emit2.py", source, "OBS001",
                      event_types={"vm.dispatch"})
    found = hits(report, "OBS001")
    assert len(found) == 1
    assert "vm.nope" in found[0].message


def test_obs001_registered_and_dynamic_names_are_clean():
    source = ("def step(self, name):\n"
              "    self.tracer.instant(\"vm.dispatch\", 0)\n"
              "    self.tracer.instant(name, 0)\n")
    report = lint_one("src/repro/vmm/emit2.py", source, "OBS001",
                      event_types={"vm.dispatch"})
    assert report.ok


# -- OBS003: propagated-context span discipline ----------------------------------
# (span phases resolve from the *live* EVENT_TYPES taxonomy — the
# injected event_types registry carries names only, not phases)


def test_obs003_flags_span_outside_with():
    source = ("def handle(self, ctx):\n"
              "    self.spans.span(\"server.op\", ctx)\n")
    report = lint_one("src/repro/cacheserver/handlers2.py", source,
                      "OBS003")
    found = hits(report, "OBS003")
    assert len(found) == 1
    assert "with" in found[0].message


def test_obs003_flags_non_slice_span_name():
    source = ("def handle(self, ctx):\n"
              "    with self.spans.span(\"server.request\", ctx):\n"
              "        pass\n")
    report = lint_one("src/repro/cacheserver/handlers2.py", source,
                      "OBS003")
    found = hits(report, "OBS003")
    assert len(found) == 1
    assert "server.request" in found[0].message


def test_obs003_with_statement_slice_name_is_clean():
    source = ("def handle(self, ctx):\n"
              "    with self.spans.span(\"server.op\", ctx) as span:\n"
              "        span[\"status\"] = \"ok\"\n")
    report = lint_one("src/repro/cacheserver/handlers2.py", source,
                      "OBS003")
    assert report.ok


def test_obs003_dynamic_names_and_other_span_calls_are_skipped():
    # a dynamic name is runtime-checked; a bare span() function (no
    # receiver) is not the SpanBuffer API
    source = ("def handle(self, ctx, name):\n"
              "    with self.spans.span(name, ctx):\n"
              "        pass\n"
              "    span(\"server.request\")\n")
    report = lint_one("src/repro/cacheserver/handlers2.py", source,
                      "OBS003")
    assert report.ok


# -- EXC001: silent broad excepts ------------------------------------------------


def test_exc001_flags_silent_broad_except():
    source = ("def ping(probe):\n"
              "    try:\n"
              "        probe()\n"
              "        return True\n"
              "    except Exception:\n"
              "        return False\n")
    report = lint_one("src/repro/persist/probe2.py", source, "EXC001")
    assert len(hits(report, "EXC001")) == 1


def test_exc001_logging_the_failure_is_clean():
    source = ("def ping(probe, log):\n"
              "    try:\n"
              "        probe()\n"
              "        return True\n"
              "    except Exception as error:\n"
              "        log.debug(\"ping failed: %s\", error)\n"
              "        return False\n")
    report = lint_one("src/repro/persist/probe2.py", source, "EXC001")
    assert report.ok


def test_exc001_reraise_is_clean():
    source = ("def ping(probe):\n"
              "    try:\n"
              "        probe()\n"
              "    except Exception:\n"
              "        raise\n")
    report = lint_one("src/repro/persist/probe2.py", source, "EXC001")
    assert report.ok


def test_exc001_narrow_handlers_are_out_of_scope():
    source = ("def ping(probe):\n"
              "    try:\n"
              "        probe()\n"
              "    except OSError:\n"
              "        pass\n")
    report = lint_one("src/repro/persist/probe2.py", source, "EXC001")
    assert report.ok


# -- style pack -------------------------------------------------------------------


def test_f401_flags_unused_import():
    source = "import os\n\nx = 1\n"
    report = lint_one("src/repro/vmm/mod2.py", source, "F401")
    assert len(hits(report, "F401")) == 1


def test_f401_used_import_is_clean():
    source = "import os\n\nx = os.sep\n"
    report = lint_one("src/repro/vmm/mod2.py", source, "F401")
    assert report.ok


def test_e501_flags_overlong_lines():
    source = "x = 1  # " + "y" * 120 + "\n"
    report = lint_one("src/repro/vmm/mod2.py", source, "E501")
    assert len(hits(report, "E501")) == 1


def test_w291_and_w191():
    source = "x = 1   \nif x:\n\ty = 2\n"
    engine = LintEngine(rules=["W291", "W191"])
    report = engine.lint_sources({"src/repro/vmm/mod2.py": source})
    assert len(hits(report, "W291")) == 1
    assert len(hits(report, "W191")) == 1


# -- suppressions ------------------------------------------------------------------


def test_inline_suppression_same_line():
    source = ("import time\n\n\ndef step():\n"
              "    return time.time()  # reprolint: disable=DET001\n")
    report = lint_one("src/repro/vmm/sim.py", source, "DET001")
    assert report.ok
    assert report.suppressed == 1


def test_inline_suppression_on_preceding_comment_line():
    source = ("import time\n\n\ndef step():\n"
              "    # reprolint: disable=DET001 - justified here\n"
              "    # (continued justification)\n"
              "    return time.time()\n")
    report = lint_one("src/repro/vmm/sim.py", source, "DET001")
    assert report.ok
    assert report.suppressed == 1


def test_file_level_suppression():
    source = ("# reprolint: disable-file=DET001\n"
              "import time\n\n\ndef step():\n"
              "    return time.time()\n")
    report = lint_one("src/repro/vmm/sim.py", source, "DET001")
    assert report.ok
    assert report.suppressed == 1


def test_suppression_does_not_leak_to_other_rules():
    source = ("import time\n\n\ndef step():\n"
              "    return time.time()  # reprolint: disable=E501\n")
    report = lint_one("src/repro/vmm/sim.py", source, "DET001")
    assert len(hits(report, "DET001")) == 1


# -- module identity -----------------------------------------------------------------


def test_package_detection():
    module = ModuleInfo("src/repro/persist/lease.py", "x = 1\n")
    assert module.package == ("persist", "lease")
    assert module.rel == "repro/persist/lease.py"
    assert module.in_package("persist", "cacheserver")

    outside = ModuleInfo("tests/test_foo.py", "x = 1\n")
    assert outside.package == ()
    assert not outside.in_package("persist")


# -- the live tree and the CLI ---------------------------------------------------------


def test_live_tree_is_clean():
    """The shipped tree passes its own gate."""
    engine = LintEngine()
    report = engine.lint_paths([REPO / "src", REPO / "tests",
                                REPO / "tools"])
    assert report.ok, "\n" + report.format()


def test_cli_json_report(capsys):
    from repro.cli import main
    code = main(["lint", "--json", str(REPO / "src" / "repro" / "lint")])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["ok"] is True
    assert payload["files"] > 0


def test_cli_list_rules(capsys):
    from repro.cli import main
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "DET001" in out and "FLT001" in out


def test_chaos_preflight_passes_on_live_tree():
    sys.path.insert(0, str(REPO / "tools"))
    try:
        import drills
        assert drills.preflight_fault_sites() == 0
    finally:
        sys.path.remove(str(REPO / "tools"))
