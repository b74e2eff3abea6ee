"""Fleet harness: grids, engine determinism, reports, export, CLI.

The fleet engine's acceptance bar is stricter than "the herd boots":
reports must be byte-identical across runs at the same seed (under
real process concurrency), every instance must match the fault-free
architected baseline, and the shared-image amortization curve must
show later boot ranks starting cheaper than rank 0.
"""

import json
import os
import sys
from pathlib import Path

import pytest

from repro.fleet import (
    AXIS_ORDER,
    BOOT_POLICIES,
    IMAGE_POLICIES,
    SCHEMA,
    FleetEngine,
    FleetReport,
    FleetScenario,
    amortization_gain,
    build_report,
    expand_grid,
    export_fleet_trace,
    perturb_source,
    run_sweep,
    serialize_report,
    steady_state_cycle,
    validate_report,
)
from repro.cluster import LocalCluster
from repro.core.config import resolve_config
from repro.core.vm import CoDesignedVM
from repro.fleet import engine as fleet_engine
from repro.fleet.engine import _boot_instance
from repro.isa.x86lite import assemble
from repro.obs.export import validate_trace
from repro.persist import (
    RemoteRepository,
    capture_translations,
    config_fingerprint,
    image_fingerprint,
)
from repro.workloads.programs import PROGRAMS


def boot(n=3, **overrides):
    """Boot one small fleet and return its FleetResult."""
    params = dict(n=n, workload="fibonacci", workers=n)
    params.update(overrides)
    return FleetEngine().run(FleetScenario(**params))


@pytest.fixture(scope="module")
def shared_fleets():
    """One cold and one staged fleet, reused by the report tests."""
    return {
        "all_at_once": boot(boot_policy="all_at_once"),
        "one_then_others": boot(boot_policy="one_then_others"),
    }


class TestGrid:
    def test_expansion_covers_the_product(self):
        scenarios = expand_grid({"n": [2, 3],
                                 "boot_policy": BOOT_POLICIES,
                                 "image_policy": IMAGE_POLICIES})
        assert len(scenarios) == 2 * 2 * 2
        assert len(set(s.label() for s in scenarios)) == len(scenarios)

    def test_expansion_order_is_axis_order_not_mapping_order(self):
        # mapping lists image_policy first; n must still vary outermost
        scenarios = expand_grid({"image_policy": IMAGE_POLICIES,
                                 "n": [2, 3]})
        assert [(s.n, s.image_policy) for s in scenarios] == [
            (2, "one"), (2, "one_per_vm"),
            (3, "one"), (3, "one_per_vm")]
        assert AXIS_ORDER.index("n") < AXIS_ORDER.index("image_policy")

    def test_fixed_values_apply_to_every_scenario(self):
        scenarios = expand_grid({"n": [2, 3]}, workers=2,
                                hot_threshold=5)
        assert all(s.workers == 2 and s.hot_threshold == 5
                   for s in scenarios)

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValueError, match="unknown grid axis"):
            expand_grid({"boot_polcy": BOOT_POLICIES})

    def test_unknown_fixed_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            expand_grid({"n": [2]}, wrokers=4)

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="no values"):
            expand_grid({"n": []})

    def test_bad_policies_rejected(self):
        with pytest.raises(ValueError, match="boot policy"):
            FleetScenario(boot_policy="sometimes")
        with pytest.raises(ValueError, match="image policy"):
            FleetScenario(image_policy="several")
        with pytest.raises(ValueError, match="fleet size"):
            FleetScenario(n=0)

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match=f"workers={workers}"):
            FleetScenario(workers=workers)

    def test_canonical_dict_is_axes_only(self):
        doc = FleetScenario(workers=3, hot_threshold=5).to_dict()
        # non-cluster (1x1) scenarios keep their exact pre-cluster
        # keys so existing reports stay byte-identical
        assert sorted(doc) == sorted(
            axis for axis in AXIS_ORDER
            if axis not in ("shards", "replicas"))
        assert "workers" not in doc and "hot_threshold" not in doc
        clustered = FleetScenario(shards=2, replicas=2).to_dict()
        assert sorted(clustered) == sorted(AXIS_ORDER)


class TestPerturbSource:
    def test_ranks_get_distinct_fingerprints(self):
        gold = PROGRAMS["fibonacci"]
        fps = {image_fingerprint(assemble(
            perturb_source(gold, rank, seed=0))) for rank in range(8)}
        assert len(fps) == 8
        assert image_fingerprint(assemble(gold)) not in fps

    def test_seed_changes_the_fingerprints(self):
        gold = PROGRAMS["fibonacci"]
        one = image_fingerprint(assemble(perturb_source(gold, 1, 0)))
        two = image_fingerprint(assemble(perturb_source(gold, 1, 9)))
        assert one != two

    def test_padding_is_architecturally_invisible(self):
        from repro.core.vm import CoDesignedVM
        gold = PROGRAMS["fibonacci"]
        config = resolve_config("soft")
        outcomes = []
        for source in (gold, perturb_source(gold, 3, seed=7)):
            vm = CoDesignedVM(config, hot_threshold=20)
            vm.load(assemble(source))
            vm.run()
            state = vm.state
            outcomes.append((state.exit_code, list(state.output),
                             list(state.regs),
                             (state.cf, state.zf, state.sf, state.of)))
        assert outcomes[0] == outcomes[1]


class TestSteadyState:
    def test_translation_slices_extend_steady_state(self):
        events = [
            {"name": "translate.bbt", "ts": 10.0, "dur": 5.0},
            {"name": "run.interp", "ts": 100.0, "dur": 900.0},
            {"name": "chain.link", "ts": 40.0},
        ]
        assert steady_state_cycle(events) == 40.0

    def test_no_transient_means_steady_from_zero(self):
        assert steady_state_cycle(
            [{"name": "run.interp", "ts": 0.0, "dur": 100.0}]) == 0.0


class TestFleetEngine:
    def test_all_at_once_shared_image(self, shared_fleets):
        result = shared_fleets["all_at_once"]
        assert result.arch_ok
        assert len(result.instances) == 3
        # the whole herd boots against an empty store: every rank
        # translates cold and pays the identical simulated transient
        assert all(i.records_loaded == 0 for i in result.instances)
        assert len({i.tts_cycles for i in result.instances}) == 1
        assert result.instances[0].tts_cycles > 0
        # engine publishes in rank order: rank 0 writes every object,
        # the rest dedup completely
        assert result.instances[0].push_written > 0
        for later in result.instances[1:]:
            assert later.push_written == 0
            assert later.push_deduped > 0

    def test_one_then_others_amortizes(self, shared_fleets):
        result = shared_fleets["one_then_others"]
        assert result.arch_ok
        rank0 = result.instances[0]
        assert rank0.records_loaded == 0
        assert rank0.push_written > 0
        for later in result.instances[1:]:
            # the herd pulls rank 0's translations: no cold work
            assert later.records_loaded > 0
            assert later.blocks_translated == 0
            assert later.tts_cycles < rank0.tts_cycles
            # ... and capture nothing their pull lacked: no push
            assert later.push_written == later.push_deduped == 0
            assert later.remote["records_pushed"] == 0
        # the one push request is rank 0's (1x1: one server)
        assert result.server["requests"]["push"] == 1
        assert result.server["records_received"] == \
            rank0.remote["records_pushed"] == rank0.push_written

    def test_a_follower_pushes_what_its_pull_lacked(self, tmp_path):
        """A store missing one of rank 0's records: the follower loads
        the rest, translates the missing block itself and pushes only
        the record it made, which the store did not hold."""
        scenario = FleetScenario(n=2, workload="fibonacci")
        image = assemble(PROGRAMS[scenario.workload])
        vm = CoDesignedVM(resolve_config(scenario.config),
                          hot_threshold=scenario.hot_threshold)
        vm.load(image)
        vm.run(max_instructions=scenario.max_instructions)
        records = capture_translations(vm.runtime.directory,
                                       vm.state.memory)
        missing, held = records[0], records[1:]
        with LocalCluster(tmp_path / "grid", shards=1,
                          replicas=1) as grid:
            client = RemoteRepository(grid.spec(), local=None)
            try:
                client.save(held, config_fingerprint(vm.config),
                            image_fingerprint(image))
                follower = _boot_instance(scenario, 1, image,
                                          grid.spec().to_string())
                assert follower.records_loaded == len(held)
                assert follower.blocks_translated == 1
                assert [record["key"] for record in follower.records] \
                    == [missing["key"]]
                FleetEngine._publish(follower, client)
            finally:
                client.close()
            server = grid.servers["shard0", 0].stats.to_dict()
        assert (follower.push_written, follower.push_deduped) == (1, 0)
        assert follower.remote["records_pushed"] == 1
        assert server["requests"]["push"] == 2
        assert server["records_received"] == len(held) + 1

    def test_one_per_vm_defeats_sharing(self):
        for boot_policy in BOOT_POLICIES:
            result = boot(boot_policy=boot_policy,
                          image_policy="one_per_vm")
            assert result.arch_ok
            fps = {i.image_fp for i in result.instances}
            assert len(fps) == len(result.instances)
            # distinct images: nobody warm-starts from rank 0's
            # manifest
            assert all(i.records_loaded == 0 for i in result.instances)
            assert all(i.tts_cycles == result.instances[0].tts_cycles
                       for i in result.instances)
            assert validate_report(build_report([result])) == []

    def test_warm_repository_short_circuits_the_transient(
            self, shared_fleets):
        result = boot(warm=True)
        assert result.arch_ok
        cold = shared_fleets["all_at_once"]
        for instance in result.instances:
            assert instance.records_loaded > 0
            assert instance.blocks_translated == 0
            assert instance.tts_cycles < cold.instances[0].tts_cycles

    def test_reports_are_byte_identical_across_runs(self):
        for policy, seed in (("all_at_once", 11), ("one_then_others", 5)):
            scenario = FleetScenario(n=3, boot_policy=policy, workers=3,
                                     seed=seed)
            first = serialize_report(
                build_report([FleetEngine().run(scenario)]))
            second = serialize_report(
                build_report([FleetEngine().run(scenario)]))
            assert first == second

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            boot(workload="doom")

    def test_server_load_is_deterministic(self, shared_fleets):
        server = shared_fleets["all_at_once"].server
        n = len(shared_fleets["all_at_once"].instances)
        # n instance clients + the engine's push client
        assert server["connections"] == n + 1
        assert server["requests"]["pull"] == n
        assert server["requests"]["push"] == n
        assert server["errors"] == 0


def assert_no_child_left():
    """Every boot process the engine forked has been reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBootProcesses:
    """The herd boots on ``workers`` forked processes: what they hand
    back does not depend on how many there are, a child's failure
    reaches the caller, and none outlives ``FleetEngine.run``."""

    def test_reports_do_not_depend_on_the_process_count(self):
        for policy in BOOT_POLICIES:
            reports = {workers: serialize_report(build_report(
                [boot(n=4, boot_policy=policy, workers=workers)]))
                for workers in (1, 2, 3)}
            assert reports[1] == reports[2] == reports[3], policy
        assert_no_child_left()

    def test_a_child_failure_names_its_rank(self, monkeypatch):
        real = fleet_engine._boot_instance

        def failing(scenario, rank, image, cluster):
            if rank == 2:
                raise RuntimeError("boot broke")
            return real(scenario, rank, image, cluster)

        monkeypatch.setattr(fleet_engine, "_boot_instance", failing)
        with pytest.raises(RuntimeError,
                           match="fleet instance 2 failed.*boot broke"):
            boot(n=4, workers=2)
        assert_no_child_left()

    def test_the_parent_failing_reaps_its_unreleased_children(
            self, monkeypatch):
        def broken(scenario, gold):
            raise RuntimeError("baseline broke")

        monkeypatch.setattr(FleetEngine, "_baseline", staticmethod(broken))
        with pytest.raises(RuntimeError, match="baseline broke"):
            boot(n=4, workers=3)
        assert_no_child_left()


class TestFleetReport:
    def test_report_validates(self, shared_fleets):
        report = build_report(list(shared_fleets.values()))
        assert validate_report(report) == []
        assert report["schema"] == SCHEMA
        assert len(report["fleets"]) == 2

    def test_percentiles_are_monotone(self, shared_fleets):
        entry = build_report(
            [shared_fleets["one_then_others"]])["fleets"][0]
        tts = entry["tts"]
        assert tts["count"] == 3
        assert tts["p50"] <= tts["p95"] <= tts["p99"]
        assert tts["min"] <= tts["mean"] <= tts["max"]

    def test_amortization_gain_exceeds_one_when_shared(
            self, shared_fleets):
        staged = build_report(
            [shared_fleets["one_then_others"]])["fleets"][0]
        flat = build_report(
            [shared_fleets["all_at_once"]])["fleets"][0]
        assert amortization_gain(staged) > 1.0
        assert amortization_gain(flat) == pytest.approx(1.0)

    def test_degradation_summary_all_zero_when_healthy(
            self, shared_fleets):
        entry = build_report(
            [shared_fleets["all_at_once"]])["fleets"][0]
        assert all(count == 0 for count in entry["degraded"].values())

    def test_canonical_report_has_no_wall_clock(self, shared_fleets):
        text = serialize_report(
            build_report(list(shared_fleets.values())))
        assert "latency" not in text
        assert "wall_ms" not in text
        # non-canonical keeps both, for humans
        loose = build_report(list(shared_fleets.values()),
                             canonical=False)
        assert "latency" in loose["fleets"][0]["server"]

    def test_format_mentions_the_headline_numbers(self, shared_fleets):
        report = FleetReport.from_results(
            [shared_fleets["one_then_others"]])
        text = report.format()
        assert "steady-state cycles" in text
        assert "amortization gain" in text
        assert "arch_ok: True" in text

    def test_write_and_rehydrate(self, shared_fleets, tmp_path):
        report = FleetReport.from_results(
            [shared_fleets["all_at_once"]])
        path = tmp_path / "fleet.json"
        report.write(path)
        doc = json.loads(path.read_text())
        assert validate_report(doc) == []
        assert FleetReport(doc).format() == report.format()

    def test_validation_catches_damage(self, shared_fleets):
        report = build_report([shared_fleets["all_at_once"]])
        report = json.loads(json.dumps(report))   # deep copy
        report["schema"] = "repro.fleet/v0"
        report["fleets"][0]["amortization"].pop()
        report["fleets"][0]["arch_ok"] = False
        problems = validate_report(report)
        assert any("schema" in p for p in problems)
        assert any("amortization" in p for p in problems)
        assert any("architected divergence" in p for p in problems)


class TestFleetExport:
    def test_export_passes_trace_validation(self, shared_fleets):
        doc = export_fleet_trace(shared_fleets["one_then_others"])
        assert validate_trace(doc) == []
        assert doc["metadata"]["clock"] == "simulated-cycles"

    def test_fleet_lane_summarizes_every_rank(self, shared_fleets):
        result = shared_fleets["one_then_others"]
        doc = export_fleet_trace(result)
        lane = [e for e in doc["traceEvents"] if e["pid"] == 0]
        boots = [e for e in lane if e["name"] == "fleet.boot"]
        steadies = [e for e in lane if e["name"] == "fleet.steady"]
        assert len(boots) == len(steadies) == len(result.instances)
        by_rank = {e["args"]["rank"]: e["dur"] for e in boots}
        assert by_rank[1] < by_rank[0]
        # every instance got its own process lane
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == set(range(len(result.instances) + 1))


class TestFleetCLI:
    def test_run_then_report_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "fleet.json"
        code = main(["fleet", "run", "--n", "2", "--workers", "2",
                     "--out", str(out)])
        assert code == 0
        assert validate_report(json.loads(out.read_text())) == []
        text = capsys.readouterr().out
        assert "steady-state cycles" in text
        assert str(out) in text

        assert main(["fleet", "report", str(out)]) == 0
        assert "arch_ok: True" in capsys.readouterr().out

    def test_sweep_writes_trace_and_report(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "sweep.json"
        trace = tmp_path / "fleet.trace.json"
        code = main(["fleet", "sweep", "--n", "2", "--workers", "2",
                     "--boot-policy", "one_then_others",
                     "--image-policy", "one",
                     "--out", str(out), "--trace-out", str(trace)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert validate_report(doc) == []
        assert len(doc["fleets"]) == 1
        assert validate_trace(json.loads(trace.read_text())) == []

    def test_bad_axis_value_is_a_clean_exit(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="boot policy"):
            main(["fleet", "run", "--boot-policy", "sometimes"])

    def test_workers_below_one_is_a_clean_exit(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="workers=0"):
            main(["fleet", "run", "--n", "2", "--workers", "0"])

    def test_report_requires_a_file(self):
        from repro.cli import main
        with pytest.raises(SystemExit, match="report"):
            main(["fleet", "report"])


def test_a_herd_writes_only_what_changes_its_stores():
    """``tools/callcounts.py herd``, the benchmark's herd at seed 0:
    46 new records (the leader's 23, on both replicas of their group) in
    one pack per replica that got any, and the manifests and indexes
    they change.  The leader's push is the only one: a follower's warm
    start installed every record it captures, so it pushes nothing, and
    the pulls that change nothing write nothing."""
    repo = Path(__file__).resolve().parent.parent
    before = list(sys.path)
    try:
        sys.path.insert(0, str(repo / "tools"))
        import callcounts
    finally:
        sys.path[:] = before
    assert callcounts.herd_counts() == {
        "journaled writes": 12, "os.fsync": 12, "meta reads": 26,
        "lease attempts": 4, "requests dispatched": 28,
        "connections accepted": 28, "packs written": 4,
        "records written": 46, "records received": 46}
