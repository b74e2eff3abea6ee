"""Distributed telemetry: trace-context codec, span buffer, the wire
``telemetry`` op, exact snapshot merging and SLOs.

The propagation test is the load-bearing one: a client span id stamped
into a protocol frame must come back as the ``parent`` of a server
span scraped over a real LocalCluster — that parent/child seam is what
the fleet exporter turns into Perfetto flow arrows.
"""

import json

import pytest

from repro.cacheserver import CacheServer, protocol
from repro.cluster import ClusterRepository, LocalCluster
from repro.obs.collector import ClusterCollector
from repro.obs.metrics import Histogram
from repro.obs.slo import (
    DEFAULT_SLOS,
    SLORule,
    evaluate,
    load_slo_file,
    worst_status,
)
from repro.obs.telemetry import (
    TELEMETRY_VERSION,
    SpanBuffer,
    TraceContext,
    derive_span_id,
    histogram_percentile,
    merge_histogram,
    merge_snapshots,
    telemetry_request,
)


class TestTraceContextCodec:
    def test_wire_round_trip(self):
        ctx = TraceContext.for_boot(1234, 3).child(7, ts=42.5)
        assert TraceContext.from_wire(ctx.to_wire()) == ctx

    def test_round_trip_through_protocol_frame(self):
        ctx = TraceContext.for_boot(9, 0, lane="publish")
        frame = protocol.encode_frame({"op": "ping",
                                       "trace_ctx": ctx.to_wire()})
        decoded = protocol.decode_frame(frame)
        assert TraceContext.from_wire(decoded["trace_ctx"]) == ctx

    def test_unknown_version_parses_to_none(self):
        wire = TraceContext.for_boot(1, 0).to_wire()
        wire["v"] = TELEMETRY_VERSION + 1
        assert TraceContext.from_wire(wire) is None

    @pytest.mark.parametrize("mangle", [
        lambda w: w.pop("trace"),
        lambda w: w.__setitem__("trace", 5),
        lambda w: w.__setitem__("span", None),
        lambda w: w.__setitem__("rank", "zero"),
        lambda w: w.__setitem__("rank", True),
        lambda w: w.__setitem__("ts", "now"),
    ])
    def test_malformed_payloads_parse_to_none(self, mangle):
        wire = TraceContext.for_boot(1, 0).to_wire()
        mangle(wire)
        assert TraceContext.from_wire(wire) is None

    def test_non_dict_payloads_parse_to_none(self):
        for payload in (None, [], "ctx", 7):
            assert TraceContext.from_wire(payload) is None

    def test_ids_are_pure_functions_of_inputs(self):
        assert TraceContext.for_boot(5, 2) == TraceContext.for_boot(5, 2)
        assert derive_span_id("t", "p", 3) == derive_span_id("t", "p", 3)
        assert derive_span_id("t", "p", 3) != derive_span_id("t", "p", 4)

    def test_boot_and_publish_lanes_share_a_trace(self):
        boot = TraceContext.for_boot(5, 2)
        publish = TraceContext.for_boot(5, 2, lane="publish")
        assert boot.trace_id == publish.trace_id
        assert boot.span_id != publish.span_id

    def test_child_derives_under_parent_span(self):
        root = TraceContext.for_boot(5, 2)
        child = root.child(11, ts=8.0)
        assert child.trace_id == root.trace_id
        assert child.span_id == derive_span_id(root.trace_id,
                                               root.span_id, 11)
        assert child.ts == 8.0


class TestSpanBuffer:
    def test_span_closes_ok_on_normal_exit(self):
        buffer = SpanBuffer()
        ctx = TraceContext.for_boot(1, 0)
        with buffer.span("server.op", ctx, op="pull") as span:
            span["extra"] = 1
        entries, truncated = buffer.entries()
        assert truncated == 0 and len(entries) == 1
        record = entries[0]
        assert record["status"] == "ok"
        assert record["parent"] == ctx.span_id
        assert record["span"] == derive_span_id(ctx.trace_id,
                                                ctx.span_id, "server")

    def test_span_closes_error_on_exception(self):
        buffer = SpanBuffer()
        with pytest.raises(RuntimeError):
            with buffer.span("server.op", TraceContext.for_boot(1, 0)):
                raise RuntimeError("handler blew up")
        entries, _ = buffer.entries()
        assert entries[0]["status"] == "error"

    def test_non_slice_names_are_rejected(self):
        buffer = SpanBuffer()
        ctx = TraceContext.for_boot(1, 0)
        # "remote.request" is an instant ("i") event, not a slice
        for name in ("remote.request", "no.such.event"):
            with pytest.raises(ValueError):
                with buffer.span(name, ctx):
                    pass
        assert buffer.opened == 0

    def test_capacity_evicts_oldest(self):
        buffer = SpanBuffer(capacity=3)
        root = TraceContext.for_boot(1, 0)
        for seq in range(5):
            with buffer.span("server.op", root.child(seq), op=str(seq)):
                pass
        entries, _ = buffer.entries()
        assert [e["op"] for e in entries] == ["2", "3", "4"]
        assert buffer.opened == 5 and buffer.dropped == 2

    def test_to_wire_truncates_to_newest(self):
        buffer = SpanBuffer(capacity=10)
        root = TraceContext.for_boot(1, 0)
        for seq in range(6):
            with buffer.span("server.op", root.child(seq), op=str(seq)):
                pass
        wire = buffer.to_wire(max_spans=2)
        assert wire["truncated"] == 4
        assert [e["op"] for e in wire["entries"]] == ["4", "5"]
        assert wire["opened"] == 6 and wire["dropped"] == 0


class TestTelemetryWireOp:
    def test_round_trip_over_frames(self, tmp_path):
        server = CacheServer(tmp_path / "repo")
        ctx = TraceContext.for_boot(3, 1).child(0)
        server.dispatch({"op": "ping", "trace_ctx": ctx.to_wire()})
        frame = protocol.encode_frame(
            dict(telemetry_request(), op="telemetry"))
        response = server.dispatch(protocol.decode_frame(frame))
        # the response must itself survive the codec
        response = protocol.decode_frame(protocol.encode_frame(response))
        assert response["ok"]
        assert response["version"] == TELEMETRY_VERSION
        assert response["shard_id"] == server.shard_id
        assert "server_requests" in json.dumps(response["metrics"])
        spans = response["spans"]["entries"]
        assert [s["parent"] for s in spans] == [ctx.span_id]

    def test_unknown_version_is_rejected(self, tmp_path):
        server = CacheServer(tmp_path / "repo")
        response = server.dispatch(
            {"op": "telemetry", "v": TELEMETRY_VERSION + 1})
        assert not response["ok"]
        assert response["error"] == "bad-request"

    def test_oversized_buffer_truncates_in_answer(self, tmp_path):
        server = CacheServer(tmp_path / "repo")
        root = TraceContext.for_boot(3, 1)
        for seq in range(8):
            server.dispatch({"op": "ping",
                             "trace_ctx": root.child(seq).to_wire()})
        request = dict(telemetry_request(max_spans=3), op="telemetry")
        response = server.dispatch(request)
        assert response["spans"]["truncated"] == 5
        assert len(response["spans"]["entries"]) == 3
        # bad max_spans values are rejected, not clamped silently
        for bad in (-1, True, "all"):
            answer = server.dispatch({"op": "telemetry",
                                      "v": TELEMETRY_VERSION,
                                      "max_spans": bad})
            assert not answer["ok"]

    def test_malformed_context_is_ignored_not_fatal(self, tmp_path):
        server = CacheServer(tmp_path / "repo")
        response = server.dispatch({"op": "ping",
                                    "trace_ctx": {"v": 99}})
        assert response["ok"]
        entries, _ = server.spans.entries()
        assert entries == []


class TestClusterPropagation:
    def test_client_span_id_is_server_span_parent(self, tmp_path):
        with LocalCluster(tmp_path / "grid", shards=2,
                          replicas=1) as grid:
            spec = grid.spec()
            client = ClusterRepository(spec, timeout=2.0, retries=1,
                                       sleep=lambda _s: None)
            root = TraceContext.for_boot(77, 0)
            client.bind_trace_context(root)
            try:
                client.load("cfgfp", "imgfp")    # pulls every shard
            finally:
                client.close()
            collector = ClusterCollector(spec, timeout=2.0)
            try:
                collector.scrape()
                spans = collector.span_entries()
            finally:
                collector.close()
        pulls = [s for s in spans if s.get("op") == "pull"]
        assert pulls, "no server pull spans scraped"
        # every server span sits in the client's trace, parented under
        # a span *derived from* the bound root (group lane -> request)
        assert {s["trace"] for s in spans} == {root.trace_id}
        for span in pulls:
            assert span["parent"] != root.span_id
            assert span["span"] == derive_span_id(
                span["trace"], span["parent"], "server")
        # distinct shard groups must not reuse request span ids
        assert len({s["parent"] for s in pulls}) == len(pulls)


class TestExactMerging:
    SAMPLES = [0.5, 1.0, 3.0, 9.0, 17.0, 40.0, 100.0, 900.0]

    def test_merge_matches_single_observer(self):
        whole = Histogram("lat", {})
        parts = [Histogram("lat", {}) for _ in range(3)]
        for index, value in enumerate(self.SAMPLES):
            whole.observe(value)
            parts[index % 3].observe(value)
        merged = merge_histogram([p.snapshot() for p in parts])
        assert merged == whole.snapshot()

    def test_percentile_parity_after_json_round_trip(self):
        whole = Histogram("lat", {})
        for value in self.SAMPLES:
            whole.observe(value)
        snapshot = json.loads(json.dumps(whole.snapshot()))
        for q in (50, 90, 99):
            assert histogram_percentile(snapshot, q) == \
                whole.percentile(q)

    def test_empty_merge_is_empty(self):
        merged = merge_histogram([{}, {"count": 0, "buckets": {}}])
        assert merged["count"] == 0
        assert histogram_percentile(merged, 99) is None

    def test_snapshot_merge_sums_counters_and_merges_histograms(self):
        histogram = Histogram("h", {})
        histogram.observe(4.0)
        merged = merge_snapshots([
            {"requests": 2, "h": histogram.snapshot()},
            {"requests": 3, "errors": 1, "h": histogram.snapshot()},
        ])
        assert merged["requests"] == 5 and merged["errors"] == 1
        assert merged["h"]["count"] == 2


class TestSLOs:
    def test_thresholds_partition_statuses(self):
        rules = [SLORule("r", "x", warn=1.0, fail=4.0)]
        for value, status in ((0.5, "pass"), (2.0, "warn"),
                              (9.0, "fail")):
            verdict = evaluate({"x": value}, rules)[0]
            assert verdict["status"] == status
            assert verdict["burn"] == round(value / 4.0, 4)

    def test_missing_indicator_passes_vacuously(self):
        verdicts = evaluate({}, DEFAULT_SLOS)
        assert worst_status(verdicts) == "pass"
        assert all(v["value"] is None for v in verdicts)

    def test_worst_status_ordering(self):
        assert worst_status([{"status": "pass"},
                             {"status": "fail"},
                             {"status": "warn"}]) == "fail"
        assert worst_status([]) == "pass"

    def test_inverted_thresholds_are_rejected(self):
        with pytest.raises(ValueError):
            SLORule("bad", "x", warn=2.0, fail=1.0)

    def test_load_slo_file(self, tmp_path):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps([
            {"name": "a", "indicator": "x", "warn": 1, "fail": 2},
        ]))
        rules = load_slo_file(path)
        assert rules[0] == SLORule("a", "x", warn=1.0, fail=2.0)
        path.write_text(json.dumps([{"name": "a"}]))
        with pytest.raises(ValueError):
            load_slo_file(path)

