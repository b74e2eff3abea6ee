"""Self-test of the benchmark's own parts: ``python perf/selftest.py``.

Plain asserts on synthetic samples, no test runner: the estimators of
``stats.py``, the span arithmetic of ``spans.py``, the verdicts of
``compare.py``, the agreement of ``BENCHMARK.json`` with the workloads
in the code, and the program generator's own check.  The file
name keeps it out of the repository's tier-1 collection.
"""

from __future__ import annotations

import sys

import paths


def expect(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {what}")


def test_stats() -> None:
    import stats
    expect(stats.calibration_kernel(1000) == stats.calibration_kernel(1000),
           "calibration kernel is deterministic")
    wall, user = stats.calibrate()
    expect(wall > 0 and 0 < user <= wall * 1.5,
           "calibration takes time, nearly all of it in user mode")
    values = [float(v) for v in range(1, 12)]           # 1..11
    expect(stats.quartiles(values) == (3.0, 6.0, 9.0), "quartiles of 1..11")
    expect(abs(stats.spread(values) - 1.0) < 1e-12, "spread of 1..11")
    expect(stats.quartiles([5.0]) == (5.0, 5.0, 5.0), "single value")
    # a slow period doubles operation and calibration alike: the median
    # of per-operation ratios does not see it, the median of raw times
    # does
    paths.add_src()
    from workloads import SampleResult
    ratios, raw, rows = [], [], []
    for seconds, kernel in ((1.0, 0.1), (1.0, 0.1), (2.0, 0.2),
                            (2.0, 0.2), (2.0, 0.2)):
        result = SampleResult()
        # clocks are (wall, user) pairs; here 70 % of the operation's
        # time is user-mode, and all of the kernel's
        result.record("boot", (seconds, 0.7 * seconds),
                      before=(kernel, kernel), after=(kernel, kernel))
        ratios.append(result.timings["boot"]["cu"])
        raw.append(result.timings["boot"]["s"])
        rows.append(result.timings)
    expect(abs(stats.median(ratios) - 10.0) < 1e-9,
           "median of ratios cancels common drift")
    expect(stats.median(raw) == 2.0, "raw median follows the drift")
    import harness
    expect(abs(harness.user_cu(rows, "boot") - 7.0) < 1e-9,
           "user-mode cu: user seconds over the kernel's, warm-up dropped")
    result.record("boot", (12.0, 6.0), before=(0.1, 0.1), after=(0.3, 0.3),
                  divisor=12)
    expect(abs(result.timings["boot"]["cu"] - 5.0) < 1e-9
           and abs(result.timings["boot"]["user_s"] - 0.5) < 1e-9,
           "calibration is the mean of before and after; divisor applied")
    first = result.timings["boot"]
    result.record("boot", (36.0, 6.0), before=(0.2, 0.2), after=(0.2, 0.2),
                  divisor=12)
    from workloads import mean_timing
    expect(abs(mean_timing([first, result.timings["boot"]])["cu"] - 10.0)
           < 1e-9, "a repeated operation counts with the mean of its repeats")
    # tail rule: the highest percentile with >= 10 samples beyond it
    expect(stats.tail(list(range(39))) is None, "39 samples: no tail")
    expect(stats.tail(list(range(40)))[0] == 75, "40 samples: p75")
    expect(stats.tail(list(range(100)))[0] == 90, "100 samples: p90")
    expect(stats.tail(list(range(200)))[0] == 95, "200 samples: p95")
    expect(stats.tail(list(range(1000)))[0] == 99, "1000 samples: p99")
    expect(stats.tail(list(range(100)))[1] == 89, "p90 of 0..99")
    expect(stats.percentile([3, 1, 2], 50) == 2, "nearest-rank median")
    expect(stats.drop_warmup([9, 9, 1, 1], 2) == [1, 1], "warm-up dropped")
    expect(stats.drop_warmup([9], 2) == [9], "short run keeps its sample")


def test_spans() -> None:
    from spans import SpanRecorder
    recorder = SpanRecorder()
    recorder.begin_sample(0)
    with recorder.span("boot"):
        with recorder.span("core.load"):
            pass
        with recorder.span("vmm.run"):
            pass
    boot, load, run = recorder.spans
    expect(boot["parent"] is None and load["parent"] == 0
           and run["parent"] == 0, "parents follow nesting")
    expect(all(span["sample"] == 0 for span in recorder.spans),
           "spans of a sample share its identifier")
    # make the times exact, then check self time = span minus children
    boot.update(start=0.0, end=10.0)
    load.update(start=1.0, end=3.0)
    run.update(start=3.0, end=9.0)
    expect(recorder.self_times() ==
           {"boot": 2.0, "core.load": 2.0, "vmm.run": 6.0},
           "self time is duration minus children")
    expect(recorder.durations("vmm.run") == [6.0], "durations by name")
    recorder.begin_sample(None)
    with recorder.span("replay"):
        with recorder.span("vmm.run"):
            pass
    expect("replay" not in recorder.self_times()
           and recorder.self_times()["vmm.run"] == 6.0
           and set(recorder.self_times(replay=True)) == {"replay", "vmm.run"},
           "replayed spans are a separate account")


def test_compare() -> None:
    import compare

    def suite(boot, blocks=206):
        return {"runs": [
            {"workload": "wide_cold", "traced": False, "metrics": {
                "boot_cu": {"value": value, "unit": "cu"}}}
            for value in boot] + [
            {"workload": "wide_cold", "traced": True, "metrics": {
                "translator.bbt_blocks": {"value": blocks,
                                          "unit": "count"}}}]}
    bounds = {"boot_cu": (0.10, "lower")}
    steady = [10.0, 10.1, 9.9, 10.0, 10.05]
    rows, _ = compare.compare([suite(steady)], [suite(steady)], bounds)
    expect([row["verdict"] for row in rows] == ["ok"], "same runs: ok")
    slower = [value * 1.2 for value in steady]
    rows, _ = compare.compare([suite(steady)], [suite(slower)], bounds)
    expect(rows[0]["verdict"] == "regressed", "20% slower: regressed")
    noisy = [8.0, 12.0, 9.0, 11.5, 10.0]
    rows, _ = compare.compare([suite(noisy)], [suite(noisy)], bounds)
    expect(rows[0]["verdict"] == "unresolved",
           "spread beyond the bound: unresolved")
    _, counts = compare.compare([suite(steady)], [suite(steady, 207)],
                                bounds)
    expect([c["equal"] for c in counts] == [False], "count mismatch seen")


def test_benchmark_json() -> None:
    declared = paths.benchmark_json()
    paths.add_src()
    from workloads import WORKLOADS
    expect([(w["name"], w["why"]) for w in declared["workloads"]]
           == [(name, cls.why) for name, cls in WORKLOADS.items()],
           "BENCHMARK.json workloads match workloads.py")
    names = [m["name"] for m in
             declared["end_to_end"] + declared["per_layer"]]
    expect(len(names) == len(set(names)), "metric names are used once")


def main() -> int:
    test_stats()
    test_spans()
    test_compare()
    test_benchmark_json()
    import gen
    gen.self_check()
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
