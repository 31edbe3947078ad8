"""Self-tests of the benchmark harness (no simulation; a few seconds).

    PYTHONPATH=src python3 -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import pytest

import pace
import run
import sample
import serve_mix
import spans

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    return run.benchmark_spec()


@pytest.fixture(scope="module")
def catalog():
    return run.metric_catalog()


# -- statistics ---------------------------------------------------------------


def test_quartiles_use_the_exclusive_method():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert run.quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert run.quartiles(values)[1] == statistics.median(values)
    assert run.quartiles([7.5]) == (7.5, 7.5, 7.5)


def test_summary_reports_median_quartiles_and_count():
    out = run.summary([3.0, 1.0, 2.0], "ms")
    assert out["value"] == 2.0 and out["n"] == 3 and out["unit"] == "ms"
    assert out["q1"] <= out["value"] <= out["q3"]


@pytest.mark.parametrize("count, pct, supported", [
    (100, 90, True), (99, 90, False), (200, 95, True), (199, 95, False),
    (20, 50, True), (19, 50, False), (1000, 99, True), (999, 99, False)])
def test_a_percentile_needs_ten_samples_beyond_it(count, pct, supported):
    assert run.tail_supported(count, pct) is supported


def test_an_unsupported_percentile_is_not_reported():
    values = [float(i) for i in range(100)]
    assert run.percentile(values, 90) \
        == statistics.quantiles(values, n=100)[89]
    assert run.percentile(values[:99], 90) is None


# -- span arithmetic ----------------------------------------------------------


def _span(name, start, end, parent, op, **extra):
    return dict(name=name, start=start, end=end, parent=parent, op=op,
                **extra)


SYNTHETIC = [
    _span("api", 0.0, 10.0, None, 0),
    _span("osim.run", 1.0, 4.0, 0, 0, counts=[100, 700] + [0] * 7),
    _span("analysis.capture", 2.0, 3.0, 1, 0),
    _span("osim.run", 5.0, 9.0, 0, 0, counts=[50, 300] + [1] * 7),
    _span("api", 20.0, 21.0, None, 4),
]


def test_self_time_is_duration_minus_direct_children():
    assert spans.self_times(SYNTHETIC) == [3.0, 2.0, 1.0, 4.0, 1.0]


def test_layer_totals_add_up_to_the_root_over_the_chosen_ops():
    totals = spans.layer_totals(SYNTHETIC, {0})
    assert totals == {"api": 3.0, "osim.run": 6.0, "analysis.capture": 1.0}
    assert sum(totals.values()) == SYNTHETIC[0]["end"]
    assert spans.layer_totals(SYNTHETIC)["api"] == 4.0


def test_counter_totals_sum_the_stepping_spans():
    counts = spans.counter_totals(SYNTHETIC, {0})
    assert counts["instructions"] == 150 and counts["cycles"] == 1000
    assert counts["context_switches"] == 1
    assert spans.call_durations(SYNTHETIC, "osim.run") == [3.0, 4.0]


def test_recorder_links_parents_ops_and_threads():
    recorder = spans.Recorder()
    inner = recorder.wrap("inner", lambda: 1)
    outer = recorder.wrap("outer", lambda: inner() + inner())
    assert outer() == 2
    worker = threading.Thread(target=outer)
    worker.start()
    worker.join(10)
    assert not worker.is_alive()
    trace = recorder.spans
    assert [s["name"] for s in trace] == ["outer", "inner", "inner"] * 2
    assert [s["parent"] for s in trace] == [None, 0, 0, None, 3, 3]
    assert [s["op"] for s in trace] == [0, 0, 0, 3, 3, 3]
    own = spans.self_times(trace)
    assert abs(sum(own[:3]) - (trace[0]["end"] - trace[0]["start"])) < 1e-9
    assert all(value >= 0 for value in own)


def test_recorder_keeps_the_span_when_the_call_raises():
    recorder = spans.Recorder()

    def fail():
        raise KeyError("boom")

    with pytest.raises(KeyError):
        recorder.wrap("fail", fail)()
    assert recorder.spans[0]["end"] >= recorder.spans[0]["start"]


# -- host speed ---------------------------------------------------------------


def test_paused_counts_only_the_loop_time_inside_the_interval():
    bursts = [[0.5, 1.5, 0.0], [2.0, 2.5, 0.0], [4.0, 5.0, 0.0]]
    assert pace.paused(bursts, 1.0, 4.5) == pytest.approx(0.5 + 0.5 + 0.5)
    assert pace.paused(bursts, 2.6, 3.9) == 0.0


def test_speed_is_the_reference_over_the_mean_loop_time():
    ref = pace.REFERENCE_S
    bursts = [[0.0, 0.0, ref], [1.0, 1.0, 3 * ref], [9.0, 9.0, 100 * ref]]
    assert pace.speed(bursts, 0.0, 1.0) == pytest.approx(0.5)
    assert pace.speed(bursts, 0.5, 1.5) == pytest.approx(1 / 3)
    with pytest.raises(ValueError):
        pace.speed(bursts, 2.0, 8.0)


def test_at_reference_takes_out_the_loop_and_scales_by_speed():
    bursts = [[1.0, 1.5, 2 * pace.REFERENCE_S]]
    assert pace.at_reference(bursts, 0.0, 4.0) == pytest.approx(3.5 / 2)


def test_the_pacer_runs_the_loop_until_stopped():
    pacer = pace.Pacer()
    previous = signal.getsignal(signal.SIGALRM)
    try:
        pacer.start()
        deadline = time.monotonic() + 10
        while len(pacer.bursts) < 3 and time.monotonic() < deadline:
            time.sleep(pace.PERIOD_S)
    finally:
        pacer.stop()
        signal.signal(signal.SIGALRM, previous)
    ran = len(pacer.bursts)
    assert ran >= 3
    time.sleep(3 * pace.PERIOD_S)
    assert len(pacer.bursts) == ran
    assert all(start <= end and cpu > 0 for start, end, cpu in pacer.bursts)


# -- the serve request stream -------------------------------------------------


def test_request_stream_is_a_function_of_the_seed():
    assert serve_mix.request_stream(1984) == serve_mix.request_stream(1984)
    assert serve_mix.request_stream(1984) != serve_mix.request_stream(2024)


def test_request_stream_mixes_hot_repeats_and_unique_fresh_requests():
    stream = serve_mix.request_stream(7, count=2000)
    keys = [json.dumps(item, sort_keys=True) for item in stream]
    counts = {key: keys.count(key) for key in set(keys)}
    hot = {key for key, seen in counts.items() if seen > 1}
    assert len(hot) == 5
    hot_share = sum(counts[key] for key in hot) / len(stream)
    assert abs(hot_share - serve_mix.HOT_SHARE) < 0.03
    fresh = [item for key, item in zip(keys, stream) if key not in hot]
    assert {params["workload"] for _command, params in fresh} \
        == set(serve_mix.FRESH_WORKLOADS)
    assert all(params["instructions"] == serve_mix.INSTRUCTIONS
               for command, params in stream if command == "run-workload")


# -- BENCHMARK.json and the metric catalog ------------------------------------


def test_benchmark_json_follows_the_schema(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 1 <= len(spec["command"]) <= 32
    assert all(isinstance(part, str) and len(part) <= 200
               and not part.startswith("/") and ".." not in part
               for part in spec["command"])
    assert 1 <= len(spec["paths"]) <= 16
    assert all(PATH.match(path) for path in spec["paths"])
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in spec["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for section in ("workloads", "end_to_end",
                                       "per_layer") for m in spec[section]]
    assert len(names) == len(set(names))
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_benchmark_fits_the_time_cap(spec):
    runs = 4 + 22 * len(spec["workloads"])
    # A run stops starting samples at run_seconds; allow a few seconds
    # for interpreter start and the last sample's overshoot.
    assert runs * (spec["run_seconds"] + 4) <= 3420


def test_workloads_agree_with_the_harness(spec):
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


def test_every_layer_metric_names_what_it_should_move(spec, catalog):
    end_to_end = {m["name"] for m in spec["end_to_end"]} | set(
        catalog["extra"])
    workloads = {w["name"] for w in spec["workloads"]}
    for name, layer in catalog["layers"].items():
        assert NAME.match(name) and UNIT.match(layer["unit"])
        assert layer["better"] in ("lower", "higher") and layer["how"]
        assert layer["moves"], name
        for metric, workload in layer["moves"]:
            assert metric in end_to_end, (name, metric)
            assert workload in workloads, (name, workload)
    for metric in spec["per_layer"]:
        layer = catalog["layers"][metric["name"]]
        assert (layer["unit"], layer["better"]) \
            == (metric["unit"], metric["better"])
    for name, extra in catalog["extra"].items():
        assert NAME.match(name) and UNIT.match(extra["unit"])
        assert extra["better"] in ("lower", "higher")
        assert 0 <= extra["bound"] <= 0.25 and extra["how"]


def test_every_computed_layer_metric_is_catalogued(catalog):
    computed = set(run.SELF_TIMES) | set(run.CALL_TIMES) | set(run.RATES)
    assert computed <= set(catalog["layers"]) | set(catalog["ledger"])


# -- verdicts and the result line ---------------------------------------------


def _metric(values):
    return dict(run.summary(values, "ms"), values=values)


@pytest.mark.parametrize("old, new, better, expect", [
    ([100, 101, 102], [100, 101, 102], "lower", "unchanged"),
    ([100, 101, 102], [120, 121, 122], "lower", "worse"),
    ([100, 101, 102], [80, 81, 82], "lower", "improved"),
    ([100, 101, 102], [80, 81, 82], "higher", "worse"),
    ([60, 100, 140], [62, 101, 139], "lower", "unresolved"),
    ([90, 100, 140], [40, 45, 50], "lower", "improved"),
])
def test_verdict_against_the_bound(old, new, better, expect):
    assert run.verdict(_metric(old), _metric(new), better, 0.1) == expect


def test_a_recorded_run_spread_wider_than_the_bound_is_unresolved():
    same = _metric([100, 101, 102])
    assert run.verdict(same, same, "lower", 0.1, spread=0.05) == "unchanged"
    assert run.verdict(same, same, "lower", 0.1, spread=0.3) == "unresolved"


def test_a_noisy_pooled_percentile_is_never_a_clear_win():
    old, new = {"value": 10.0, "n": 400}, {"value": 5.0, "n": 400}
    assert run.verdict(old, new, "lower", 0.1, spread=0.3) == "unresolved"
    assert run.verdict(old, new, "lower", 0.1, spread=0.05) == "improved"


def test_exact_metrics_show_any_difference():
    assert run.verdict({"value": 0.5}, {"value": 0.5}, "lower", 0) \
        == "unchanged"
    assert run.verdict({"value": 0.5}, {"value": 0.51}, "lower", 0) \
        == "worse"


def _run_doc(kips, cycles, seed=1984):
    entry = {"metrics": {"sim_kips": _metric(kips)}}
    traced = {"exact": {"cpu.cycles": cycles}}
    return {"seed": seed, "passes": {"untraced": {"zoo-uvax": entry},
                                     "traced": {"zoo-uvax": traced}}}


@pytest.mark.parametrize("change, cycles, code, verdicts", [
    ([50, 51, 52], 7, 0, ["unchanged", "unchanged"]),
    ([30, 31, 32], 7, 1, ["worse", "unchanged"]),
    ([50, 51, 52], 8, 1, ["unchanged", "differs"]),
])
def test_compare_reports_each_metric_and_exits_1_on_a_regression(
        tmp_path, capsys, monkeypatch, change, cycles, code, verdicts):
    monkeypatch.setattr(run, "SPREADS", str(tmp_path / "no-spreads.json"))
    parent_path, change_path = tmp_path / "p.json", tmp_path / "c.json"
    parent_path.write_text(json.dumps(_run_doc([50, 51, 52], 7)))
    change_path.write_text(json.dumps(_run_doc(change, cycles)))
    assert run.compare(str(parent_path), str(change_path)) == code
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split()[2] for row in rows] == verdicts


def test_compare_refuses_runs_of_different_seeds(tmp_path):
    parent_path, change_path = tmp_path / "p.json", tmp_path / "c.json"
    parent_path.write_text(json.dumps(_run_doc([50, 51, 52], 7)))
    change_path.write_text(json.dumps(_run_doc([50, 51, 52], 8, seed=2024)))
    assert run.compare(str(parent_path), str(change_path)) == 2


def _traced_sample(coverage):
    """A traced sample whose facade call spends ``coverage`` in a layer."""
    counts = {"instructions": 10, "cycles": 70}
    trace = [_span("api", 0.0, 1.0, None, 0),
             _span("osim.run", 0.0, coverage, 0, 0,
                   counts=[10, 70] + [0] * 7)]
    return {"spans": trace, "miss_ops": [0],
            "expected_counts": counts,
            "registry": dict.fromkeys(sample.REGISTRY_COUNTERS, 0)}


@pytest.mark.parametrize("workload, coverage, flagged", [
    ("paper-composite", 0.99, False), ("paper-composite", 0.9, True),
    ("zoo-uvax", 0.9, True), ("sweep-budget", 0.9, False)])
def test_ledger_coverage_under_95_percent_is_a_problem(
        workload, coverage, flagged):
    row, _calls, problems = run.layer_values(workload,
                                             _traced_sample(coverage))
    assert row["ledger.coverage"] == pytest.approx(coverage)
    assert bool(problems) is flagged


def _spans(start, *lengths):
    """Back-to-back intervals of the given lengths from ``start``."""
    out = []
    for length in lengths:
        out.append([start, start + length])
        start += length
    return out


def _paced_sample(hit_lengths, loop_s):
    """A sample whose reference loop ran in ``loop_s`` every 100 ms."""
    bursts = [[t / 10, t / 10 + 1e-4, loop_s] for t in range(100)]
    return {"spawned": 0.0, "setup_done": 1.0, "work": [1.0, 3.0],
            "miss": [[1.0, 3.0]], "hit": _spans(3.0, *hit_lengths),
            "instructions": 1000, "rss_mb": 50.0, "bursts": bursts}


def test_end_to_end_times_are_at_the_reference_speed(spec, catalog):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({name: m["unit"] for name, m in catalog["extra"].items()})
    # The host ran the loop at half the reference speed, so every time
    # is half its wall time once the loop's own time is taken out.
    doc = _paced_sample([0.002] * 20, 2 * pace.REFERENCE_S)
    out = run.end_to_end("zoo-uvax", [doc], units)
    assert out["host_speed"]["value"] == pytest.approx(0.5)
    assert out["setup_s"]["value"] == pytest.approx((1.0 - 10e-4) / 2)
    assert out["sim_kips"]["value"] == pytest.approx(2 / (2.0 - 20e-4))
    assert out["miss_p50_ms"]["value"] == pytest.approx((2000 - 2) / 2)


def test_hit_mean_is_the_median_of_per_sample_means(spec, catalog):
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({name: m["unit"] for name, m in catalog["extra"].items()})
    docs = [_paced_sample([fast] * 15 + [slow] * 5, pace.REFERENCE_S)
            for fast, slow in ((0.001, 0.004), (0.002, 0.002),
                               (0.001, 0.001))]
    for doc in docs:
        # No run of the reference loop takes time inside a cached call.
        doc["bursts"] = [burst for burst in doc["bursts"]
                         if not 3.0 <= burst[0] <= 3.1]
        doc["bursts"].append([3.0, 3.0, pace.REFERENCE_S])
    out = run.end_to_end("zoo-uvax", docs, units)
    assert out["hit_mean_ms"]["value"] == pytest.approx(1.75)
    assert out["hit_mean_ms"]["values"] == pytest.approx([1.75, 2.0, 1.0])
    assert out["hit_p50_ms"]["value"] == pytest.approx(1.0)
    assert out["hit_p50_ms"]["n"] == 60
    assert out["hit_p95_ms"]["value"] is None


def test_result_line_has_exactly_four_keys(spec):
    entry = {"attempted": 3, "failed": 0, "problems": [],
             "metrics": {"setup_s": {"value": 1.5, "unit": "s"},
                         "miss_p50_ms": {"value": 2.0, "unit": "ms"}}}
    line = run.result_line({False: {"zoo-uvax": entry}}, spec)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True
    assert line["metrics"] == {"setup_s": {"value": 1.5, "unit": "s"}}


def _run_in(directory, seconds):
    return subprocess.run(
        [sys.executable, "benchmarks/perf/run.py", "--workload", "zoo-uvax",
         "--seed", "1", "--seconds", str(seconds), "--trace", "0"],
        cwd=directory, capture_output=True, text=True, timeout=60)


def test_run_refuses_a_directory_without_the_program(tmp_path, spec):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks" / "perf",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_in(tmp_path, spec["run_seconds"])
    assert proc.returncode != 0
    assert "no repro package" in proc.stderr
    assert "correct" not in proc.stdout


def test_run_refuses_another_run_length(spec):
    proc = _run_in(run.ROOT, spec["run_seconds"] + 1)
    assert proc.returncode != 0
    assert "run_seconds" in proc.stderr
    assert "correct" not in proc.stdout
