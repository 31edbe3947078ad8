"""End-to-end observation: artifacts, passivity, the CLI contract.

The load-bearing contract: observing a run must not change a single
simulated count.  The tests here run the composite with and without an
active observation (memo cache cleared in between) and require
bit-identical measurements.
"""

import json

from repro import obs
from repro.cli import main
from repro.obs.metrics import scoped_registry
from repro.workloads import engine

#: A budget no other test module uses, so the cache interplay is ours.
BUDGET = 1_300


def _composite_fingerprint(measurement):
    return (measurement.cycles,
            tuple(measurement.histogram.nonstalled),
            tuple(measurement.histogram.stalled))


class TestPassivity:
    def test_observed_composite_is_bit_identical(self, tmp_path):
        engine.clear_cache()
        try:
            with scoped_registry():
                with obs.observe(tmp_path / "out", label="identity"):
                    observed = _composite_fingerprint(
                        engine.standard_composite(BUDGET))
            engine.clear_cache()
            with scoped_registry():
                plain = _composite_fingerprint(
                    engine.standard_composite(BUDGET))
        finally:
            engine.clear_cache()
        assert observed == plain


class TestArtifacts:
    def test_observe_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "out"
        with scoped_registry():
            with obs.observe(out, label="artifacts") as observation:
                engine.run_workload(
                    engine.paper_workload_names()[0], 1_500)
        assert set(observation.outputs) == {"events", "metrics",
                                            "trace", "flamegraph"}

        records = [json.loads(line) for line in
                   (out / "events.jsonl").read_text().splitlines()]
        names = [r["event"] for r in records]
        assert names[0] == "observation_opened"
        assert names[-1] == "observation_closed"
        assert "workload_started" in names
        assert "workload_finished" in names
        stamps = [r["ts"] for r in records]
        assert stamps == sorted(stamps)

        metrics_doc = json.loads((out / "metrics.json").read_text())
        assert metrics_doc["label"] == "artifacts"
        assert metrics_doc["metrics"]["workloads.runs"]["value"] == 1
        assert metrics_doc["metrics"]["workloads.cycles"]["value"] > 0

        trace = json.loads((out / "trace.json").read_text())
        stamps = [e["ts"] for e in trace["traceEvents"]
                  if e["ph"] != "M"]
        assert stamps == sorted(stamps)

        flame = (out / "flamegraph.collapsed").read_text().splitlines()
        assert flame and all(" " in line for line in flame)

    def test_memo_hits_are_counted_not_rerun(self, tmp_path):
        with scoped_registry():
            with obs.observe(tmp_path / "out",
                             label="memo") as observation:
                first = engine.run_workload(
                    engine.paper_workload_names()[0], 1_500)
                again = engine.run_workload(
                    engine.paper_workload_names()[0], 1_500)
        assert again is first
        snap = observation.registry.snapshot()
        assert snap["workloads.memo_hits"]["value"] >= 1

    def test_emit_is_noop_without_active_observation(self):
        assert obs.active() is None
        obs.emit("ignored", detail=1)  # must not raise


class TestCliObservability:
    def test_characterize_smoke_with_obs(self, tmp_path, capsys):
        out = tmp_path / "obs"
        assert main(["characterize", "--smoke", "--table", "8",
                     "--obs", str(out), "--heartbeat", "30"]) == 0
        captured = capsys.readouterr()
        assert "TABLE 8" in captured.out
        for name in ("events.jsonl", "metrics.json", "trace.json",
                     "flamegraph.collapsed"):
            assert (out / name).exists(), name
        assert "obs: wrote" in captured.err

        # The flamegraph is the smoke composite's exact accounting.
        from repro.analysis.reduction import Reduction

        composite = engine.standard_composite(engine.SMOKE_INSTRUCTIONS)
        total = sum(int(line.rsplit(" ", 1)[1]) for line in
                    (out / "flamegraph.collapsed").read_text()
                    .splitlines())
        assert total == Reduction(composite.histogram).total_cycles()

    def test_validate_smoke_with_obs_sees_fuzz_metrics(self, tmp_path,
                                                       capsys):
        out = tmp_path / "obs"
        assert main(["validate", "--smoke", "--fuzz", "1",
                     "--fuzz-instructions", "120",
                     "--obs", str(out)]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        assert doc["metrics"]["validate.fuzz_cases"]["value"] == 1
        assert "validate.divergences" not in doc["metrics"] or \
            doc["metrics"]["validate.divergences"]["value"] == 0
        events = [json.loads(line) for line in
                  (out / "events.jsonl").read_text().splitlines()]
        assert any(e["event"] == "fuzz_case" for e in events)
        assert any(e["event"] == "run_started"
                   and e["command"] == "validate" for e in events)

    def test_explore_smoke_with_obs_counts_store_traffic(
            self, tmp_path, capsys, smoke_sweep, smoke_store):
        out = tmp_path / "obs"
        assert main(["explore", "--smoke", "--jobs", "1",
                     "--store", str(smoke_store.root),
                     "--obs", str(out)]) == 0
        doc = json.loads((out / "metrics.json").read_text())
        # The session sweep is warm: every lookup hits, nothing runs.
        assert doc["metrics"]["explore.store.hits"]["value"] > 0
        assert "explore.simulations" not in doc["metrics"]
        events = [json.loads(line) for line in
                  (out / "events.jsonl").read_text().splitlines()]
        sweeps = [e for e in events if e["event"] == "sweep_finished"]
        assert sweeps and sweeps[0]["simulated"] == 0
