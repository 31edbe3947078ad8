"""Trace record/replay: bit-identical round trips, hostile files
rejected with errors that say what is wrong.

A trace is only useful if replaying it reproduces the recording
exactly — same cycles, same histogram — and if a damaged file fails
loudly instead of replaying something subtly different.  Both halves
are pinned here, plus the integration contract: a registered trace is
a first-class workload, runnable through the engine and the api
facade under its own name.
"""

import hashlib
import json

import pytest

from repro import api
from repro.workloads import engine, trace
from repro.workloads.registry import (WORKLOADS, WorkloadError,
                                      get_workload, unregister)
from repro.workloads.trace import (TraceError, load_trace, record_trace,
                                   register_trace, replay)

BUDGET = 1200
SEED = 7


@pytest.fixture()
def recorded(tmp_path):
    """One recorded trace; unregistered afterwards if a test registered
    it (the registry is process-global)."""
    path = tmp_path / "research.rprt"
    handle, measurement = record_trace("timesharing-research", path,
                                       instructions=BUDGET, seed=SEED)
    yield path, handle, measurement
    for name in [n for n, s in WORKLOADS.items() if s.trace is not None]:
        unregister(name)


class TestRoundTrip:
    def test_recording_is_bit_identical_to_an_unobserved_run(self,
                                                             recorded):
        _, _, measurement = recorded
        plain = engine.run_workload("timesharing-research", BUDGET,
                                    seed=SEED)
        assert measurement.cycles == plain.cycles
        assert measurement.histogram.nonstalled == \
            plain.histogram.nonstalled
        assert measurement.histogram.stalled == plain.histogram.stalled

    def test_replay_matches_the_recording_exactly(self, recorded):
        path, handle, measurement = recorded
        loaded = load_trace(path)
        assert loaded.file_sha256 == handle.file_sha256
        replayed = replay(loaded)
        assert replayed.cycles == measurement.cycles
        assert replayed.histogram.nonstalled == \
            measurement.histogram.nonstalled
        assert replayed.histogram.stalled == \
            measurement.histogram.stalled

    def test_header_self_description(self, recorded):
        path, handle, _ = recorded
        loaded = load_trace(path)
        assert loaded.source == "timesharing-research"
        assert loaded.machine == "vax780"
        assert loaded.seed == SEED
        assert loaded.instructions == BUDGET
        assert loaded.events > 0


class TestRegisteredTrace:
    def test_trace_registers_as_a_runnable_workload(self, recorded):
        path, _, measurement = recorded
        spec = register_trace(path)
        assert spec.name in WORKLOADS
        assert spec.kind == "trace"
        rerun = engine.run_workload(spec.name, BUDGET, seed=SEED)
        assert rerun.cycles == measurement.cycles

    def test_registration_is_idempotent_by_digest(self, recorded):
        path, _, _ = recorded
        first = register_trace(path)
        assert register_trace(path) is first

    def test_trace_runs_through_the_api_facade(self, recorded):
        path, _, measurement = recorded
        spec = register_trace(path)
        result = api.run_workload(spec.name, seed=SEED)
        assert result.cycles == measurement.cycles

    def test_budget_mismatch_is_an_error_not_a_guess(self, recorded):
        path, _, _ = recorded
        spec = register_trace(path)
        with pytest.raises(WorkloadError) as err:
            engine.run_workload(spec.name, BUDGET * 2, seed=SEED)
        assert str(BUDGET) in str(err.value)

    def test_trace_only_runs_on_its_recorded_machine(self, recorded):
        path, _, _ = recorded
        spec = register_trace(path)
        assert not spec.supported_on("uvax78032")
        with pytest.raises(WorkloadError):
            engine.run_workload(spec.name, BUDGET, seed=SEED,
                                machine="uvax78032")


class TestHostileFiles:
    def test_profile_setting_this_build_lacks_is_rejected(self, recorded):
        """``loop_iterations`` was a profile field no generator read; a
        well-formed trace whose profile still carries it is refused by
        name."""
        path, _, _ = recorded
        blob = path.read_bytes()
        _, version, hlen = trace._HEAD.unpack_from(blob)
        start = trace._HEAD.size
        header = json.loads(blob[start:start + hlen])
        header["profile"]["loop_iterations"] = 10
        header_bytes = json.dumps(header).encode()
        prefix = (trace._HEAD.pack(trace.MAGIC, version, len(header_bytes))
                  + header_bytes + blob[start + hlen:-32])
        path.write_bytes(prefix + hashlib.sha256(prefix).digest())
        with pytest.raises(TraceError) as err:
            load_trace(path)
        assert "loop_iterations" in str(err.value)

    def test_truncated_file_is_rejected(self, recorded):
        path, _, _ = recorded
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
        with pytest.raises(TraceError):
            load_trace(path)

    def test_bad_magic_is_rejected(self, recorded):
        path, _, _ = recorded
        data = path.read_bytes()
        path.write_bytes(b"XXXX" + data[4:])
        with pytest.raises(TraceError) as err:
            load_trace(path)
        assert "magic" in str(err.value).lower()

    def test_unknown_version_is_rejected(self, recorded):
        path, _, _ = recorded
        data = bytearray(path.read_bytes())
        data[4] = 0xFF  # version field follows the 4-byte magic
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError) as err:
            load_trace(path)
        assert "version" in str(err.value).lower()

    def test_flipped_payload_bit_is_rejected(self, recorded):
        path, _, _ = recorded
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x01
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_empty_file_is_rejected(self, tmp_path):
        path = tmp_path / "empty.rprt"
        path.write_bytes(b"")
        with pytest.raises(TraceError):
            load_trace(path)

    def test_garbage_is_rejected(self, tmp_path):
        path = tmp_path / "garbage.rprt"
        path.write_bytes(b"\x00" * 256)
        with pytest.raises(TraceError):
            load_trace(path)


class TestApiRecordTrace:
    def test_path_defaults_to_the_workload_name(self, tmp_path,
                                                monkeypatch):
        monkeypatch.chdir(tmp_path)
        result = api.record_trace("rte-educational", smoke=True,
                                  seed=SEED, register=False)
        assert result.path == "rte-educational.rprt"
        assert (tmp_path / "rte-educational.rprt").exists()

    def test_api_record_trace_registers_and_reports(self, tmp_path):
        path = tmp_path / "api.rprt"
        try:
            result = api.record_trace("rte-educational", path=str(path),
                                      smoke=True, seed=SEED)
            assert result.registered
            assert result.source == "rte-educational"
            assert get_workload(result.workload).kind == "trace"
            doc = result.to_json()
            assert doc["file_sha256"] == result.file_sha256
        finally:
            for name in [n for n, s in WORKLOADS.items()
                         if s.trace is not None]:
                unregister(name)
