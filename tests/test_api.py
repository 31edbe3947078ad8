"""The repro.api facade: typing, identity with the engine, errors."""

import dataclasses
import json

import pytest

from repro import api
from repro.obs.metrics import scoped_registry
from repro.workloads import engine
from repro.workloads.profiles import STANDARD_PROFILES

BUDGET = 1_500


class TestResultContract:
    def test_results_are_frozen(self):
        result = api.profiles()
        with pytest.raises(dataclasses.FrozenInstanceError):
            result.profiles = ()

    def test_to_json_is_serialisable_and_kinded(self):
        result = api.characterize(instructions=BUDGET, table="8")
        doc = result.to_json()
        json.dumps(doc)
        assert doc["kind"] == "CharacterizeResult"
        assert doc["cycles"] == result.cycles

    def test_attachments_stay_out_of_json(self):
        result = api.characterize(instructions=BUDGET, table="8")
        assert result.measurement is not None
        assert "measurement" not in result.to_json()


class TestCharacterize:
    def test_bit_identical_to_engine(self):
        result = api.characterize(instructions=BUDGET, table="8")
        composite = engine.standard_composite(BUDGET)
        assert result.cycles == composite.cycles
        assert result.measurement is composite  # same memoised object

    def test_table_selection(self):
        result = api.characterize(instructions=BUDGET, table=("1", "8"))
        assert [entry["table"] for entry in result.tables] == ["1", "8"]
        assert "TABLE 1" in result.tables[0]["text"]

    def test_unknown_table_rejected_before_running(self):
        with pytest.raises(api.ApiError, match="unknown table '99'"):
            api.characterize(table="99")

    def test_smoke_budget(self):
        result = api.characterize(smoke=True, table="8")
        assert result.instructions == api.SMOKE_INSTRUCTIONS


class TestMalformedInput:
    """Bad shapes raise ApiError naming the valid form, before running."""

    def test_non_string_table_names_the_valid_keys(self):
        with scoped_registry() as registry:
            with pytest.raises(api.ApiError) as exc:
                api.characterize(table=4)
        assert "table" in str(exc.value)
        for key in api.TABLES:
            assert key in str(exc.value)
        assert registry.counter("workloads.runs").value == 0

    def test_non_string_axis_names_the_axis_form(self):
        from repro.explore import runner

        before = runner.SIMULATIONS
        with pytest.raises(api.ApiError, match="NAME=V1,V2"):
            api.explore(axes=[4], store=None)
        assert runner.SIMULATIONS == before

    @pytest.mark.parametrize("call", [
        lambda: api.characterize(instructions=0, table="8"),
        lambda: api.run_workload("research", instructions=-1),
        lambda: api.hotspots(instructions=0),
        lambda: api.explore(smoke=True, instructions=0, store=None),
        lambda: api.ubench(smoke=True, check_instructions=0),
    ], ids=["characterize", "run-workload", "hotspots", "explore",
            "ubench"])
    def test_nonpositive_budget_rejected_before_running(self, call):
        with scoped_registry() as registry:
            with pytest.raises(api.ApiError, match="positive budget"):
                call()
        assert registry.counter("workloads.runs").value == 0

    def test_memory_too_small_for_a_workload_rejected_before_running(self):
        """1 MiB leaves no user page frames above the executive's fixed
        layout: the sweep is refused whole, not five lanes in."""
        with scoped_registry() as registry:
            with pytest.raises(api.ApiError) as exc:
                api.explore(spec="smoke", axes=["memory_bytes=1048576"],
                            store=None)
        message = str(exc.value)
        assert "memory_bytes=1048576" in message
        assert "user page frames" in message
        assert registry.counter("workloads.runs").value == 0

    def test_machine_axis_onto_a_refusing_backend_rejected_before_running(
            self):
        """The MicroVAX implements no packed decimal: the sweep is
        refused as a whole, before any point simulates."""
        with scoped_registry() as registry:
            with pytest.raises(api.ApiError) as exc:
                api.explore(spec="smoke",
                            axes=["machine=uvax78032",
                                  "workload=transaction-decimal"],
                            store=None)
        message = str(exc.value)
        assert "'transaction-decimal'" in message
        assert "'uvax78032'" in message
        for family in ("ADDP", "MOVP", "CMPP", "CVTLP", "CVTPL"):
            assert family in message
        assert registry.counter("workloads.runs").value == 0

    @pytest.mark.parametrize("call", [api.explore, api.refute],
                             ids=["explore", "refute"])
    def test_unusable_store_rejected_before_running(self, call, tmp_path):
        """A store root under a regular file cannot hold records: it is
        refused up front, not at the first write after a simulation."""
        (tmp_path / "file").write_text("")
        root = tmp_path / "file" / "store"
        with scoped_registry() as registry:
            with pytest.raises(api.ApiError) as exc:
                call(smoke=True, store=str(root))
        assert str(root) in str(exc.value)
        assert registry.counter("workloads.runs").value == 0


class TestRunWorkload:
    def test_accepts_name_suffix_and_profile(self):
        by_suffix = api.run_workload("research", instructions=BUDGET)
        by_name = api.run_workload(STANDARD_PROFILES[0].name,
                                   instructions=BUDGET)
        assert by_suffix.profile == by_name.profile
        assert by_suffix.cycles == by_name.cycles

    def test_unknown_profile(self):
        with pytest.raises(api.ApiError, match="unknown workload"):
            api.run_workload("nonexistent")


class TestSmallCommands:
    def test_hotspots_rows_ranked(self):
        result = api.hotspots(instructions=BUDGET, top=5)
        assert len(result.rows) == 5
        cycles = [row["cycles"] for row in result.rows]
        assert cycles == sorted(cycles, reverse=True)
        assert result.total_cycles >= sum(cycles)

    def test_disasm(self):
        result = api.disasm("movl #5, r0\nhalt\n")
        assert any("movl" in line for line in result.lines)
        assert result.to_json()["base"] == 0x200

    def test_figure1(self):
        assert "EBOX" in api.figure1().text

    def test_profiles(self):
        result = api.profiles()
        assert len(result.profiles) == 5
        assert result.profiles[0]["name"] == "timesharing-research"


class TestUbench:
    def test_smoke_suite_ok(self):
        result = api.ubench(smoke=True, check=False)
        assert result.ok
        assert result.failed == ()
        assert result.check_ok is None
        assert result.kernel_count == len(result.results)

    def test_no_matching_kernels(self):
        with pytest.raises(api.ApiError, match="no kernels match"):
            api.ubench(group="bogus", check=False)


class TestExplore:
    def test_unknown_spec(self):
        with pytest.raises(api.ApiError, match="unknown spec"):
            api.explore(spec="nonesuch")

    def test_unknown_axis(self):
        with pytest.raises(api.ApiError, match="unknown axis"):
            api.explore(axes=["cache_size=1,2"])

    def test_points_listing(self, smoke_store):
        listing = api.explore_points(smoke=True, store=smoke_store)
        assert listing.spec == "smoke"
        assert listing.workloads == 5
        assert len(listing.points) == 3
        json.dumps(listing.to_json())

    def test_warm_sweep(self, smoke_sweep, smoke_store):
        result = api.explore(smoke=True, store=smoke_store, jobs=1)
        assert result.stats["simulated"] == 0
        assert result.decode_claim_ok is True
        assert result.ok


class TestValidate:
    def test_smoke_ok(self):
        result = api.validate(smoke=True, fuzz_cases=1,
                              fuzz_instructions=120)
        assert result.ok
        assert result.invariants_ok
        assert result.divergences == 0
        assert result.fuzz_instructions == 120
        assert len(result.reports) == 5

    def test_smoke_caps_fuzz_budget(self):
        result = api.validate(smoke=True, fuzz_cases=0,
                              fuzz_instructions=5_000)
        assert result.fuzz_instructions == 200


class TestPackageFacade:
    def test_lazy_reexports(self):
        import repro

        assert repro.characterize is api.characterize
        assert repro.ApiError is api.ApiError
        assert repro.api is api

    def test_unknown_attribute_still_raises(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_thing


class TestEngineSelection:
    def test_unknown_engine_rejected_before_running(self):
        with pytest.raises(api.ApiError,
                           match="unknown engine 'warp'"):
            api.characterize(smoke=True, engine="warp")

    def test_error_lists_the_valid_engines(self):
        with pytest.raises(api.ApiError,
                           match="scalar, batch, auto"):
            api.explore(smoke=True, engine="warp")

    def test_validate_has_no_auto(self):
        """The fuzzer differences one named engine; auto would hide
        which one a report vouches for."""
        with pytest.raises(api.ApiError, match="unknown engine 'auto'"):
            api.validate(smoke=True, engine="auto")

    def test_characterize_batch_engine_is_bit_identical(self):
        # Fresh seed: neither engine can serve this from the memo cache,
        # so the batch run really simulates and the scalar rerun reads
        # the memo entries the batch engine filled — same keys, same
        # bits (the field-level identity proof lives in tests/batch).
        batch = api.characterize(smoke=True, table="1", seed=4711,
                                 engine="batch")
        scalar = api.characterize(smoke=True, table="1", seed=4711)
        assert scalar.engine == "scalar"
        assert batch.engine == "batch"
        assert batch.cycles == scalar.cycles
        assert batch.tables == scalar.tables

    def test_validate_batch_fuzzer_smoke(self):
        result = api.validate(smoke=True, fuzz_cases=1,
                              fuzz_instructions=120, engine="batch")
        assert result.ok
        assert result.engine == "batch"
        assert result.divergences == 0
