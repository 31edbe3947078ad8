"""The facade's workload surface: listing, selection, and the
original five-workload contract.

``api.workloads()`` is the registry's public listing;
``characterize(workloads=...)`` composites arbitrary registered sets;
and the acceptance pin of the whole redesign — the default
characterize composite is bit-identical to the pre-registry one — is
checked at smoke scale here (the full-budget pin lives in
``tests/machines/test_analytical.py``).
"""

import pytest

from repro import api
from repro.workloads import engine
from repro.workloads.registry import paper_workload_names

PAPER = paper_workload_names()


class TestWorkloadsListing:
    def test_lists_the_whole_registry(self):
        result = api.workloads()
        assert result.count >= 12
        names = [entry["name"] for entry in result.workloads]
        assert tuple(names[:5]) == PAPER
        assert result.default == PAPER[0]

    def test_entries_carry_kind_and_support(self):
        from repro.machines import MACHINES

        result = api.workloads()
        for entry in result.workloads:
            assert entry["kind"] in ("paper", "generator", "trace")
            assert set(entry["supported"]) == set(MACHINES)

    def test_transaction_decimal_reports_its_requirement(self):
        entry = next(e for e in api.workloads().workloads
                     if e["name"] == "transaction-decimal")
        assert not entry["supported"]["uvax78032"]
        assert "ADDP" in entry["requires_families"]

    def test_to_json_round_trips(self):
        import json

        doc = api.workloads().to_json()
        assert json.loads(json.dumps(doc)) == doc


class TestCharacterizeSelection:
    def test_default_carries_the_paper_five(self):
        result = api.characterize(smoke=True, table="8")
        assert result.workloads == PAPER

    def test_custom_subset_composites_exactly_that_set(self):
        result = api.characterize(smoke=True, table="8",
                                  workloads=("compiler-build",
                                             "queue-kernel"))
        assert result.workloads == ("compiler-build", "queue-kernel")
        a = engine.run_workload("compiler-build", 2_000)
        b = engine.run_workload("queue-kernel", 2_000)
        assert result.cycles == a.cycles + b.cycles

    def test_suffixes_resolve_in_selections(self):
        result = api.characterize(smoke=True, table="8",
                                  workloads=("research",))
        assert result.workloads == ("timesharing-research",)

    def test_all_respects_machine_support(self):
        names = api._workload_names("all", "uvax78032")
        assert "transaction-decimal" not in names
        assert "compiler-build" in names
        assert "transaction-decimal" in api._workload_names("all",
                                                            "vax780")

    def test_refused_pair_is_an_api_error(self):
        with pytest.raises(api.ApiError) as err:
            api.characterize(smoke=True,
                             workloads=("transaction-decimal",),
                             machine="uvax78032")
        assert "transaction-decimal" in str(err.value)

    def test_unknown_selection_is_an_api_error(self):
        with pytest.raises(api.ApiError) as err:
            api.characterize(smoke=True, workloads=("no-such-load",))
        assert "no-such-load" in str(err.value)

    @pytest.mark.parametrize("command", [api.characterize, api.validate])
    def test_empty_selection_is_an_api_error(self, command):
        """Selecting nothing is a bad argument, not an empty success."""
        with pytest.raises(api.ApiError, match="selects no workloads"):
            command(smoke=True, workloads=[])


class TestOriginalCompositeContract:
    def test_default_equals_explicit_paper_five_bitwise(self):
        default = engine.standard_composite(2_000, seed=1984)
        explicit = engine.standard_composite(2_000, seed=1984,
                                             workloads=PAPER)
        assert explicit is default     # same historical memo entry
        assert default.cycles == sum(
            engine.run_workload(name, 2_000, seed=1984).cycles
            for name in PAPER)

    def test_custom_sets_memoise_under_their_own_key(self):
        small = engine.standard_composite(2_000, seed=1984,
                                          workloads=("rte-commercial",))
        again = engine.standard_composite(2_000, seed=1984,
                                          workloads=("rte-commercial",))
        assert small is again
        assert small.cycles == engine.run_workload(
            "rte-commercial", 2_000, seed=1984).cycles


class TestRunWorkloadResult:
    def test_result_reports_the_workload_kind(self):
        paper = api.run_workload("rte-scientific", smoke=True)
        zoo = api.run_workload("cache-thrash", smoke=True)
        assert paper.kind == "paper"
        assert zoo.kind == "generator"
        assert zoo.workload == "cache-thrash" == zoo.profile

    def test_validate_accepts_a_zoo_subset(self):
        result = api.validate(smoke=True, workloads=("tb-thrash",))
        assert result.ok
        assert len(list(result.reports)) == 1
