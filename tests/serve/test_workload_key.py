"""Workload naming in serve request keys: spellings collapse, unknowns
never queue, and the schema bump isolates old keys without touching
anything else.

SERVE_SCHEMA 3 made the workload registry the canonicalizer for every
request that names workloads.  The cache contract that follows: two
payloads asking for the same simulation — full name vs. suffix,
explicit paper five vs. the default — must map to ONE request key,
and a workload the registry does not know must be rejected at parse
time, before the job ever reaches the queue.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.serve import canonical
from repro.serve.canonical import COMMANDS, parse_request, request_key
from repro.workloads.registry import paper_workload_names, workload_names

PAPER = paper_workload_names()
#: Unambiguous suffixes of paper names (each resolves to exactly one).
SUFFIXES = {"timesharing-research": "research",
            "rte-educational": "educational",
            "rte-commercial": "commercial"}


def key_of(command, payload):
    return request_key(COMMANDS[command].from_payload(payload),
                       code="c0")


class TestSpellingsCollapse:
    @settings(max_examples=30, deadline=None)
    @given(name=st.sampled_from(sorted(SUFFIXES)), suffix=st.booleans())
    def test_equivalent_run_workload_spellings_share_a_key(
            self, name, suffix):
        spelling = SUFFIXES[name] if suffix else name
        assert key_of("run-workload", {"workload": spelling}) == \
            key_of("run-workload", {"workload": name})

    @settings(max_examples=20, deadline=None)
    @given(explicit=st.booleans())
    def test_default_characterize_equals_explicit_paper_five(
            self, explicit):
        payload = {"workloads": list(PAPER)} if explicit else {}
        assert key_of("characterize", payload) == \
            key_of("characterize", {})

    def test_workload_order_and_duplicates_canonicalize(self):
        base = key_of("characterize", {"workloads": list(PAPER)})
        dup = key_of("characterize",
                     {"workloads": list(PAPER) + [PAPER[0]]})
        assert dup == base

    def test_different_workload_sets_never_collide(self):
        assert key_of("characterize",
                      {"workloads": ["compiler-build"]}) != \
            key_of("characterize", {"workloads": ["queue-kernel"]})

    def test_validate_workloads_canonicalize_too(self):
        assert key_of("validate",
                      {"smoke": True, "workloads": ["research"]}) == \
            key_of("validate", {"smoke": True,
                                "workloads": [PAPER[0]]})


class TestParseTimeRejection:
    @settings(max_examples=20, deadline=None)
    @given(command=st.sampled_from(["run-workload", "characterize",
                                    "validate"]))
    def test_unknown_workloads_never_queue(self, command):
        payload = {"run-workload": {"workload": "no-such-load"},
                   "characterize": {"workloads": ["no-such-load"]},
                   "validate": {"smoke": True,
                                "workloads": ["no-such-load"]}}[command]
        with pytest.raises(api.ApiError) as err:
            COMMANDS[command].from_payload(payload)
        assert "no-such-load" in str(err.value)

    def test_trace_paths_are_rejected_over_the_wire(self):
        with pytest.raises(api.ApiError) as err:
            COMMANDS["run-workload"].from_payload(
                {"workload": "trace:/tmp/x.rprt"})
        assert "trace" in str(err.value).lower()

    def test_unsupported_workload_machine_pair_is_rejected(self):
        with pytest.raises(api.ApiError):
            COMMANDS["run-workload"].from_payload(
                {"workload": "transaction-decimal",
                 "machine": "uvax78032"})

    def test_empty_workload_list_is_rejected(self):
        with pytest.raises(api.ApiError):
            COMMANDS["characterize"].from_payload({"workloads": []})


class TestSchemaBump:
    def test_schema_is_part_of_every_key(self, monkeypatch):
        """Bumping SERVE_SCHEMA must invalidate every key — and
        nothing else: the canonical payload itself is unchanged."""
        request = COMMANDS["run-workload"].from_payload(
            {"workload": PAPER[0]})
        before = request_key(request, code="c0")
        canonical_before = request.canonical()
        monkeypatch.setattr(canonical, "SERVE_SCHEMA",
                            canonical.SERVE_SCHEMA + 1)
        assert request_key(request, code="c0") != before
        assert request.canonical() == canonical_before

    def test_code_version_is_part_of_every_key(self):
        request = COMMANDS["run-workload"].from_payload(
            {"workload": PAPER[0]})
        assert request_key(request, code="c0") != \
            request_key(request, code="c1")

    def test_parse_request_round_trip(self):
        body = {"command": "run-workload",
                "params": {"workload": SUFFIXES[PAPER[0]]}}
        request = parse_request(body)
        assert request.canonical()["workload"] == PAPER[0]
