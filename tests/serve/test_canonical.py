"""Request canonicalization: one key per distinct job, strict errors."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.obs import metrics
from repro.serve import ServeConfig
from repro.serve.canonical import COMMANDS, parse_request, request_key
from repro.serve.server import JobServer

CharacterizeRequest = COMMANDS["characterize"]
ExploreRequest = COMMANDS["explore"]
UbenchRequest = COMMANDS["ubench"]
ValidateRequest = COMMANDS["validate"]

#: Every characterize field at its dataclass default, spelled out.
CHARACTERIZE_DEFAULTS = {
    "instructions": None, "seed": 1984, "jobs": 1, "paranoid": False,
    "table": "all", "smoke": False, "engine": None,
}


def key_of(cls, payload):
    return request_key(cls.from_payload(payload), code="c0")


class TestKeyEquivalence:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_default_vs_explicit_values_same_key(self, data):
        """Omitting a field and spelling out its default are the same
        request — any subset of explicit defaults keys identically."""
        subset = data.draw(st.sets(
            st.sampled_from(sorted(CHARACTERIZE_DEFAULTS))))
        payload = {name: CHARACTERIZE_DEFAULTS[name] for name in subset}
        assert key_of(CharacterizeRequest, payload) == \
            key_of(CharacterizeRequest, dict(CHARACTERIZE_DEFAULTS))

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_field_order_is_irrelevant(self, data):
        items = [("instructions", 4000), ("seed", 7), ("jobs", 2),
                 ("paranoid", False), ("table", "4"), ("smoke", False),
                 ("engine", "batch")]
        shuffled = data.draw(st.permutations(items))
        assert key_of(CharacterizeRequest, dict(shuffled)) == \
            key_of(CharacterizeRequest, dict(items))

    def test_shorthands_resolve_before_keying(self):
        base = key_of(CharacterizeRequest, {})
        # 'all', None, and the explicit full table list are one request;
        # an omitted engine is the scalar engine spelled out.
        assert key_of(CharacterizeRequest, {"table": None}) == base
        assert key_of(CharacterizeRequest,
                      {"table": list(api.TABLES)}) == base
        assert key_of(CharacterizeRequest, {"engine": "scalar"}) == base

    def test_smoke_collapses_into_its_budget(self):
        assert key_of(CharacterizeRequest, {"smoke": True}) == \
            key_of(CharacterizeRequest,
                   {"instructions": api.SMOKE_INSTRUCTIONS})

    def test_result_shaping_fields_are_load_bearing(self):
        base = key_of(CharacterizeRequest, {})
        for payload in ({"seed": 7}, {"instructions": 123},
                        {"table": "4"}, {"jobs": 2},
                        {"engine": "batch"}, {"paranoid": True}):
            assert key_of(CharacterizeRequest, payload) != base, payload

    def test_command_and_code_are_load_bearing(self):
        characterize = key_of(CharacterizeRequest, {"smoke": True})
        validate = key_of(ValidateRequest, {"smoke": True})
        assert characterize != validate
        request = CharacterizeRequest.from_payload({"smoke": True})
        assert request_key(request, code="c0") != \
            request_key(request, code="c1")

    def test_explore_spec_resolution(self):
        # A named spec expands to the same axes/budget/seed as its
        # spelled-out equivalent; only the spec *name* (which appears
        # in the result document) may differ.
        named = ExploreRequest.from_payload({"spec": "smoke"})
        resolved = named.canonical()
        spelled = ExploreRequest.from_payload({
            "spec": "smoke",
            "axes": [f"{name}={','.join(map(str, values))}"
                     for name, values in resolved["axes"]],
            "mode": resolved["mode"],
            "instructions": resolved["instructions"],
            "seed": resolved["seed"],
        }).canonical()
        assert {k: v for k, v in spelled.items() if k != "spec"} \
            == {k: v for k, v in resolved.items() if k != "spec"}
        # Defaults spelled out explicitly still key identically.
        assert request_key(named, code="c") == request_key(
            ExploreRequest.from_payload(
                {"spec": "smoke", "jobs": 1, "engine": "scalar"}),
            code="c")


class TestValidation:
    def test_unknown_field_lists_valid_ones(self):
        with pytest.raises(api.ApiError, match="unknown field.*bogus"):
            CharacterizeRequest.from_payload({"bogus": 1})
        with pytest.raises(api.ApiError, match="valid fields"):
            CharacterizeRequest.from_payload({"bogus": 1})

    def test_bad_types_rejected_up_front(self):
        with pytest.raises(api.ApiError, match="seed"):
            CharacterizeRequest.from_payload({"seed": "soon"})
        with pytest.raises(api.ApiError, match="paranoid"):
            CharacterizeRequest.from_payload({"paranoid": 1})
        with pytest.raises(api.ApiError, match="unknown table"):
            CharacterizeRequest.from_payload({"table": "99"})
        with pytest.raises(api.ApiError, match="unknown engine"):
            CharacterizeRequest.from_payload({"engine": "warp"})

    def test_ubench_empty_selection_rejected(self):
        with pytest.raises(api.ApiError, match="no kernels match"):
            UbenchRequest.from_payload({"group": "nonesuch"})

    def test_explore_onto_a_refusing_backend_rejected_at_parse_time(self):
        """A sweep the worker could only fail is refused at submit."""
        with pytest.raises(api.ApiError, match="does not implement"):
            parse_request({"command": "explore", "params": {
                "spec": "smoke",
                "axes": ["machine=uvax78032",
                         "workload=transaction-decimal"]}})

    def test_validate_rejects_auto_engine(self):
        with pytest.raises(api.ApiError, match="unknown engine"):
            ValidateRequest.from_payload({"engine": "auto"})

    def test_parse_request_strictness(self):
        with pytest.raises(api.ApiError, match="JSON object"):
            parse_request([1, 2])
        with pytest.raises(api.ApiError, match="unknown request key"):
            parse_request({"command": "ubench", "params": {},
                           "priority": 9})
        with pytest.raises(api.ApiError, match="unknown command"):
            parse_request({"command": "mine-bitcoin", "params": {}})

    def test_parse_request_default_engine_injection(self):
        doc = {"command": "characterize", "params": {"smoke": True}}
        plain = parse_request(doc)
        assert plain.canonical()["engine"] == "scalar"
        auto = parse_request(doc, default_engine="auto")
        assert auto.canonical()["engine"] == "auto"
        # An explicit engine wins over the server default.
        explicit = parse_request(
            {"command": "characterize",
             "params": {"smoke": True, "engine": "batch"}},
            default_engine="auto")
        assert explicit.canonical()["engine"] == "batch"
        # Engine-less commands are untouched by the default.
        workload = parse_request(
            {"command": "run-workload",
             "params": {"workload": "timesharing-research", "smoke": True}},
            default_engine="auto")
        assert "engine" not in workload.canonical()


class TestServerRejections:
    """Malformed shapes answer 400 and count as invalid, never 500."""

    @pytest.mark.parametrize("doc, names", [
        ({"command": "characterize", "params": {"table": 4}},
         ["table", "s4", "'all'"]),
        ({"command": "explore", "params": {"axes": [4]}},
         ["axes", "NAME=V1,V2"]),
    ], ids=["table", "axes"])
    def test_malformed_input_answers_400(self, doc, names):
        server = JobServer(ServeConfig(store=None))
        before = metrics.counter("serve.rejected.invalid").value
        status, body, _headers = server.submit(doc)
        assert status == 400
        for name in names:
            assert name in body["error"]
        assert metrics.counter("serve.rejected.invalid").value \
            == before + 1


class TestFusionGroups:
    def test_only_auto_engine_requests_group(self):
        scalar = CharacterizeRequest.from_payload({"smoke": True})
        assert scalar.fusion_group() is None
        auto = CharacterizeRequest.from_payload(
            {"smoke": True, "engine": "auto"})
        assert auto.fusion_group() is not None

    def test_budget_only_difference_shares_a_group(self):
        a = CharacterizeRequest.from_payload(
            {"instructions": 1000, "engine": "auto"})
        b = CharacterizeRequest.from_payload(
            {"instructions": 9000, "engine": "auto"})
        c = CharacterizeRequest.from_payload(
            {"instructions": 9000, "seed": 7, "engine": "auto"})
        assert a.fusion_group() == b.fusion_group()
        assert a.fusion_group() != c.fusion_group()

    def test_commands_registry_is_consistent(self):
        for name, cls in COMMANDS.items():
            assert cls.command == name
        assert sorted(COMMANDS) == ["characterize", "explore",
                                    "run-workload", "ubench",
                                    "validate"]


class TestCanonicalIsJson:
    def test_every_canonical_round_trips_through_json(self):
        requests = [
            CharacterizeRequest.from_payload({"smoke": True}),
            ValidateRequest.from_payload({"smoke": True}),
            UbenchRequest.from_payload({"smoke": True}),
            ExploreRequest.from_payload({"spec": "smoke"}),
            COMMANDS["run-workload"].from_payload(
                {"workload": "timesharing-research", "smoke": True}),
        ]
        for request in requests:
            canonical = request.canonical()
            assert json.loads(json.dumps(canonical)) == canonical
