"""The machine field in serve request keys: defaults fold, machines split."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import api
from repro.machines import machine_names
from repro.serve.canonical import COMMANDS, parse_request, request_key

#: The minimum valid payload per command (machine deliberately absent).
BASE_PAYLOADS = {
    "characterize": {},
    "run-workload": {"workload": "rte-educational"},
    "ubench": {"smoke": True},
    "explore": {"smoke": True},
    "validate": {"smoke": True},
}


def key_of(command, payload):
    return request_key(COMMANDS[command].from_payload(payload),
                       code="c0")


class TestMachineKeying:
    @settings(max_examples=20, deadline=None)
    @given(command=st.sampled_from(sorted(BASE_PAYLOADS)),
           spell_default=st.booleans())
    def test_default_machine_spellings_share_a_key(self, command,
                                                   spell_default):
        """Omitting machine, passing None, and naming vax780 are one
        request: the canonical form always carries the resolved name."""
        base = BASE_PAYLOADS[command]
        spelled = dict(base)
        spelled["machine"] = "vax780" if spell_default else None
        assert key_of(command, spelled) == key_of(command, base)

    @settings(max_examples=20, deadline=None)
    @given(command=st.sampled_from(sorted(BASE_PAYLOADS)),
           pair=st.tuples(st.sampled_from(machine_names()),
                          st.sampled_from(machine_names())))
    def test_different_machines_never_collide(self, command, pair):
        first, second = pair
        keys = [key_of(command, dict(BASE_PAYLOADS[command],
                                     machine=name))
                for name in (first, second)]
        assert (keys[0] == keys[1]) == (first == second)

    @pytest.mark.parametrize("command", sorted(BASE_PAYLOADS))
    def test_unknown_machine_is_rejected_at_parse_time(self, command):
        payload = dict(BASE_PAYLOADS[command], machine="pdp11")
        # from_payload canonicalizes eagerly: bad machines never queue
        with pytest.raises(api.ApiError) as err:
            COMMANDS[command].from_payload(payload)
        assert "pdp11" in str(err.value)

    def test_canonical_form_always_names_the_machine(self):
        for command, payload in BASE_PAYLOADS.items():
            canonical = COMMANDS[command].from_payload(
                payload).canonical()
            assert canonical["machine"] == "vax780", command


class TestServeDefaults:
    def test_parse_request_fills_the_server_default_machine(self):
        doc = {"command": "characterize",
               "params": dict(BASE_PAYLOADS["characterize"])}
        request = parse_request(dict(doc), default_machine="uvax78032")
        assert request.canonical()["machine"] == "uvax78032"
        # an explicit machine wins over the server default
        doc["params"]["machine"] = "vax780"
        request = parse_request(doc, default_machine="uvax78032")
        assert request.canonical()["machine"] == "vax780"

    def test_subset_machine_refuses_fuzzing(self):
        with pytest.raises(api.ApiError) as err:
            COMMANDS["validate"].from_payload(
                {"smoke": True, "machine": "uvax78032",
                 "fuzz_cases": 2})
        assert "fuzz" in str(err.value)
