"""The serve key corpus: committed request keys stay byte-identical.

``key_corpus.json`` records, for a fixed set of submission documents,
the canonical params and the request key (under a pinned code string,
so simulator edits do not move it) that :func:`parse_request` produced
when the corpus was generated.  Any refactor of canonicalization must
reproduce every entry byte for byte; a deliberate change goes through
one ``SERVE_SCHEMA`` bump and a regenerated corpus::

    PYTHONPATH=src python tests/serve/test_key_corpus.py

The corpus also lists payloads that must stay rejected, each with the
substrings its :class:`~repro.api.ApiError` must name.
"""

import json
from pathlib import Path

import pytest

from repro import api
from repro.serve import canonical
from repro.serve.canonical import parse_request, request_key

CORPUS = Path(__file__).with_name("key_corpus.json")
CODE = "corpus"
PAPER = ["timesharing-research", "timesharing-cpu-dev", "rte-educational",
         "rte-scientific", "rte-commercial"]


def _doc(command, params=None, default_engine=None, default_machine=None):
    entry = {"doc": {"command": command, "params": params or {}}}
    if default_engine is not None:
        entry["default_engine"] = default_engine
    if default_machine is not None:
        entry["default_machine"] = default_machine
    return entry


#: Accepted submissions: the empty payload, every field off its
#: default, smoke, and every shorthand spelling, per served command.
ACCEPTED = [
    # characterize
    _doc("characterize"),
    _doc("characterize", {"instructions": 4000, "seed": 7, "jobs": 2,
                          "paranoid": True, "table": ["8", "4"],
                          "smoke": True, "engine": "batch",
                          "machine": "uvax78032",
                          "workloads": ["compiler-build", "queue-kernel"]}),
    _doc("characterize", {"instructions": None, "seed": 1984, "jobs": 1,
                          "paranoid": False, "table": "all",
                          "smoke": False, "engine": None, "machine": None,
                          "workloads": None}),
    _doc("characterize", {"smoke": True}),
    _doc("characterize", {"smoke": True, "table": "4"}),
    _doc("characterize", {"table": "all"}),
    _doc("characterize", {"table": None}),
    _doc("characterize", {"table": ["1", "s4"]}),
    _doc("characterize", {"table": list(api.TABLES)}),
    _doc("characterize", {"table": "8", "instructions": 1500}),
    _doc("characterize", {"workloads": ["research", "educational"]}),
    _doc("characterize", {"workloads": ["compiler-build", "cache-thrash",
                                        "compiler-build"]}),
    _doc("characterize", {"workloads": "all"}),
    _doc("characterize", {"workloads": "all", "machine": "uvax78032"}),
    _doc("characterize", {"workloads": list(PAPER)}),
    _doc("characterize", {"workloads": "queue-kernel"}),
    _doc("characterize", {"engine": None}),
    _doc("characterize", {"engine": "scalar"}),
    _doc("characterize", {"engine": "auto"}),
    _doc("characterize", {"machine": None}),
    _doc("characterize", {"machine": "vax780"}),
    _doc("characterize", {"machine": "uvax78032"}),
    _doc("characterize", {"smoke": True}, default_engine="auto"),
    _doc("characterize", {"engine": "batch"}, default_engine="auto"),
    _doc("characterize", {}, default_machine="uvax78032"),
    _doc("characterize", {"machine": "vax780"},
         default_machine="uvax78032"),
    # run-workload
    _doc("run-workload", {"workload": "timesharing-research"}),
    _doc("run-workload", {"workload": "cache-thrash", "instructions": 3000,
                          "seed": 11, "paranoid": True, "smoke": True,
                          "machine": "uvax78032"}),
    _doc("run-workload", {"workload": "rte-commercial", "smoke": True}),
    _doc("run-workload", {"workload": "research"}),
    _doc("run-workload", {"workload": "educational", "instructions": None,
                          "seed": 1984, "paranoid": False, "smoke": False,
                          "machine": None}),
    _doc("run-workload", {"workload": "queue-kernel", "machine": "vax780"}),
    _doc("run-workload", {"workload": "queue-kernel",
                          "machine": "uvax78032"}),
    _doc("run-workload", {"workload": "tb-thrash"},
         default_engine="auto"),
    _doc("run-workload", {"workload": "tb-thrash"},
         default_machine="uvax78032"),
    # ubench
    _doc("ubench"),
    _doc("ubench", {"group": "simple", "mode": "register",
                    "variant": "warm", "smoke": True, "jobs": 2,
                    "check": False, "check_instructions": 5000,
                    "seed": 7, "machine": "uvax78032"}),
    _doc("ubench", {"smoke": True}),
    _doc("ubench", {"smoke": True, "machine": "vax780"}),
    _doc("ubench", {"group": None, "mode": None, "variant": None,
                    "smoke": False, "jobs": 1, "check": True,
                    "check_instructions": 20000, "seed": 1984,
                    "machine": None}),
    _doc("ubench", {"smoke": True}, default_machine="uvax78032"),
    _doc("ubench", {"smoke": True}, default_engine="auto"),
    # explore
    _doc("explore"),
    _doc("explore", {"spec": "smoke", "axes": ["cache_bytes=4096,8192"],
                     "mode": "cartesian", "instructions": 1000,
                     "seed": 7, "smoke": True, "jobs": 2,
                     "engine": "auto", "machine": "uvax78032"}),
    _doc("explore", {"smoke": True}),
    _doc("explore", {"spec": "smoke"}),
    _doc("explore", {"spec": "paper-sensitivity", "axes": [], "mode": None,
                     "instructions": None, "seed": None, "smoke": False,
                     "jobs": 1, "engine": None, "machine": None}),
    _doc("explore", {"spec": "smoke",
                     "axes": ["instructions=1000,2000",
                              "cache_bytes=4096,16384"],
                     "mode": "cartesian"}),
    _doc("explore", {"spec": "smoke",
                     "axes": ["workload=research,compiler-build"]}),
    _doc("explore", {"spec": "smoke",
                     "axes": ["workload=queue-kernel",
                              "tb_entries=64,128"]}),
    _doc("explore", {"smoke": True, "engine": None}),
    _doc("explore", {"smoke": True, "engine": "scalar"}),
    _doc("explore", {"smoke": True, "engine": "auto"}),
    _doc("explore", {"smoke": True, "machine": "vax780"}),
    _doc("explore", {"smoke": True, "machine": "uvax78032"}),
    _doc("explore", {"smoke": True}, default_engine="auto"),
    _doc("explore", {"smoke": True}, default_machine="uvax78032"),
    # validate
    _doc("validate"),
    _doc("validate", {"instructions": 3000, "fuzz_cases": 2,
                      "fuzz_instructions": 300, "seed": 7, "smoke": True,
                      "engine": "batch", "machine": "vax780",
                      "workloads": ["research", "tb-thrash"]}),
    _doc("validate", {"instructions": 3000, "seed": 7,
                      "machine": "uvax78032",
                      "workloads": ["cache-thrash"]}),
    _doc("validate", {"smoke": True}),
    _doc("validate", {"smoke": True, "fuzz_cases": 3}),
    _doc("validate", {"smoke": True, "fuzz_cases": 3,
                      "fuzz_instructions": 150}),
    _doc("validate", {"instructions": None, "fuzz_cases": 0,
                      "fuzz_instructions": 400, "seed": 1984,
                      "smoke": False, "engine": None, "machine": None,
                      "workloads": None}),
    _doc("validate", {"smoke": True, "workloads": "all"}),
    _doc("validate", {"smoke": True, "workloads": list(PAPER)}),
    _doc("validate", {"smoke": True, "workloads": ["research",
                                                   "research"]}),
    _doc("validate", {"smoke": True, "engine": "scalar"}),
    _doc("validate", {"smoke": True, "machine": "uvax78032"}),
    _doc("validate", {"smoke": True}, default_machine="uvax78032"),
    _doc("validate", {"smoke": True, "machine": "uvax78032",
                      "fuzz_cases": 2}),
]

#: Submissions that must stay rejected, and what the error must name.
REJECTED = [
    (_doc("characterize", {"bogus": 1}), ["bogus"]),
    (_doc("characterize", {"seed": True}), ["seed"]),
    (_doc("characterize", {"seed": "soon"}), ["seed"]),
    (_doc("characterize", {"paranoid": 1}), ["paranoid"]),
    (_doc("characterize", {"instructions": 1.5}), ["instructions"]),
    (_doc("characterize", {"table": "99"}), ["99"]),
    (_doc("characterize", {"table": ["4", "x"]}), ["'x'"]),
    (_doc("characterize", {"engine": "warp"}), ["warp"]),
    (_doc("characterize", {"machine": "pdp11"}), ["pdp11"]),
    (_doc("characterize", {"workloads": ["no-such-load"]}),
     ["no-such-load"]),
    (_doc("characterize", {"workloads": []}), ["workloads"]),
    (_doc("characterize", {"workloads": ["trace:/tmp/x.rprt"]}),
     ["trace:"]),
    (_doc("characterize", {"workloads": ["transaction-decimal"],
                           "machine": "uvax78032"}),
     ["transaction-decimal"]),
    (_doc("characterize", [1, 2]), ["params"]),
    (_doc("run-workload"), ["workload"]),
    (_doc("run-workload", {"workload": "no-such-load"}), ["no-such-load"]),
    (_doc("run-workload", {"workload": "trace:/tmp/x.rprt"}), ["trace:"]),
    (_doc("run-workload", {"workload": "research", "seed": False}),
     ["seed"]),
    (_doc("run-workload", {"workload": "research", "machine": "pdp11"}),
     ["pdp11"]),
    (_doc("run-workload", {"workload": "research", "engine": "scalar"}),
     ["engine"]),
    (_doc("ubench", {"group": "nonesuch"}), ["nonesuch"]),
    (_doc("ubench", {"jobs": True}), ["jobs"]),
    (_doc("ubench", {"check_instructions": "many"}),
     ["check_instructions"]),
    (_doc("ubench", {"machine": "pdp11"}), ["pdp11"]),
    (_doc("explore", {"spec": "nonesuch"}), ["nonesuch"]),
    (_doc("explore", {"axes": "cache_bytes=4096"}), ["axes"]),
    (_doc("explore", {"smoke": True, "axes": ["bogus_axis=1,2"]}),
     ["bogus_axis"]),
    (_doc("explore", {"smoke": True, "instructions": True}),
     ["instructions"]),
    (_doc("explore", {"smoke": True, "engine": "warp"}), ["warp"]),
    (_doc("explore", {"smoke": True, "machine": "pdp11"}), ["pdp11"]),
    (_doc("validate", {"engine": "auto"}), ["auto"]),
    (_doc("validate", {"fuzz_cases": True}), ["fuzz_cases"]),
    (_doc("validate", {"workloads": []}), ["workloads"]),
    (_doc("validate", {"workloads": ["no-such-load"]}), ["no-such-load"]),
    (_doc("validate", {"smoke": True, "machine": "pdp11"}), ["pdp11"]),
    (_doc("mine-bitcoin"), ["mine-bitcoin"]),
    # Facade parameters the service does not take from a client.
    (_doc("explore", {"smoke": True, "store": "/tmp/store"}), ["store"]),
    (_doc("explore", {"smoke": True, "resume": False}), ["resume"]),
    (_doc("validate", {"smoke": True, "jobs": 2}), ["jobs"]),
    # Out-of-domain values once accepted, or failed only in a worker.
    (_doc("ubench", {"smoke": True, "check_instructions": 0}),
     ["check_instructions"]),
    (_doc("characterize", {"smoke": True, "jobs": 0}), ["jobs"]),
    (_doc("characterize", {"smoke": True, "jobs": -3}), ["jobs"]),
    (_doc("ubench", {"smoke": True, "jobs": -3}), ["jobs"]),
    (_doc("explore", {"smoke": True, "jobs": 0}), ["jobs"]),
    (_doc("validate", {"smoke": True, "fuzz_cases": -1}), ["fuzz_cases"]),
    (_doc("validate", {"smoke": True, "fuzz_cases": 1,
                       "fuzz_instructions": 0}), ["fuzz_instructions"]),
    (_doc("validate", {"smoke": True, "fuzz_instructions": -5}),
     ["fuzz_instructions"]),
    (_doc("run-workload", {"workload": "", "smoke": True}), ["''"]),
    (_doc("run-workload", {"workload": "thrash", "smoke": True}),
     ["tb-thrash", "cache-thrash"]),
    (_doc("run-workload", {"workload": "scientific", "smoke": True}),
     ["rte-scientific", "vector-scientific"]),
    (_doc("characterize", {"smoke": True, "workloads": ["thrash"]}),
     ["tb-thrash", "cache-thrash"]),
    (_doc("explore", {"smoke": True, "axes": ["workload=thrash"]}),
     ["tb-thrash", "cache-thrash"]),
    (_doc("explore", {"smoke": True, "spec": "nonesuch"}), ["nonesuch"]),
    # Settings that once named a machine fact no run varied, so every
    # value swept the same machine.
    (_doc("explore", {"smoke": True, "axes": ["cycle_ns=100"]}),
     ["cycle_ns"]),
    (_doc("explore", {"smoke": True, "axes": ["ib_fill_bytes=1,8"]}),
     ["ib_fill_bytes"]),
    (_doc("explore", {"smoke": True, "axes": ["page_bytes=256"]}),
     ["page_bytes"]),
]


def _parse(entry):
    return parse_request(json.loads(json.dumps(entry["doc"])),
                         default_engine=entry.get("default_engine"),
                         default_machine=entry.get("default_machine"))


def _record(entry) -> dict:
    request = _parse(entry)
    return dict(entry, canonical=request.canonical(),
                key=request_key(request, code=CODE))


def _load():
    return json.loads(CORPUS.read_text())


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


class TestKeyCorpus:
    def test_corpus_covers_every_served_command(self):
        corpus = _load()
        assert corpus["schema"] == canonical.SERVE_SCHEMA == 3
        assert len(corpus["accepted"]) >= 40
        commands = {entry["doc"]["command"]
                    for entry in corpus["accepted"]}
        assert commands == set(canonical.COMMANDS)

    @pytest.mark.parametrize("index", range(len(ACCEPTED)))
    def test_canonical_and_key_are_byte_identical(self, index):
        expected = _load()["accepted"][index]
        request = _parse(expected)
        assert _dumps(request.canonical()) == _dumps(expected["canonical"])
        assert request_key(request, code=CODE) == expected["key"]

    @pytest.mark.parametrize("index", range(len(REJECTED)))
    def test_rejected_payloads_stay_rejected(self, index):
        expected = _load()["rejected"][index]
        with pytest.raises(api.ApiError) as err:
            _parse(expected)
        for needle in expected["names"]:
            assert needle in str(err.value), (expected["doc"], err.value)

    def test_committed_corpus_matches_the_tables_here(self):
        """The JSON is generated from ACCEPTED/REJECTED, not edited."""
        corpus = _load()
        assert [{k: v for k, v in entry.items()
                 if k not in ("canonical", "key")}
                for entry in corpus["accepted"]] == \
            json.loads(json.dumps(ACCEPTED))
        assert [[entry["doc"], entry["names"]]
                for entry in corpus["rejected"]] == \
            json.loads(json.dumps([[e["doc"], names]
                                   for e, names in REJECTED]))


def regenerate() -> None:
    """Rewrite the corpus from the current code (a deliberate act)."""
    doc = {"schema": canonical.SERVE_SCHEMA, "code": CODE,
           "accepted": [_record(entry) for entry in ACCEPTED],
           "rejected": [dict(entry, names=names)
                        for entry, names in REJECTED]}
    for entry in doc["rejected"]:
        try:
            _parse(entry)
        except api.ApiError:
            continue
        raise SystemExit(f"not rejected: {entry['doc']}")
    CORPUS.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {len(doc['accepted'])} keys and "
          f"{len(doc['rejected'])} rejections to {CORPUS}")


if __name__ == "__main__":
    regenerate()
