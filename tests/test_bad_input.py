"""Bad input is one error, refused before anything simulates.

:data:`DOMAINS` writes down, once, the domain of every parameter a
command in :data:`repro.api.COMMANDS` declares — as the values outside
it: a wrong type, an unknown name, or a count below its minimum.
Hypothesis draws from them, and every drawn value must be refused the
same way on both surfaces: ``cli.main`` exits 2 without a traceback,
and :func:`~repro.serve.canonical.parse_request` raises
:class:`~repro.api.ApiError` for every served command — with
``workloads.runs`` still 0 and no machine built.
"""

import contextlib
import io
import string
from dataclasses import dataclass
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro import api, cli
from repro.cpu.machine import VAX780
from repro.obs import metrics
from repro.obs.metrics import scoped_registry
from repro.serve import ServeConfig, canonical
from repro.serve.server import JobServer
from repro.workloads.registry import WORKLOADS, unregister

#: A regular file: no path under it can be read, written or created.
FILE = __file__

#: A name no registry spells or ends with ("?" is in none of them).
UNKNOWN = st.text(string.ascii_lowercase + "-_", max_size=6).map(
    lambda text: text + "?")
#: What ``int`` cannot parse from the command line.
NOT_INT = st.text(string.ascii_letters, min_size=1)
NOT_INT_JSON = st.one_of(st.text(max_size=4), st.floats(allow_nan=False),
                         st.booleans(), st.lists(st.integers(), max_size=2))
NOT_STR_JSON = st.one_of(st.integers(), st.floats(allow_nan=False),
                         st.booleans(),
                         st.lists(st.text(max_size=3), max_size=2))


@dataclass(frozen=True)
class Domain:
    """One parameter's out-of-domain values, as a command-line argument
    (None for a switch, which takes no value) and as a served payload
    value (None where no served command takes it)."""

    cli: object = None
    payload: object = None


def count(least: int, most: int = None) -> Domain:
    """An int parameter of at least ``least`` (and at most ``most``)."""
    outside = st.integers(max_value=least - 1)
    if most is not None:
        outside |= st.integers(min_value=most + 1)
    return Domain(outside.map(str) | NOT_INT, outside | NOT_INT_JSON)


def name(*spellings) -> Domain:
    """A registered name; ``spellings`` are refused ones worth naming."""
    names = UNKNOWN | st.sampled_from(spellings) if spellings else UNKNOWN
    return Domain(names, names | NOT_STR_JSON)


def path() -> Domain:
    """A file the command reads or writes (not served)."""
    return Domain(UNKNOWN.map(lambda part: f"{FILE}/{part}"))


SWITCH = Domain(payload=st.integers() | st.text(max_size=3))

#: parameter name -> its domain, for every command that declares it.
DOMAINS = {
    "instructions": count(1),
    "check_instructions": count(1),
    "fuzz_instructions": count(1),
    "fuzz_cases": count(0),
    "jobs": count(1),
    "top": count(1),
    "base": count(0, 2**32 - 1),
    "seed": Domain(NOT_INT, NOT_INT_JSON),
    "smoke": SWITCH, "paranoid": SWITCH, "check": SWITCH,
    "resume": SWITCH, "register": SWITCH, "self_check": SWITCH,
    "machine": name(""),
    "engine": Domain(UNKNOWN, UNKNOWN | st.integers() | st.booleans()
                     | st.lists(st.integers(), max_size=2)),
    "table": Domain(UNKNOWN, UNKNOWN | st.integers() | st.booleans()
                    | st.floats(allow_nan=False)),
    "workload": name("", "thrash", "scientific"),
    "workloads": Domain(
        UNKNOWN | st.sampled_from(["", "thrash", "scientific"]),
        UNKNOWN | st.integers() | st.booleans() | st.just([])
        | st.lists(UNKNOWN, min_size=1, max_size=2)),
    "axes": Domain(
        UNKNOWN.map(lambda axis: axis + "=1")
        | st.just("workload=thrash"),
        UNKNOWN | st.integers() | st.lists(
            UNKNOWN.map(lambda axis: axis + "=1") | st.integers(),
            min_size=1, max_size=2)),
    "spec": name(), "mode": name(), "group": name(), "variant": name(),
    "campaign": name(), "plant": name(),
    "store": path(), "path": path(), "source": path(),
    "name": Domain(st.sampled_from(
        [key for key, spec in WORKLOADS.items() if spec.trace is None])),
}

CLI_CASES = [(command, param) for command, declared in api.COMMANDS.items()
             for param in declared.params
             if param in DOMAINS and DOMAINS[param].cli is not None]
SERVED_CASES = [(command, param)
                for command, served in canonical.COMMANDS.items()
                for param in served.fields if param in DOMAINS]


@contextlib.contextmanager
def nothing_simulates():
    """Fail if the block builds a machine or runs a workload."""
    def refuse(*args, **kwargs):
        raise AssertionError("a machine was built")

    with scoped_registry() as registry, \
            mock.patch.object(VAX780, "__init__", refuse):
        yield
    assert registry.counter("workloads.runs").value == 0


def run_cli(argv) -> tuple:
    """(exit code, stderr) of ``repro <argv>``, run in this process."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:       # argparse refusing a value
            code = exc.code
    return code, err.getvalue()


def command_line(command: str, param: str, value: str, files) -> list:
    """``repro <command>`` with ``param`` set to ``value`` and the rest
    at small valid settings."""
    declared = api.COMMANDS[command].params
    given = {"workload": "research", "source": files["source"],
             "path": files["out"], param: value}
    argv = [command] + [given[key] for key, spec in declared.items()
                        if spec.flag == ""]
    if "smoke" in declared:
        argv.append("--smoke")
    if command == "explore" and param != "store":
        argv.append("--no-store")
    for key in {param, "path"} & set(declared):
        spec = declared[key]
        if spec.flag != "":
            argv += [spec.flag or "--" + key.replace("_", "-"), given[key]]
    return argv


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    folder = tmp_path_factory.mktemp("bad-input")
    source = folder / "ok.mar"
    source.write_text("start: nop\nbrb start\n")
    return {"source": str(source), "out": str(folder / "out.rprt")}


def test_every_declared_parameter_has_a_domain():
    missing = [f"{command}.{param}"
               for command, declared in api.COMMANDS.items()
               for param in declared.params if param not in DOMAINS]
    assert missing == []


@pytest.mark.parametrize("command,param", CLI_CASES,
                         ids=[f"{c}.{p}" for c, p in CLI_CASES])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_the_cli_exits_2_on_every_out_of_domain_value(command, param,
                                                      files, data):
    value = data.draw(DOMAINS[param].cli, label=param)
    with nothing_simulates():
        code, err = run_cli(command_line(command, param, value, files))
    assert code == 2
    assert "Traceback" not in err
    assert err.strip()


@pytest.mark.parametrize("command,param", SERVED_CASES,
                         ids=[f"{c}.{p}" for c, p in SERVED_CASES])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_submission_refuses_every_out_of_domain_value(command, param,
                                                      data):
    value = data.draw(DOMAINS[param].payload, label=param)
    params = {"workload": "research"} if command == "run-workload" else {}
    params[param] = value
    with nothing_simulates(), pytest.raises(api.ApiError):
        canonical.parse_request({"command": command, "params": params})


#: Inputs each accepted once, with what the refusal must name.
REPRODUCERS = [
    (["run-workload", "", "--smoke"], "''"),
    (["run-workload", "thrash", "--smoke"], "cache-thrash"),
    (["explore", "--smoke", "--no-store", "--axis", "workload=thrash"],
     "tb-thrash"),
    (["run-workload", "scientific", "--smoke"], "vector-scientific"),
    (["characterize", "--smoke", "--jobs", "0"], "jobs"),
    (["explore", "--smoke", "--no-store", "--jobs", "-3"], "jobs"),
    (["ubench", "--smoke", "--jobs", "0"], "jobs"),
    (["refute", "--smoke", "--jobs", "0"], "jobs"),
    (["validate", "--smoke", "--fuzz", "-1"], "fuzz_cases"),
    (["validate", "--smoke", "--fuzz", "1", "--fuzz-instructions", "0"],
     "fuzz_instructions"),
    (["validate", "--smoke", "--fuzz-instructions", "-5"],
     "fuzz_instructions"),
    (["hotspots", "--smoke", "--top", "0"], "top"),
    (["hotspots", "--smoke", "--top", "-1"], "top"),
    (["ubench", "--smoke", "--check-instructions", "0"],
     "check_instructions"),
    (["record-trace", "compiler-build", "--smoke", "--out",
      f"{FILE}/x.rprt"], "not a directory"),
    (["explore", "--points", "--smoke", "--store", f"{FILE}/store"],
     "unusable store"),
    (["explore", "--smoke", "--no-store", "--axis",
      "memory_bytes=1048576"], "memory_bytes=1048576"),
    (["explore", "--smoke", "--no-store", "--axis", "machine=uvax78032",
      "--axis", "workload=transaction-decimal"], "ADDP"),
    (["submit", "ubench", "--param", "check_instructions=0"],
     "check_instructions"),
]


@pytest.mark.parametrize("argv,needle", REPRODUCERS,
                         ids=[" ".join(argv[:2]) for argv, _ in REPRODUCERS])
def test_each_reproducer_exits_2_naming_the_fault(argv, needle):
    with nothing_simulates():
        code, err = run_cli(argv)
    assert code == 2
    assert needle in err and "Traceback" not in err


def test_record_trace_refuses_a_generator_name_before_writing(tmp_path):
    out = tmp_path / "x.rprt"
    with nothing_simulates():
        code, err = run_cli(["record-trace", "compiler-build", "--smoke",
                             "--out", str(out), "--name",
                             "timesharing-research"])
    assert code == 2 and "timesharing-research" in err
    assert not out.exists()


def test_disasm_names_the_line_that_does_not_assemble(tmp_path):
    source = tmp_path / "bad.mar"
    source.write_text("nop\nbrb nowhere\n")
    code, err = run_cli(["disasm", str(source)])
    assert code == 2
    assert "line 2" in err and "nowhere" in err


@pytest.mark.parametrize("config", [
    dict(rate=1.0, burst=0), dict(rate=-1.0), dict(queue_size=0)],
    ids=["burst", "rate", "queue_size"])
def test_the_server_refuses_its_own_bad_flags(config):
    with pytest.raises(api.ApiError):
        JobServer(ServeConfig(store=None, **config))


def test_submission_refuses_what_once_failed_in_a_worker(tmp_path):
    """The two payloads a worker used to fail: both are refused at
    submit, and no job fails."""
    from repro.serve.testing import ServerThread

    recorded = api.record_trace("rte-educational", smoke=True, seed=7,
                                path=str(tmp_path / "edu.rprt"))
    trace = recorded.workload
    payloads = [
        ("ubench", {"smoke": True, "check_instructions": 0}),
        ("run-workload", {"workload": trace,
                          "instructions": recorded.instructions + 1}),
        ("run-workload", {"workload": trace, "seed": 8}),
    ]
    failed = metrics.counter("serve.jobs.failed").value
    try:
        with ServerThread(ServeConfig(store=None)) as handle:
            for command, params in payloads:
                status, body, _ = handle.submit(
                    {"command": command, "params": params})
                assert status == 400, body
            status, body, _ = handle.submit(
                {"command": "run-workload", "params": {"workload": trace}})
            assert status == 202
            assert handle.client().wait(body["id"])["status"] == "done"
    finally:
        unregister(trace)
    assert metrics.counter("serve.jobs.failed").value == failed
