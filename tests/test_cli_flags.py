"""Each subcommand's flags are generated from its facade declaration.

A flag exists only where it has an effect: every option a facade
subcommand accepts either reaches its facade call or is one of the
command line's own options.  These tests introspect the built parser
and capture the facade's keyword arguments rather than pattern-match
help text, so a flag that is accepted and then dropped fails loudly.
"""

from pathlib import Path

import pytest

from repro import api, cli

SRC = Path(cli.__file__).resolve().parent

SHARED_OPTIONS = ["--jobs", "--seed", "--json", "--smoke", "--store",
                  "--engine", "--machine", "--obs", "--heartbeat"]

#: Options with no facade parameter behind them, per subcommand.
CLI_ONLY = {"--help", "-h", "--json", "--obs", "--heartbeat"}
EXPLORE_ONLY = {"--points", "--no-store"}

#: Positional arguments the capture runs need.
POSITIONALS = {"run-workload": ["research"],
               "record-trace": ["research"]}


def _subparsers():
    parser = cli._build_parser()
    action = parser._subparsers._group_actions[0]
    return parser, action.choices


def _options(subparser):
    table = {}
    for action in subparser._actions:
        for flag in action.option_strings:
            table[flag] = action
    return table


class _Captured(Exception):
    def __init__(self, kwargs):
        super().__init__(kwargs)
        self.kwargs = kwargs


def _capture(monkeypatch, command, argv):
    """The facade kwargs ``repro <command> <argv>`` calls with."""
    def fake(*args, **kwargs):
        assert not args
        raise _Captured(kwargs)

    monkeypatch.setattr(api, command.replace("-", "_"), fake)
    with pytest.raises(_Captured) as caught:
        cli.main([command, *argv])
    return caught.value.kwargs


def _sentinel(action):
    """An argv fragment setting ``action`` off its default."""
    if action.nargs == 0:               # a switch
        return [action.option_strings[0]]
    return [action.option_strings[0], "4242"]


class TestFlagScope:
    def test_every_flag_reaches_the_facade(self, monkeypatch, tmp_path):
        """Set each flag to a sentinel; the facade call must receive it.

        Every option of every facade subcommand is either a declared
        parameter that reaches the call, or one of the CLI's own.
        """
        source = tmp_path / "prog.asm"
        source.write_text("halt\n")
        _, choices = _subparsers()
        for command, declaration in api.COMMANDS.items():
            positionals = POSITIONALS.get(command, [])
            if command == "disasm":
                positionals = [str(source)]
            parser = choices[command]
            for flag, action in _options(parser).items():
                if flag in CLI_ONLY or (command == "explore"
                                        and flag in EXPLORE_ONLY):
                    continue
                assert action.dest in declaration.params, (
                    f"{command} {flag} has no facade parameter")
                argv = [*positionals, *_sentinel(action)]
                kwargs = _capture(monkeypatch, command, argv)
                expected = getattr(parser.parse_args(argv), action.dest)
                assert expected != action.default, (command, flag)
                assert kwargs[action.dest] == expected, (command, flag)
            # Unset value flags are not passed: the signature owns
            # their defaults.
            unset = _capture(monkeypatch, command, positionals)
            for flag, action in _options(parser).items():
                if action.dest in declaration.params \
                        and action.nargs != 0:
                    assert action.dest not in unset, (command, flag)

    def test_positionals_reach_the_facade(self, monkeypatch, tmp_path):
        source = tmp_path / "prog.asm"
        source.write_text("halt\n")
        assert _capture(monkeypatch, "disasm",
                        [str(source)])["source"] == "halt\n"
        assert _capture(monkeypatch, "run-workload",
                        ["research"])["workload"] == "research"

    def test_every_declared_parameter_has_a_flag(self):
        _, choices = _subparsers()
        for name, command in api.COMMANDS.items():
            dests = {action.dest for action in choices[name]._actions}
            assert set(command.params) <= dests, name

    @pytest.mark.parametrize("argv", [
        ["hotspots", "--smoke", "--machine", "uvax78032"],
        ["run-workload", "research", "--smoke", "--engine", "warp"],
        ["figure1", "--machine", "pdp11"],
        ["refute", "--machine", "vax780"],
        ["refute", "--engine", "scalar"],
        ["serve", "--seed", "7"],
        ["serve", "--smoke"],
        ["serve", "--json", "out.json"],
        ["submit", "characterize", "--seed", "7"],
    ])
    def test_flags_a_command_ignores_are_refused(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSharedFlagSet:
    def test_shared_flags_agree_across_subcommands(self):
        """Same default, same type, same help — wherever it appears."""
        _, choices = _subparsers()
        reference = {}
        for name, sub in choices.items():
            options = _options(sub)
            for flag in SHARED_OPTIONS:
                if flag not in options:
                    continue
                action = options[flag]
                signature = (action.default, action.type, action.help,
                             action.nargs, action.const)
                if flag not in reference:
                    reference[flag] = (name, signature)
                else:
                    first_name, first_signature = reference[flag]
                    assert signature == first_signature, (
                        f"{flag} differs between {first_name} and "
                        f"{name}: {first_signature} vs {signature}")
        assert set(reference) == set(SHARED_OPTIONS)

    def test_shared_defaults_are_deferred(self):
        """--jobs/--seed default to None so api.* owns the real default."""
        _, choices = _subparsers()
        sub = choices["characterize"]
        options = _options(sub)
        assert options["--jobs"].default is None
        assert options["--seed"].default is None
        assert options["--smoke"].default is False

    def test_subcommands_follow_the_declarations(self):
        _, choices = _subparsers()
        assert list(choices) == [*api.COMMANDS, "serve", "submit"]
        for command in api.COMMANDS.values():
            assert command.help and "\n" not in command.help


class TestServeFlags:
    def test_each_serve_flag_defaults_to_its_config_field(self):
        from dataclasses import fields

        from repro.serve import ServeConfig

        parser, choices = _subparsers()
        options = _options(choices["serve"])
        args = parser.parse_args(["serve"])
        flagged = [spec for spec in fields(ServeConfig) if spec.metadata]
        assert [spec.name for spec in flagged] == [
            "host", "port", "queue_size", "rate", "burst", "job_timeout"]
        for spec in flagged:
            flag = "--" + spec.name.replace("_", "-")
            assert options[flag].default == spec.default, flag
            assert getattr(args, spec.name) == spec.default, flag

    def test_submit_and_client_meet_a_default_server(self):
        from repro.serve import ServeClient, ServeConfig

        parser, _ = _subparsers()
        url = parser.parse_args(["submit", "characterize"]).url
        client = ServeClient(url=url)
        default = ServeConfig()
        assert (client.host, client.port) == (default.host, default.port)
        assert (ServeClient().host, ServeClient().port) \
            == (default.host, default.port)
        assert default.port != 0

    def test_test_servers_bind_an_ephemeral_port(self):
        from repro.serve import ServeConfig
        from repro.serve.testing import ServerThread

        assert ServerThread(ServeConfig(store=None)).config.port == 0


class TestArgparseStaysInCli:
    def test_only_cli_imports_argparse(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            if path.name == "cli.py":
                continue
            text = path.read_text()
            if "import argparse" in text:
                offenders.append(str(path.relative_to(SRC)))
        assert offenders == [], (
            "argparse belongs to cli.py alone; found in: "
            + ", ".join(offenders))
