"""Command-line interface: ``python -m repro <command>``.

A thin argparse shell over :mod:`repro.api`.  Each facade command's
flags are generated from its declaration (:data:`repro.api.COMMANDS`):
a subcommand accepts exactly the parameters its facade call takes,
spelled, typed and documented there, and a flag left unset is not
passed at all, so the facade's signature owns every default.  Handlers
only call the facade and render the result.  Validation errors surface
as :class:`repro.api.ApiError` and exit with code 2 (as do flags a
subcommand does not take); result failures (inexact kernels, a failed
claim check, a divergence) exit with code 1.

Commands: one per declared facade function (``python -m repro --help``
lists them, each with its docstring's summary line), plus ``serve`` —
the simulation service, an async HTTP job server with a shared result
cache, bounded queue and backpressure (:mod:`repro.serve`) — and
``submit``, which sends one job to a running server.

The CLI's own options: ``--json PATH`` (write the result document),
and ``--obs DIR`` / ``--heartbeat SECS``, which wrap the run in a
:class:`repro.obs.Observation` (live JSONL events, metrics snapshot,
Chrome trace, flamegraph, liveness lines on stderr) without changing a
single simulated count.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro import api, obs
from repro.serve.server import ServeConfig


def _version() -> str:
    """Package version: installed metadata, else the source tree's."""
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:
        import repro
        return getattr(repro, "__version__", "unknown")


def _add_param(parser, name: str, param, default) -> None:
    """One declared facade parameter as a flag (or positional)."""
    settings = {"help": param.help, **param.cli}
    if param.flag == "":
        parser.add_argument(name, **settings)
    elif param.kind is bool:
        parser.add_argument(
            ("--no-" if default else "--") + name.replace("_", "-"),
            dest=name, action="store_false" if default else "store_true",
            **settings)
    else:
        settings.setdefault("type", param.kind if param.kind is int
                            else None)
        parser.add_argument(param.flag or "--" + name.replace("_", "-"),
                            dest=name, default=None, **settings)


def _add_cli_options(parser, json_output: bool = True) -> None:
    """The command line's own options (no facade parameter behind them)."""
    if json_output:
        parser.add_argument(
            "--json", default=None, metavar="PATH",
            help="also write a machine-readable JSON document to PATH")
    parser.add_argument(
        "--obs", default=None, metavar="DIR",
        help="write observability artifacts (events.jsonl, "
             "metrics.json, trace.json, flamegraph.collapsed) to DIR")
    parser.add_argument(
        "--heartbeat", type=float, default=None, metavar="SECS",
        help="print a liveness line to stderr every SECS seconds")


def _serve_flags() -> dict:
    """``ServeConfig`` field -> (type, default, argparse settings), for
    the fields ``repro serve`` exposes."""
    from dataclasses import fields
    from typing import get_type_hints

    kinds = get_type_hints(ServeConfig)
    return {spec.name: (kinds[spec.name], spec.default,
                        dict(spec.metadata))
            for spec in fields(ServeConfig) if spec.metadata}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VAX-11/780 characterization study reproduction "
                    "(Emer & Clark, ISCA 1984)")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {_version()}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in api.COMMANDS.items():
        facade = sub.add_parser(name, help=command.help)
        for param_name, param in command.params.items():
            _add_param(facade, param_name, param,
                       command.defaults[param_name])
        _add_cli_options(facade)
    explore = sub.choices["explore"]
    explore.add_argument(
        "--points", action="store_true",
        help="list the enumerated points and their store status "
             "without simulating")
    explore.add_argument(
        "--no-store", dest="use_store", action="store_false",
        help="do not read or write the result store")

    serve = sub.add_parser(
        "serve",
        help="run the simulation service (async job server with a "
             "shared cache, queueing, and backpressure)")
    for name in ("jobs", "store", "engine", "machine"):
        _add_param(serve, name, api.SHARED_PARAMS[name], None)
    for name, (kind, default, settings) in _serve_flags().items():
        serve.add_argument("--" + name.replace("_", "-"), type=kind,
                           default=default, **settings)
    serve.add_argument("--no-store", dest="use_store",
                       action="store_false",
                       help="serve without the persistent result cache "
                            "(in-flight coalescing still applies)")
    _add_cli_options(serve, json_output=False)

    submit = sub.add_parser(
        "submit", help="submit one job to a running server")
    submit.add_argument("job_command", metavar="COMMAND",
                        help="service command: characterize, "
                             "run-workload, ubench, explore, validate")
    submit.add_argument("--param", action="append", default=[],
                        metavar="NAME=VALUE",
                        help="job parameter (repeatable); VALUE is "
                             "parsed as JSON, falling back to a string")
    submit.add_argument("--url", default=f"http://{ServeConfig.host}:"
                                         f"{ServeConfig.port}",
                        help="server address (default %(default)s)")
    submit.add_argument("--client-name", default=None, metavar="NAME",
                        help="client identity for rate limiting "
                             "(X-Repro-Client header)")
    submit.add_argument("--no-wait", dest="wait", action="store_false",
                        help="return the queued job id immediately "
                             "instead of polling for the result")
    submit.add_argument("--timeout", type=float, default=600.0,
                        help="seconds to wait for the job to finish")
    _add_cli_options(submit)
    return parser


def _progress(line: str) -> None:
    print(line, file=sys.stderr)


def _done(args, document, code: int = 0) -> int:
    """Write ``document()`` to the ``--json`` path if given; ``code``."""
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document(), handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"\nwrote {args.json}")
    return code


def _cmd_characterize(args, **kwargs) -> int:
    result = api.characterize(**kwargs)
    for entry in result.tables:
        print(entry["text"])
        print()
    return _done(args, result.to_json)


def _cmd_run_workload(args, **kwargs) -> int:
    result = api.run_workload(**kwargs)
    print(f"workload:  {result.profile}")
    print(f"machine:   {result.machine}")
    print(f"           {result.description}")
    print(f"instructions measured: {result.instructions_measured}")
    print(f"cycles per instruction: "
          f"{result.cycles_per_instruction:.2f}")
    print()
    print(result.table1_text)
    return _done(args, result.to_json)


def _cmd_hotspots(args, **kwargs) -> int:
    result = api.hotspots(**kwargs)
    print(f"{'uPC':>5s} {'cycles':>10s} {'%':>6s}  {'row':12s} "
          f"routine.slot")
    for row in result.rows:
        print(f"{row['address']:5d} {row['cycles']:10d} "
              f"{row['percent']:6.2f}  {row['row']:12s} "
              f"{row['routine']}.{row['slot']}")
    return _done(args, result.to_json)


def _cmd_disasm(args, source, **kwargs) -> int:
    try:
        with open(source) as handle:
            text = handle.read()
    except OSError as exc:
        raise api.ApiError(f"disasm: cannot read {source}: "
                           f"{exc.strerror}") from exc
    result = api.disasm(source=text, **kwargs)
    for line in result.lines:
        print(line)
    return _done(args, result.to_json)


def _cmd_figure1(args) -> int:
    result = api.figure1()
    print(result.text)
    return _done(args, result.to_json)


def _cmd_profiles(args) -> int:
    result = api.profiles()
    for profile in result.profiles:
        print(f"{profile['name']:24s} {profile['description']}")
    return _done(args, result.to_json)


def _cmd_workloads(args) -> int:
    result = api.workloads()
    machines = sorted({machine for entry in result.workloads
                       for machine in entry["supported"]})
    header = f"{'workload':24s} {'class':10s} {'kind':10s} " \
             + " ".join(f"{name:>10s}" for name in machines)
    print(header)
    for entry in result.workloads:
        marker = "*" if entry["name"] == result.default else " "
        support = " ".join(
            f"{'yes' if entry['supported'][name] else 'no':>10s}"
            for name in machines)
        print(f"{marker}{entry['name']:23s} {entry['generator']:10s} "
              f"{entry['kind']:10s} {support}")
    print(f"\n{result.count} workloads; * = default "
          "(select with 'run-workload NAME')")
    return _done(args, result.to_json)


def _cmd_record_trace(args, **kwargs) -> int:
    result = api.record_trace(**kwargs)
    print(f"recorded:  {result.source} -> {result.path}")
    print(f"machine:   {result.machine}  seed: {result.seed}  "
          f"instructions: {result.instructions}")
    print(f"events:    {result.events}  cycles: {result.cycles}")
    print(f"sha256:    {result.file_sha256}")
    if result.registered:
        print(f"registered as workload: {result.workload}")
    return _done(args, result.to_json)


def _cmd_machines(args) -> int:
    result = api.machines()
    for machine in result.machines:
        marker = "*" if machine["default"] else " "
        print(f"{marker} {machine['name']:12s} "
              f"(nominal CPI ~{machine['cpi_nominal']:.1f}) "
              f"{machine['description']}")
    print("\n* = default backend; select with --machine NAME")
    return _done(args, result.to_json)


def _cmd_ubench(args, **kwargs) -> int:
    from repro.report.ubench import render_ubench, ubench_json

    result = api.ubench(**kwargs)
    print(render_ubench(list(result.results), result.check))
    _done(args, lambda: ubench_json(
        list(result.results), result.check, meta={
            "suite": result.suite,
            "kernel_count": result.kernel_count,
            "seed": result.seed,
            "machine": result.machine,
        }))
    if result.failed:
        print(f"inexact kernels: {', '.join(result.failed)}",
              file=sys.stderr)
        return 1
    if result.check_ok is False:
        print("consistency check failed (see table above)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_explore(args, **kwargs) -> int:
    from repro.report.explore import explore_json, render_sensitivity

    if not args.use_store:
        kwargs["store"] = None
    if args.points:
        listing = api.explore_points(**{
            name: value for name, value in kwargs.items()
            if name not in ("jobs", "engine", "resume")})
        print(f"spec '{listing.spec}' ({listing.mode}): "
              f"{len(listing.points)} points x "
              f"{listing.workloads} workloads")
        for point in listing.points:
            print(f"  {point['label']:40s} {point['cached']}/"
                  f"{listing.workloads} cached")
        return _done(args, listing.to_json)

    result = api.explore(progress=_progress, **kwargs)
    print(render_sensitivity(result.report, result.stats))

    def document():
        from repro.explore import code_version
        from repro.explore.store import ResultStore

        store = kwargs.get("store",
                           api.COMMANDS["explore"].defaults["store"])
        return explore_json(result.sweep, result.report, meta={
            "spec": result.spec,
            "store": store,
            "store_stats": None if store is None
            else ResultStore(store).stats(),
            "engine": result.engine,
            "code_version": code_version(),
        })

    _done(args, document)
    if result.decode_claim_ok is False:
        print("overlapped-decode claim check failed (see above)",
              file=sys.stderr)
        return 1
    return 0


def _cmd_validate(args, **kwargs) -> int:
    from repro.report.validate import render_validate, validate_json

    result = api.validate(progress=_progress, **kwargs)
    print(render_validate(list(result.reports),
                          list(result.fuzz_results)))
    return _done(args, lambda: validate_json(
        list(result.reports), list(result.fuzz_results), meta={
            "instructions": result.instructions,
            "fuzz_cases": result.fuzz_cases,
            "fuzz_instructions": result.fuzz_instructions,
            "seed": result.seed,
            "smoke": result.smoke,
            "machine": result.machine,
        }), 0 if result.ok else 1)


def _cmd_refute(args, **kwargs) -> int:
    from repro.report.refute import refute_json, render_refute

    result = api.refute(progress=_progress, **kwargs)
    print(render_refute(result.campaign_result, result.planted))
    return _done(args, lambda: refute_json(result.campaign_result,
                                           result.planted),
                 0 if result.ok else 1)


def _cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.serve import JobServer

    api._engine(args.engine)        # fail at startup, not per request
    api._machine(args.machine)      # likewise
    config = ServeConfig(
        engine=args.engine, machine=args.machine,
        **{name: getattr(args, name) for name in _serve_flags()})
    if args.jobs is not None:
        config.workers = args.jobs
    if args.store is not None:
        config.store = args.store
    if not args.use_store:
        config.store = None

    async def run() -> None:
        server = JobServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(signum, server.request_drain)
        print(f"repro.serve listening on "
              f"http://{config.host}:{server.port}", flush=True)
        await server.serve_forever()
        print("repro.serve drained and stopped", flush=True)

    asyncio.run(run())
    return 0


def _cmd_submit(args) -> int:
    from repro.serve.canonical import parse_request
    from repro.serve.client import ServeClient, ServeError

    params = {}
    for item in args.param:
        name, sep, value = item.partition("=")
        if not sep:
            raise api.ApiError(
                f"--param expects NAME=VALUE, got {item!r}")
        try:
            params[name] = json.loads(value)
        except json.JSONDecodeError:
            params[name] = value
    # Reject a bad command or bad params before the wire.
    parse_request({"command": args.job_command, "params": params})
    client = ServeClient(url=args.url, name=args.client_name)
    try:
        job = client.submit(args.job_command, params, wait=args.wait,
                            timeout=args.timeout)
    except ServeError as exc:
        print(str(exc), file=sys.stderr)
        if exc.retry_after is not None:
            print(f"retry after {exc.retry_after}s", file=sys.stderr)
        return 1
    note = " (cache hit)" if job.get("cached") else ""
    print(f"job {job['id']}: {job['status']}{note}")
    return _done(args, lambda: job)


_COMMANDS = {
    "characterize": _cmd_characterize,
    "run-workload": _cmd_run_workload,
    "hotspots": _cmd_hotspots,
    "disasm": _cmd_disasm,
    "figure1": _cmd_figure1,
    "profiles": _cmd_profiles,
    "workloads": _cmd_workloads,
    "record-trace": _cmd_record_trace,
    "machines": _cmd_machines,
    "ubench": _cmd_ubench,
    "explore": _cmd_explore,
    "validate": _cmd_validate,
    "refute": _cmd_refute,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
}


def _facade_kwargs(args) -> dict:
    """The declared parameters the command line actually set."""
    command = api.COMMANDS.get(args.command)
    if command is None:
        return {}
    return {name: getattr(args, name) for name in command.params
            if getattr(args, name) is not None}


def main(argv=None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    handler = _COMMANDS[args.command]
    try:
        if args.obs is not None or args.heartbeat is not None:
            with obs.observe(args.obs, heartbeat=args.heartbeat,
                             label=args.command) as observation:
                code = handler(args, **_facade_kwargs(args))
            for name, path in sorted(observation.outputs.items()):
                print(f"obs: wrote {name}: {path}", file=sys.stderr)
            return code
        return handler(args, **_facade_kwargs(args))
    except api.ApiError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
