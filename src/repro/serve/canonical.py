"""Request canonicalization: one content-address per distinct job.

Every submission binds to the corresponding :mod:`repro.api` command
declaration: its fields are the facade parameters (defaults included),
their payload types come from the declaration, and the command's one
canonicalizing step resolves them — ``smoke`` collapses into the
budget it implies, ``table``/``workloads``/``spec`` shorthands expand
to their full forms, an omitted ``engine`` becomes ``"scalar"`` — with
the facade's own :class:`~repro.api.ApiError` checks.  Two payloads
that differ only in field order, default-vs-explicit values, or
shorthand spelling therefore canonicalize to the same dict — and the
same :func:`request_key`, the serve analogue of the explore store's
:func:`~repro.explore.store.result_key`: a sha256 over the canonical
params plus the command, a serve schema number, and the code-version
digest of the whole package (so any source change — the simulator,
this module, the facade or the renderers of a result document —
invalidates every cached service result exactly as it invalidates
sweep records).

What is serve's own: the ``{"command", "params"}`` envelope, the
server's ``--engine``/``--machine`` defaults, and the remote-input
policy — no server-local paths (``store``, ``trace:`` references) and
no trace workloads in composites.

The key deliberately includes every field that shapes the *result
document* — ``jobs`` and ``engine`` are execution knobs with
bit-identical outcomes, but they appear in the result dataclasses, so
they stay in the key to keep cached documents indistinguishable from
fresh ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro import api
from repro.explore.store import code_version

#: Part of every request key.  Any source edit already changes the
#: code version, so a bump marks a canonicalization or record layout
#: change in the keys ``tests/serve/key_corpus.json`` pins under a
#: fixed code string.
#: 2: every request carries the machine backend name (default vax780),
#:    so results from different machines can never share a key.
#: 3: workloads resolve through the workload registry — run-workload
#:    canonicalizes to a ``workload`` name, and characterize/validate
#:    carry their resolved workload name lists — so requests over
#:    different workload sets can never share a key.
SERVE_SCHEMA = 3

#: served command -> facade parameters a remote client may not set.
_LOCAL = {"characterize": (), "run-workload": (), "ubench": (),
          "explore": ("store", "resume"), "validate": ("jobs",)}


@dataclass(frozen=True)
class ServeRequest:
    """One bound submission: a served command and its full params."""

    command: str
    params: dict

    def canonical(self) -> dict:
        """The resolved params — what the request key hashes."""
        spellings = self.params.get("workloads")
        if not isinstance(spellings, (list, tuple)):
            spellings = [spellings]
        for value in (self.params.get("workload"), *spellings):
            if isinstance(value, str) and value.startswith("trace:"):
                # Resolving one would read (and register) a
                # server-local file on behalf of a remote client.
                raise api.ApiError(
                    "trace:PATH references are not accepted over the "
                    "job server; register the trace in the server "
                    "process and submit its workload name")
        canonical = api.COMMANDS[self.command].canonical(self.params)
        if "workloads" in self.params:
            from repro.workloads.registry import WORKLOADS

            for name in canonical["workloads"]:
                if WORKLOADS[name].trace is not None:
                    raise api.ApiError(
                        f"trace workload {name!r} cannot join a "
                        "composite; run it via run-workload")
        return canonical

    def exec_kwargs(self) -> dict:
        """Keyword arguments for the facade call this request maps to."""
        return dict(self.params)

    def fusion_group(self):
        """Auto-engine characterize jobs differing only in budget.

        The dispatcher runs one group as a single worker task: the
        budgets become fused lanes of one batch run (see
        :func:`repro.serve.workers.prefuse_characterize`).
        """
        if self.command != "characterize":
            return None
        canonical = self.canonical()
        if canonical["engine"] != "auto":
            return None
        del canonical["instructions"]
        return f"{self.command}:" + json.dumps(canonical, sort_keys=True)


class ServedCommand:
    """One command of the service's public surface."""

    def __init__(self, command: str) -> None:
        self.command = command
        declaration = api.COMMANDS[command]
        self.fields = tuple(name for name in declaration.params
                            if name not in _LOCAL[command])

    def from_payload(self, payload) -> ServeRequest:
        """Bind a JSON params dict to the command, strictly.

        Unknown fields and wrongly typed values raise
        :class:`~repro.api.ApiError` listing the valid fields — the same
        up-front rejection contract as the facade's own checks, which
        run next: the request is canonicalized before any queueing.
        """
        if payload is None:
            payload = {}
        if not isinstance(payload, dict):
            raise api.ApiError(
                f"{self.command}: params must be a JSON object, got "
                f"{type(payload).__name__}")
        unknown = sorted(set(payload) - set(self.fields))
        if unknown:
            raise api.ApiError(
                f"{self.command}: unknown field(s) "
                f"{', '.join(unknown)}; valid fields: "
                f"{', '.join(self.fields)}")
        declaration = api.COMMANDS[self.command]
        params = {name: payload.get(name, declaration.defaults[name])
                  for name in self.fields}
        for name, value in params.items():
            kind = declaration.params[name].kind
            if kind is None or value is None \
                    and declaration.defaults[name] is None:
                continue
            if isinstance(value, bool) and kind is not bool \
                    or not isinstance(value, kind):
                raise api.ApiError(
                    f"{self.command}: field {name!r} must be "
                    f"{kind.__name__}, got {value!r}")
        request = ServeRequest(self.command, params)
        request.canonical()     # validate eagerly, before any queueing
        return request


#: command name -> served command, the service's public command surface.
COMMANDS = {name: ServedCommand(name) for name in _LOCAL}


def parse_request(doc, default_engine: str = None,
                  default_machine: str = None) -> ServeRequest:
    """Parse a submission body into a validated request.

    ``doc`` is ``{"command": <name>, "params": {...}}``.
    ``default_engine`` (the server's ``--engine`` flag) fills in the
    ``engine`` field of requests that have one and did not set it —
    ``repro serve --engine auto`` is what turns co-queued budget-only
    characterize jobs into fused batch lanes.  ``default_machine``
    (the server's ``--machine`` flag) likewise fills in an unset
    ``machine`` field, turning the server into a dedicated backend for
    one machine.
    """
    if not isinstance(doc, dict):
        raise api.ApiError("request body must be a JSON object like "
                           '{"command": ..., "params": {...}}')
    extra = sorted(set(doc) - {"command", "params"})
    if extra:
        raise api.ApiError(f"unknown request key(s) {', '.join(extra)};"
                           " expected 'command' and 'params'")
    command = doc.get("command")
    if command not in COMMANDS:
        raise api.ApiError(
            f"unknown command {command!r}; choose from "
            f"{', '.join(sorted(COMMANDS))}")
    served = COMMANDS[command]
    params = doc.get("params") or {}
    for name, default in (("engine", default_engine),
                          ("machine", default_machine)):
        if default is not None and isinstance(params, dict) \
                and name in served.fields and params.get(name) is None:
            params = {**params, name: default}
    return served.from_payload(params)


def request_key(request: ServeRequest, code: str = None) -> str:
    """The content address of one canonicalized service request."""
    payload = {
        "schema": SERVE_SCHEMA,
        "code": code_version() if code is None else code,
        "command": request.command,
        "params": request.canonical(),
    }
    canonical = json.dumps(payload, sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
