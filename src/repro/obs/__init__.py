"""repro.obs: run-time observability for the reproduction itself.

The paper's µPC histogram board watches the *machine* without
perturbing it; this package applies the same discipline to the
*reproduction* — a long characterization, sweep, microbenchmark or fuzz
campaign becomes observable while it runs, with contractually zero
effect on what it counts (``tests/obs`` pins an observed composite to
the same 2,082,708 cycles as an unobserved one).

Three instruments, one lifecycle:

* a process-wide **metrics registry** (:mod:`repro.obs.metrics`) every
  subsystem registers counters/gauges/timers into, snapshot-able at any
  time and merged across pool workers;
* a structured **event tracer** (:mod:`repro.obs.events`) streaming
  JSONL lifecycle events, with an adaptive instruction-boundary
  progress sampler and a heartbeat thread;
* **exporters** (:mod:`repro.obs.export`) that shape the stream into a
  Chrome/Perfetto trace, a Table-8 cycle flamegraph, and plain-text
  liveness lines.

Usage — the CLI's ``--obs DIR [--heartbeat SECS]`` does exactly this::

    from repro import api, obs

    with obs.observe("out/", heartbeat=10, label="characterize"):
        result = api.characterize(instructions=60_000)
    # out/ now holds events.jsonl, trace.json, metrics.json,
    # flamegraph.collapsed

Library code reports through the module-level :func:`emit`, which is a
cheap no-op unless an observation is active, so instrumented hot-ish
paths cost one attribute test when nobody is watching.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.obs import metrics
from repro.obs.events import EventTracer, Heartbeat, ProgressSampler
from repro.obs.export import chrome_trace, flamegraph, heartbeat_line

__all__ = ["Observation", "observe", "active", "emit", "metrics",
           "EventTracer", "Heartbeat", "ProgressSampler",
           "chrome_trace", "flamegraph", "heartbeat_line"]

#: The active observation, or None.  One at a time: observations nest
#: by saving/restoring, but emit() only sees the innermost.
_ACTIVE = None


class Observation:
    """One observed run: an event stream, the registry, exporters.

    Entering the context activates module-level :func:`emit` routing
    and the heartbeat; leaving it writes ``metrics.json``,
    ``trace.json`` and ``flamegraph.collapsed`` next to the live
    ``events.jsonl`` (when a directory was given) and deactivates.
    """

    def __init__(self, directory=None, heartbeat: float = None,
                 label: str = "run", clock=time.monotonic) -> None:
        self.label = label
        #: The process the observation was made in: a forked child
        #: inherits the object but cannot report to it.
        self.pid = os.getpid()
        self.dir = Path(directory) if directory is not None else None
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)
        #: A fresh registry scoped in for the observation's duration, so
        #: ``metrics.json`` describes *this* run, not the whole process.
        self.registry = metrics.MetricsRegistry()
        self.tracer = EventTracer(
            path=self.dir / "events.jsonl" if self.dir else None,
            clock=clock)
        self.heartbeat = Heartbeat(heartbeat, self, clock=clock) \
            if heartbeat else None
        self.outputs = {}
        self._flame_source = None
        self._prev_active = None
        self._registry_scope = None
        self._closed = False

    # -- event/metric surface -----------------------------------------

    @property
    def elapsed(self) -> float:
        return self.tracer.elapsed

    def emit(self, event: str, **fields) -> dict:
        return self.tracer.emit(event, **fields)

    def record_measurement(self, measurement) -> None:
        """Nominate a measurement as the flamegraph source.

        Called as results land (each workload, then the composite); the
        last call wins, so a characterize run flamegraphs its
        composite.
        """
        self._flame_source = measurement

    # -- lifecycle -----------------------------------------------------

    def __enter__(self) -> "Observation":
        global _ACTIVE
        self._prev_active = _ACTIVE
        _ACTIVE = self
        self._registry_scope = metrics.scoped_registry(self.registry)
        self._registry_scope.__enter__()
        self.emit("observation_opened", label=self.label)
        if self.heartbeat is not None:
            self.heartbeat.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE
        _ACTIVE = self._prev_active
        if self._registry_scope is not None:
            self._registry_scope.__exit__(None, None, None)
            self._registry_scope = None
        self.close(error=None if exc_type is None else repr(exc))
        return False

    def close(self, error: str = None) -> dict:
        """Stop the heartbeat, write the exports, close the stream.

        Returns {artifact name -> path} for everything written.
        """
        if self._closed:
            return self.outputs
        self._closed = True
        if self.heartbeat is not None:
            self.heartbeat.stop()
        self.emit("observation_closed", label=self.label,
                  seconds=round(self.elapsed, 6),
                  **({"error": error} if error else {}))
        if self.dir is not None:
            self.outputs["events"] = str(self.dir / "events.jsonl")
            self.outputs["metrics"] = self._write_json(
                "metrics.json",
                {"label": self.label,
                 "elapsed_seconds": round(self.elapsed, 6),
                 "metrics": self.registry.snapshot()})
            self.outputs["trace"] = self._write_json(
                "trace.json", chrome_trace(self.tracer.events))
            if self._flame_source is not None:
                path = self.dir / "flamegraph.collapsed"
                with open(path, "w") as handle:
                    for line in flamegraph(self._flame_source):
                        handle.write(line + "\n")
                self.outputs["flamegraph"] = str(path)
        self.tracer.close()
        return self.outputs

    def _write_json(self, name: str, doc: dict) -> str:
        path = self.dir / name
        with open(path, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
        return str(path)


def observe(directory=None, heartbeat: float = None,
            label: str = "run") -> Observation:
    """An :class:`Observation` ready to be entered as a context."""
    return Observation(directory, heartbeat=heartbeat, label=label)


def active() -> Observation:
    """The currently active observation, or None."""
    return _ACTIVE


def emit(event: str, **fields) -> None:
    """Emit an event to the active observation; no-op when inactive."""
    if _ACTIVE is not None:
        _ACTIVE.emit(event, **fields)


def record_measurement(measurement) -> None:
    """Nominate the flamegraph source on the active observation."""
    if _ACTIVE is not None:
        _ACTIVE.record_measurement(measurement)
