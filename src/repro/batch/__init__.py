"""repro.batch: the batch execution engine.

A second way to run measurements: many lanes (workload × params ×
budget × seed × machine), with budget-only variants fused onto shared
machines and each cohort run once through the scalar run loop, one
cohort at a time — results bit-identical to the scalar engine lane for
lane.  See :mod:`repro.batch.lanes` for the fusion rule and
:mod:`repro.batch.engine` for the identity argument.

Engine selection (``--engine`` on the CLI, ``engine=`` on the facade)
is validated here so every entry point rejects a bad name the same
way, before any simulation runs.
"""

from __future__ import annotations

from repro.batch.engine import BatchRunner, LaneResult, run_lanes
from repro.batch.lanes import Cohort, LaneSpec, plan_cohorts

__all__ = ["ENGINES", "EngineError", "validate_engine",
           "BatchRunner", "Cohort", "LaneResult", "LaneSpec",
           "plan_cohorts", "run_lanes"]

#: Legal values everywhere an engine can be chosen.
ENGINES = ("scalar", "batch", "auto")


class EngineError(ValueError):
    """An engine name outside the accepted set."""


def validate_engine(name, choices=ENGINES) -> str:
    """Normalize and validate an engine name (None means scalar).

    Raises :class:`EngineError` — a ``ValueError`` — listing the valid
    engines, so callers can reject bad input before simulating,
    consistent with the ``--table``/axis pre-validation pattern.
    """
    if name is None:
        return "scalar"
    if name not in choices:
        raise EngineError(f"unknown engine {name!r}; choose from "
                          f"{', '.join(choices)}")
    return name
