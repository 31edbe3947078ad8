"""repro.batch: the cohort runner, the one path every run takes.

Measurements are requested as lanes (workload × params × budget × seed
× machine).  The runner groups them into cohorts, boots one machine per
cohort, runs it through the scalar run loop to each budget and
captures there, one cohort at a time in this process or fanned out
over worker processes — results bit-identical to an independent
:meth:`~repro.osim.executive.Executive.run` lane for lane.  The
workload engine, design-space sweeps and serve's fusion all run
through it.  See :mod:`repro.batch.lanes` for the fusion rule and
:mod:`repro.batch.engine` for the identity argument.

Engine selection (``--engine`` on the CLI, ``engine=`` on the facade)
decides only whether lanes that differ in budget alone share a machine
(``batch``) or not (``scalar``; ``auto`` fuses when any would).  It is
validated here so every entry point rejects a bad name the same way,
before any simulation runs.
"""

from __future__ import annotations

from repro.batch.engine import BatchRunner, LaneResult, run_lanes
from repro.batch.lanes import Cohort, LaneSpec, plan_cohorts
from repro.errors import ApiError

__all__ = ["ENGINES", "EngineError", "validate_engine",
           "BatchRunner", "Cohort", "LaneResult", "LaneSpec",
           "plan_cohorts", "run_lanes"]

#: Legal values everywhere an engine can be chosen.
ENGINES = ("scalar", "batch", "auto")


class EngineError(ApiError):
    """An engine name outside the accepted set."""


def validate_engine(name, choices=ENGINES) -> str:
    """Normalize and validate an engine name (None means scalar).

    Raises :class:`EngineError` — an :class:`~repro.errors.ApiError` —
    listing the valid engines, so callers can reject bad input before
    simulating, consistent with the ``--table``/axis pre-validation
    pattern.
    """
    if name is None:
        return "scalar"
    if name not in choices:
        raise EngineError(f"unknown engine {name!r}; choose from "
                          f"{', '.join(choices)}")
    return name
