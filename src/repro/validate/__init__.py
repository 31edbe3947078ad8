"""Runtime validation: conservation invariants and differential fuzzing.

The paper's method rests on exact accounting — every cycle of a measured
run lands in exactly one Table 8 cell, and the µPC histogram's busy +
stall totals equal elapsed machine cycles.  This package turns those
contracts into permanent, executable checks:

* :mod:`repro.validate.invariants` — conservation laws checked against
  any completed :class:`~repro.analysis.measurement.Measurement`.
* :mod:`repro.validate.differential` — the optimised EBOX fast paths run
  in lockstep against the per-cycle reference implementations on seeded
  random generator workloads, on any registered machine (both built
  through the machine registry), comparing whole measurements, with
  failing runs shrunk to the first divergent boundary; a second axis
  differences the batch engine (:mod:`repro.batch`) against
  independent scalar runs the same way.
* :mod:`repro.validate.paranoid` — a boundary-hook monitor that samples
  the invariants during long runs at bounded overhead.
"""

from repro.validate.invariants import (Check, InvariantViolation,
                                       ValidationReport, check_machine,
                                       check_measurement)
from repro.validate.differential import (Divergence, ReferenceEBox,
                                         fuzz, fuzz_batch, run_case,
                                         run_case_batch, shrink,
                                         shrink_batch)
from repro.validate.paranoid import ParanoidMonitor

__all__ = ["Check", "InvariantViolation", "ValidationReport",
           "check_machine", "check_measurement", "Divergence",
           "ReferenceEBox", "fuzz", "fuzz_batch", "run_case",
           "run_case_batch", "shrink", "shrink_batch",
           "ParanoidMonitor"]
