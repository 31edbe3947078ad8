"""A sweep's memory does not grow with the lanes it captures.

The cohort runner keeps no result, and a sweep keeps only each lane's
store record, so a sweep holds one capture at a time.  Two sweeps over
the same cohorts, one capturing at two budgets and one at eight (twelve
more lanes), therefore peak within one measurement of each other.
"""

import tracemalloc

from repro.explore import run_sweep
from repro.explore.space import Axis, SweepSpec
from repro.ucode.controlstore import CONTROL_STORE_SIZE

WORKLOADS = ("timesharing-research", "rte-commercial")

#: The bulk of one Measurement: its histogram's two count sets of
#: signed 64-bit buckets.
MEASUREMENT_BYTES = 2 * CONTROL_STORE_SIZE * 8


def budget_sweep(budgets) -> SweepSpec:
    return SweepSpec("flat-memory", (Axis("instructions", budgets),),
                     instructions=budgets[0], workloads=WORKLOADS)


def traced_peak(spec) -> int:
    """Bytes the sweep's run adds at its peak, over what it starts on."""
    tracemalloc.reset_peak()
    start = tracemalloc.get_traced_memory()[0]
    sweep = run_sweep(spec, jobs=1, engine="batch")
    peak = tracemalloc.get_traced_memory()[1] - start
    budgets = spec.axes[0].values
    assert sweep.stats["simulated"] == len(budgets) * len(WORKLOADS)
    return peak


def test_peak_does_not_grow_with_captured_budgets():
    two = budget_sweep((200, 1600))
    eight = budget_sweep(tuple(range(200, 1601, 200)))
    # Pay every one-off cache and import before anything is traced.
    run_sweep(two, jobs=1, engine="batch")
    tracemalloc.start()
    try:
        peaks = [traced_peak(two), traced_peak(eight)]
    finally:
        tracemalloc.stop()
    assert abs(peaks[1] - peaks[0]) < MEASUREMENT_BYTES, peaks
