"""Determinism and serial/parallel equivalence of the measurement runs.

The performance work (fast-forwarded idle windows, inlined hot paths,
process-level parallelism) is only admissible because it changes *when
wall-clock time is spent*, never *what is counted*.  These tests pin
that contract: repeated serial runs are bit-identical, and the
process-pool path (``run_many(jobs=5)``: the cohort runner's fan-out)
produces byte-for-byte the same measurements as the serial path for the
same seed.
"""

import time

from repro.workloads import engine, parallel
from repro.workloads.profiles import STANDARD_PROFILES

INSTRUCTIONS = 1500
SEED = 1984


def _fingerprint(measurement):
    """Every observable of a measurement, as a comparable value."""
    h = measurement.histogram
    return (
        measurement.cycles,
        list(h.nonstalled),
        list(h.stalled),
        {name: getattr(measurement.tracer, name)
         for name in measurement.tracer._SCALARS},
        measurement.tracer.group_counts,
        vars(measurement.memory)
        if hasattr(measurement.memory, "__dict__")
        else {s: getattr(measurement.memory, s)
              for klass in type(measurement.memory).__mro__
              for s in getattr(klass, "__slots__", ())},
    )


def _serial_composite():
    engine.clear_cache()
    return engine.standard_composite(instructions=INSTRUCTIONS,
                                          seed=SEED)


def test_serial_runs_are_bit_identical():
    start = time.perf_counter()
    composite = _serial_composite()
    elapsed = time.perf_counter() - start
    instructions = composite.tracer.instructions
    assert instructions == len(STANDARD_PROFILES) * INSTRUCTIONS
    assert instructions / elapsed > 1_000   # sanity floor, far below real
    first = _fingerprint(composite)
    second = _fingerprint(_serial_composite())
    assert first == second


def test_parallel_matches_serial_bit_for_bit():
    engine.clear_cache()
    serial = engine.run_standard_experiments(
        instructions=INSTRUCTIONS, seed=SEED)
    engine.clear_cache()
    parallel_runs = engine.run_many(instructions=INSTRUCTIONS, seed=SEED,
                                    jobs=5)
    assert set(serial) == set(parallel_runs)
    for name in serial:
        assert _fingerprint(serial[name]) == \
            _fingerprint(parallel_runs[name]), \
            f"workload {name} diverged between serial and parallel runs"


def test_parallel_composite_matches_serial_composite():
    engine.clear_cache()
    serial = engine.standard_composite(instructions=INSTRUCTIONS,
                                            seed=SEED)
    engine.clear_cache()
    parallel_composite = engine.standard_composite(
        instructions=INSTRUCTIONS, seed=SEED, jobs=5)
    assert _fingerprint(serial) == _fingerprint(parallel_composite)


def test_parallel_jobs_one_is_in_process(monkeypatch):
    """jobs=1 must not spawn workers (it is the serial path)."""
    def no_pool(*args, **kwargs):
        raise AssertionError("jobs=1 opened a process pool")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", no_pool)
    engine.clear_cache()
    results = engine.run_many(instructions=INSTRUCTIONS, seed=SEED,
                              jobs=1)
    assert len(results) == len(STANDARD_PROFILES)
