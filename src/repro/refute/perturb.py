"""Planted timing-rule perturbations for the refutation self-check.

A refutation loop that never fires is indistinguishable from one that
cannot fire.  Each perturbation here is a deliberately wrong one-line
change to a timing rule — the off-by-ones a real regression would
introduce — installed behind a context manager instead of being edited
into the source.  The self-check campaign runs once per plant and must
detect every one, shrink it to a minimal reproducer, and attribute it
to the assumptions named in ``expect``; a plant that slips through
means the loop itself is broken.

Perturbations patch *class* attributes (never instances) and the
context manager restores the originals even on error, so a planted
campaign leaves no trace in the process.  A fast-path plant patches
:class:`~repro.cpu.ebox.EBox`, the class every registered machine
builds by default, while the reference machines the differential
fuzzer builds through the same registry override the patched methods;
the campaign fuzzes every machine it names, so such a plant is probed
on each backend.  Pool workers apply their plant inside the worker
(the name travels in the task payload), so a planted run is
deterministic regardless of the multiprocessing start method or
``--jobs``.

This module deliberately imports nothing from :mod:`repro.validate` or
:mod:`repro.refute.assumptions` (the patch targets are imported lazily
inside the installers), so the differential fuzzer can thread plants
through its worker payloads without an import cycle.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass


@dataclass(frozen=True)
class Perturbation:
    """One planted bug: what it breaks and who must catch it."""

    name: str
    description: str
    #: Assumption names that MUST flag this plant for the self-check to
    #: pass.  Other assumptions may also fire (an extra timing cycle
    #: breaks conservation *and* ubench exactness, say); the check only
    #: requires that ``expect`` is a subset of the detectors.
    expect: tuple
    #: Zero-argument installer; returns the undo callable.
    install: object


def _install_ib_take_extra_cycle():
    """Fast-path ``ib_take`` charges one extra, uncounted cycle.

    :class:`~repro.validate.differential.ReferenceEBox` overrides
    ``ib_take``, so only the optimised engine is skewed — the classic
    fast-path-only regression, on every machine.  The extra ``tick``
    advances time without a histogram count, so cycle conservation
    breaks too.
    """
    from repro.cpu.ebox import EBox

    original = EBox.ib_take

    def ib_take(self, nbytes, stall_upc):
        original(self, nbytes, stall_upc)
        self.tick(1)

    EBox.ib_take = ib_take

    def undo():
        EBox.ib_take = original

    return undo


def _install_batch_capture_extra_count():
    """Each batch capture reads one extra count in nonstalled bucket 7.

    The count is on the live board only while
    :meth:`~repro.batch.engine.BatchRunner._capture` snapshots it, so
    the board is left as found and the run goes on unchanged.  Every
    engine run captures there, but the independent references the
    batch↔scalar identity compares against
    (``validate.differential._scalar_lane``, ``refute``'s
    ``simulate_point``) capture after their own :meth:`Executive.run`,
    so that identity is the one contract that can see it.
    """
    from repro.batch.engine import BatchRunner

    original = BatchRunner._capture

    def _capture(self, state):
        board = state.machine.board
        board.nonstalled[7] += 1
        try:
            original(self, state)
        finally:
            board.nonstalled[7] -= 1

    BatchRunner._capture = _capture

    def undo():
        BatchRunner._capture = original

    return undo


def _install_stall_charge_dropped():
    """Each board silently drops one cycle from its first stall charge.

    Every engine shares :class:`~repro.monitor.histogram.HistogramBoard`,
    so the batch↔scalar comparison stays clean and the conservation
    laws — histogram busy+stall must equal measured cycles — are the
    contract that must catch it.
    """
    from repro.monitor.histogram import HistogramBoard

    original = HistogramBoard.count_stall

    def count_stall(self, address, cycles):
        if self.enabled and cycles \
                and not getattr(self, "_refute_stall_dropped", False):
            self._refute_stall_dropped = True
            original(self, address, cycles - 1)
            return
        original(self, address, cycles)

    HistogramBoard.count_stall = count_stall

    def undo():
        HistogramBoard.count_stall = original

    return undo


#: name -> Perturbation, in a fixed order (the self-check iterates it).
PERTURBATIONS = {
    plant.name: plant
    for plant in (
        Perturbation(
            name="ib-take-extra-cycle",
            description="fast-path ib_take ticks one extra uncounted "
                        "cycle (fast engine only)",
            expect=("fastpath-reference-identity", "conservation-laws"),
            install=_install_ib_take_extra_cycle),
        Perturbation(
            name="batch-capture-extra-count",
            description="batch capture adds 1 to nonstalled bucket 7 "
                        "of each fused capture (batch engine only)",
            expect=("batch-scalar-identity",),
            install=_install_batch_capture_extra_count),
        Perturbation(
            name="stall-charge-dropped",
            description="each histogram board drops one cycle from its "
                        "first stall charge (every engine equally)",
            expect=("conservation-laws",),
            install=_install_stall_charge_dropped),
    )
}


def perturbation_names() -> tuple:
    """The registered plant names, in self-check order."""
    return tuple(PERTURBATIONS)


@contextmanager
def perturbation(name):
    """Install the named plant for the duration of the block.

    ``None`` is the no-op plant, so call sites can thread an optional
    plant without branching.  Unknown names raise ``ValueError`` before
    anything is patched.
    """
    if name is None:
        yield None
        return
    plant = PERTURBATIONS.get(name)
    if plant is None:
        raise ValueError(
            f"unknown perturbation {name!r}; registered plants: "
            f"{', '.join(PERTURBATIONS)}")
    undo = plant.install()
    try:
        yield plant
    finally:
        undo()
