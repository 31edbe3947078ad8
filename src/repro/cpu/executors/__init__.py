"""Execute micro-routines, one per microcode family.

Importing this package registers every executor with
:mod:`repro.ucode.registry`; :func:`listing` then allocates annotated
control-store addresses for each routine's slots, once per process.

Executor signature: ``execute(ebox, inst, ops, u) -> next_pc_or_None``
where ``ops`` is the list of evaluated :class:`OperandRef` objects and
``u`` maps the routine's slot names to control-store addresses.
"""

import functools

from repro.cpu.executors import simple      # noqa: F401
from repro.cpu.executors import field       # noqa: F401
from repro.cpu.executors import floating    # noqa: F401
from repro.cpu.executors import callret     # noqa: F401
from repro.cpu.executors import system      # noqa: F401
from repro.cpu.executors import string      # noqa: F401
from repro.cpu.executors import decimal     # noqa: F401
from repro.ucode.controlstore import ControlStore
from repro.ucode.map import MicrocodeMap


@functools.cache
def listing() -> tuple:
    """The microcode listing: the process's one (control store,
    microcode map) pair, which every machine runs and every histogram
    reduction reads.  Nothing allocates into it after this call."""
    store = ControlStore()
    return store, MicrocodeMap(store)
