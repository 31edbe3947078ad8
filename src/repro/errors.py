"""The one bad-input error.

An argument outside its domain — an unknown name, a count below its
minimum, a workload a machine refuses, a path that cannot hold the
output — raises :class:`ApiError`, or one of the domain errors that
subclass it (``MachineError``, ``WorkloadError``, ``TraceError``,
``SpaceError``, ``EngineError``, ``LayoutError``, ``RefuteError``,
``SourceError``), before anything simulates.  Nothing converts one
into another: the CLI exits 2 on this class and the job server answers
400 on it.  This module imports nothing, so every layer can raise it.
"""


class ApiError(ValueError):
    """A bad argument, refused before anything runs (CLI exit 2, 400)."""
