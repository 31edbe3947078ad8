"""Content-addressed on-disk store for design-space results.

Every simulated point is stored under a key derived from everything
that determines its outcome: the full :class:`MachineParams`, the
workload name, the instruction budget, the seed, and a digest of the
simulator's own source (the *code version*).  Re-running a sweep
therefore only simulates points the store has never seen — interrupted
sweeps resume for free, and a simulator change silently invalidates
every stale result instead of serving it.

Records are small JSON summaries (cycle counts, histogram totals and
digest, the Table 8 reduction cells, decode/stall counters) rather than
raw histograms: the reduction is linear, so per-workload cells sum into
per-point composites exactly as the paper sums its five histograms.
Writes are atomic (temp file + rename), so a killed sweep never leaves
a truncated record behind.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path

from repro.obs import metrics
from repro.params import MachineParams

#: Bump when the record layout changes; part of every key.
#: 2: keys and records carry the machine backend name.
SCHEMA = 2


#: Package prefixes and modules excluded from the code-version digest:
#: they observe or present results without shaping them.  Everything
#: else — notably the cycle model and the batch engine
#: (``batch/``), whose bugs would change stored records — is hashed.
#: ``refute/`` only *reads* simulations (its planted perturbations are
#: installed per-run behind a context manager and never write through
#: a store), so it is excluded like the other observers.
_UNHASHED = (("explore/", "report/", "validate/", "obs/", "serve/",
              "refute/"),
             ("cli.py", "api.py"))


def hashed_paths() -> tuple:
    """Relative source paths the code version digests, sorted.

    Exposed so tests can pin coverage: a result-shaping module (the
    batch engine, say) silently dropping out of the digest would serve
    stale records after the very bug class the digest guards against.
    """
    import repro

    root = Path(repro.__file__).parent
    prefixes, names = _UNHASHED
    return tuple(
        path.relative_to(root).as_posix()
        for path in sorted(root.rglob("*.py"))
        if not (path.relative_to(root).as_posix().startswith(prefixes)
                or path.relative_to(root).as_posix() in names))


@functools.lru_cache(maxsize=1)
def code_version() -> str:
    """Digest of the simulator source that determines stored results.

    Hashes every module of the ``repro`` package except the explore
    subsystem itself, the validation checks, the observability layer,
    the report renderers, the job server, the API facade and the CLI —
    those observe or present results without shaping them, so iterating
    on them keeps a warm store warm.  (The serve layer's own
    canonicalization changes are guarded separately by its
    ``SERVE_SCHEMA`` key component.)  The batch execution engine IS
    hashed: its fused runs produce the stored records, so a
    batch-engine change must invalidate them.
    """
    import repro

    root = Path(repro.__file__).parent
    digest = hashlib.sha256()
    for rel in hashed_paths():
        digest.update(rel.encode())
        digest.update(b"\0")
        digest.update((root / rel).read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()[:16]


def result_key(params: MachineParams, workload: str, instructions: int,
               seed: int, code: str = None,
               machine: str = "vax780") -> str:
    """The content address of one (params, workload, seed) simulation.

    ``machine`` names the backend (see :mod:`repro.machines`): two
    machines can share identical params yet adapt the workload profile
    differently, so the name is part of the address.
    """
    payload = {
        "schema": SCHEMA,
        "code": code_version() if code is None else code,
        "workload": workload,
        "instructions": instructions,
        "seed": seed,
        "machine": machine,
        "params": {name: (list(value) if isinstance(value, tuple)
                          else value)
                   for name, value in asdict(params).items()},
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class ResultStore:
    """A directory of content-addressed result records.

    Layout: ``<root>/objects/<key[:2]>/<key>.json``.  ``hits`` and
    ``misses`` count lookups since construction, so callers (and the
    warm-store tests) can see exactly how much simulation a sweep
    skipped.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.root / "objects" / key[:2] / f"{key}.json"

    def check(self) -> None:
        """Create the root if needed; raise ``OSError`` if it cannot hold
        records (a path under a regular file, an unwritable directory).

        Callers run this before anything simulates, so an unusable store
        is refused up front instead of failing at the first :meth:`put`.
        """
        objects = self.root / "objects"
        objects.mkdir(parents=True, exist_ok=True)
        if not os.access(objects, os.W_OK | os.X_OK):
            raise PermissionError(f"cannot write to {objects}")

    def get(self, key: str):
        """The stored record for ``key``, or None.

        A missing file is an ordinary miss; a file that exists but does
        not parse (truncated by a crash before atomic writes, bit rot,
        hand editing) is a miss that warns *and quarantines* — the file
        is renamed to ``<key>.json.corrupt`` so a poisoned entry is
        re-read (and re-warned about) at most once instead of on every
        subsequent lookup, and the next successful simulation can
        re-populate the key.  Quarantined files are left on disk for
        post-mortem inspection; :meth:`stats` counts them.
        """
        path = self._path(key)
        try:
            with open(path) as handle:
                record = json.load(handle)
        except FileNotFoundError:
            self.misses += 1
            metrics.counter("explore.store.misses").inc()
            return None
        except (OSError, json.JSONDecodeError) as exc:
            quarantined = self._quarantine(path)
            warnings.warn(
                f"discarding unreadable store entry {path}: {exc}"
                + (f" (quarantined as {quarantined.name})"
                   if quarantined else ""), stacklevel=2)
            self.misses += 1
            metrics.counter("explore.store.misses").inc()
            return None
        self.hits += 1
        metrics.counter("explore.store.hits").inc()
        return record

    def _quarantine(self, path: Path):
        """Move an unreadable entry aside; None if the rename failed."""
        target = path.with_name(path.name + ".corrupt")
        try:
            os.replace(path, target)
        except OSError:
            return None
        metrics.counter("explore.store.quarantined").inc()
        return target

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def put(self, key: str, record: dict) -> None:
        """Atomically persist ``record`` under ``key``."""
        path = self._path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(record, handle, sort_keys=True)
                handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp, path)
            metrics.counter("explore.store.writes").inc()
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def __len__(self) -> int:
        objects = self.root / "objects"
        if not objects.is_dir():
            return 0
        return sum(1 for _ in objects.glob("*/*.json"))

    def stats(self) -> dict:
        """Inventory of the store: entries, bytes, version breakdown.

        ``versions`` buckets entries by the ``schema``/``code`` fields
        recorded inside each record (records predating those fields
        land in the ``"schema=? code=?"`` bucket); ``machines`` buckets
        them by backend (records predating the machine field count as
        ``vax780``, the only backend that existed); ``workloads`` buckets
        them by workload name (composite-level serve records count as
        ``composite``); ``quarantined``
        counts entries :meth:`get` moved aside as unreadable.  Reads
        every record, so this is a reporting call (``repro explore
        --json``, the serve ``/metrics`` endpoint), not a hot-path one.
        """
        entries = 0
        size = 0
        quarantined = 0
        versions: dict = {}
        machines: dict = {}
        workloads: dict = {}
        objects = self.root / "objects"
        if objects.is_dir():
            for path in sorted(objects.glob("*/*")):
                if path.name.endswith(".corrupt"):
                    quarantined += 1
                    continue
                if path.suffix != ".json":
                    continue
                try:
                    text = path.read_text()
                    stat = path.stat()
                except OSError:
                    continue
                entries += 1
                size += stat.st_size
                try:
                    record = json.loads(text)
                except json.JSONDecodeError:
                    label = "unreadable"
                    machine = "unreadable"
                    workload = "unreadable"
                else:
                    label = (f"schema={record.get('schema', '?')} "
                             f"code={record.get('code', '?')}")
                    workload = record.get("workload")
                    if workload is None:
                        # Serve records name it inside the canonical
                        # params ("workload", or "profile" before
                        # SERVE_SCHEMA 3).
                        params = record.get("params")
                        if isinstance(params, dict):
                            workload = params.get("workload") \
                                or params.get("profile")
                    workload = workload or "composite"
                    machine = record.get("machine")
                    if machine is None:
                        # Serve records carry it inside the canonical
                        # params; sweep records predating the field
                        # can only be the 780.
                        params = record.get("params")
                        machine = (params or {}).get("machine") \
                            if isinstance(params, dict) else None
                        machine = machine or "vax780"
                versions[label] = versions.get(label, 0) + 1
                machines[machine] = machines.get(machine, 0) + 1
                workloads[workload] = workloads.get(workload, 0) + 1
        return {"entries": entries, "bytes": size,
                "quarantined": quarantined, "versions": versions,
                "machines": machines, "workloads": workloads}
