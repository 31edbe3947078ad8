#!/usr/bin/env python
"""Regenerate the committed results, each with the one command that
writes it.

Usage::

    python tools/artifacts.py                  # every artifact
    python tools/artifacts.py UBENCH.json ...  # only the named ones

Each command runs from the repository root under ``PYTHONPATH=src
PYTHONHASHSEED=0`` and writes into a scratch copy of its artifact,
named as its last argument.  The artifact is rewritten only when the
fresh content differs from the committed content outside timing
(:func:`untimed`), so ``python tools/artifacts.py && git diff
--exit-code`` fails exactly when a committed result is stale.

Gates are not in the table: ``tests/workloads/program_digests.json``
and ``tests/serve/key_corpus.json`` pin code, and their tests say how
to regenerate them.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: artifact path -> the command that writes it (``python`` arguments;
#: the output path is appended).  ``repro.report.experiments`` rewrites
#: only the marked block of the file it is given.
ARTIFACTS = {
    "EXPERIMENTS.md": ("-m", "repro.report.experiments"),
    "WORKLOADS.json": ("-m", "repro.report.workloads"),
    "MACHINES.json": ("-m", "repro.report.machines"),
    "UBENCH.json": ("-m", "repro", "ubench", "--jobs", "2", "--json"),
    "EXPLORE.json": ("-m", "repro", "explore", "--spec",
                     "paper-sensitivity", "--no-store", "--jobs", "2",
                     "--json"),
    "REFUTATIONS.json": ("-m", "repro", "refute", "--jobs", "2",
                         "--json"),
}


def untimed(value):
    """``value`` without any key named ``seconds``, at any depth."""
    if isinstance(value, dict):
        return {key: untimed(item) for key, item in value.items()
                if key != "seconds"}
    if isinstance(value, list):
        return [untimed(item) for item in value]
    return value


def content(path: str):
    """What a staleness check compares: a JSON document untimed, any
    other file as text; None when there is no file."""
    if not os.path.exists(path):
        return None
    with open(path) as handle:
        text = handle.read()
    return untimed(json.loads(text)) if path.endswith(".json") else text


def regenerate(name: str, scratch: str) -> None:
    """Run ``name``'s command; rewrite the artifact if it is stale."""
    committed = os.path.join(REPO, name)
    fresh = os.path.join(scratch, os.path.basename(name))
    if os.path.exists(committed):
        shutil.copyfile(committed, fresh)
    env = dict(os.environ, PYTHONPATH="src", PYTHONHASHSEED="0")
    command = (sys.executable, *ARTIFACTS[name], fresh)
    start = time.perf_counter()
    run = subprocess.run(command, cwd=REPO, env=env, capture_output=True,
                         text=True)
    if run.returncode:
        sys.stdout.write(run.stdout + run.stderr)
        raise SystemExit(f"{name}: `{' '.join(command)}` exited "
                         f"{run.returncode}")
    stale = content(fresh) != content(committed)
    if stale:
        shutil.copyfile(fresh, committed)
    print(f"{name}: {'rewritten' if stale else 'current'} "
          f"({time.perf_counter() - start:.0f} s)", flush=True)


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or list(ARTIFACTS)
    unknown = [name for name in names if name not in ARTIFACTS]
    if unknown:
        raise SystemExit(f"not a committed artifact: {', '.join(unknown)} "
                         f"(choose from {', '.join(ARTIFACTS)})")
    with tempfile.TemporaryDirectory(prefix="artifacts-") as scratch:
        for name in names:
            regenerate(name, scratch)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
