"""Run ``repro serve`` with one of the benchmark's instruments installed.

    python serve_boot.py traced|paced OUT serve --port 0 --store DIR

``traced`` installs the span wrappers of :mod:`spans`; ``paced`` starts
a :class:`pace.Pacer` in the server's main thread.  Then the remaining
arguments go to ``repro.cli.main``, as ``python -m repro`` would pass
them.  Once the server has drained and stopped (SIGTERM), the recorded
spans, or the pacer's runs of the reference loop, are written to OUT as
JSON.
"""

from __future__ import annotations

import json
import sys

import pace


def main(argv) -> int:
    mode, out, cli_args = argv[0], argv[1], argv[2:]
    if mode == "traced":
        import spans

        recorder = spans.Recorder()
        spans.install(recorder)
    elif mode == "paced":
        pacer = pace.Pacer()
        pacer.start()
    else:
        raise SystemExit(f"unknown mode {mode!r}: traced or paced")
    from repro.cli import main as cli_main

    code = cli_main(cli_args)
    if mode == "paced":
        pacer.stop()
    with open(out, "w") as handle:
        json.dump(recorder.spans if mode == "traced" else pacer.bursts,
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
