"""A run loads only what it executes.

A fresh interpreter that boots a 780 executive and runs a smoke
characterize through the facade must not import numpy or any module the
run never calls: the subpackages re-export nothing, so importing
``repro.cpu`` (say) does not drag in the instruction tracer.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")

#: Modules no characterize run calls; each once came in through numpy or
#: a package ``__init__`` re-export.
UNUSED = ("numpy", "repro.cpu.itrace", "repro.arch.disasm",
          "repro.machines.analytical", "repro.workloads.trace",
          "repro.monitor.session", "repro.monitor.unibus")

SCRIPT = """
import json, sys
from repro import api
from repro.machines.registry import get_machine
from repro.osim.executive import Executive
from repro.workloads.registry import get_workload

spec = get_machine("vax780")
executive = Executive(spec.build(), spec.adapt_profile(
    get_workload("timesharing-research").profile), 1984)
executive.boot()
executive.run(200)
result = api.characterize(smoke=True, table="8")
print(json.dumps({"cpi": result.cycles_per_instruction,
                  "modules": sorted(sys.modules)}))
"""


def test_a_smoke_characterize_imports_nothing_it_does_not_run():
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300,
                          check=True)
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["cpi"] > 0
    loaded = set(report["modules"])
    assert "repro.cpu.machine" in loaded      # the probe saw the run
    assert sorted(loaded.intersection(UNUSED)) == []
