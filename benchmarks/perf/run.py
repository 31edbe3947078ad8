#!/usr/bin/env python3
"""The repository benchmark: four workloads, end to end and per layer.

Run from the repository root::

    python3 benchmarks/perf/run.py --seed 1984 --out results.json
    python3 benchmarks/perf/run.py --workload zoo-uvax --seed 7 --trace 1
    python3 benchmarks/perf/run.py --traced --out traced.json
    python3 benchmarks/perf/run.py --compare PARENT.json CHANGE.json

Every sample runs in a fresh child interpreter, one child at a time,
on the programs (for serve-mix, the request stream) ``--seed``
generates.  Each selected workload gets ``run_seconds`` of samples (from
BENCHMARK.json); with several workloads the samples interleave (W1
sample 1, W2 sample 1, ...) so a slow stretch of the host spreads across
all of them.  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``, timed at the
reference speed of the pacer every measured process runs (see
``pace.py``); ``--trace 1``
runs the same samples with spans wrapped around each layer (see
``spans.py``) and reports the per-layer metrics; ``--traced`` runs both
passes and reports the tracing overhead.  The last line of output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads, the metrics and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import pace
import sample
import serve_mix
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")
#: Run-to-run spreads measured by spread.py, read by --compare.
SPREADS = os.path.join(HERE, "baseline", "spread.json")

PAPER_COMPOSITE = sample.PAPER_COMPOSITE
SERVE_MIX = "serve-mix"
WORKLOADS = (PAPER_COMPOSITE, sample.ZOO_UVAX, sample.SWEEP_BUDGET,
             SERVE_MIX)

#: A child that has not answered by then is killed; the run goes on.
SAMPLE_TIMEOUT_S = 120
#: The traced pass must attribute this share of the uncached operation's
#: wall to named layers on these workloads.
LEDGER_COVERAGE = 0.95
LEDGER_WORKLOADS = (PAPER_COMPOSITE, sample.ZOO_UVAX)
#: A percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10
#: Pooled percentiles of every workload's timed cached operations:
#: metric -> (sample field, percentile).  A sample times at least
#: sample.MIN_HITS of them, so p50 always qualifies and p95 with two
#: samples.
TAILS = {"hit_p50_ms": ("hit", 50), "hit_p95_ms": ("hit", 95)}
#: serve-mix only.  A sample's mix has about 19 store hits; p75 is the
#: highest percentile that leaves ten beyond it with three samples.
SERVE_TAILS = {"mix_hit_p75_ms": ("mix_hit", 75)}

#: Self-time layer metric -> span name (see spans.TARGETS).
SELF_TIMES = {
    "machines.build_s": "machines.build",
    "workloads.codegen_s": "workloads.codegen",
    "osim.kernelgen_s": "osim.kernelgen",
    "osim.executive_init_self_s": "osim.executive_init",
    "osim.run_s": "osim.run",
    "analysis.capture_s": "analysis.capture",
    "analysis.composite_s": "analysis.composite",
    "analysis.tables_s": "analysis.tables",
    "report.render_s": "report.render",
    "api.self_s": "api",
    "batch.run_s": "batch.run",
    "explore.code_version_s": "explore.code_version",
    "explore.sensitivity_s": "explore.sensitivity",
    "explore.record_s": "explore.record",
}
#: Per-call layer metric (milliseconds, pooled over samples) -> span name.
CALL_TIMES = {
    "explore.store_get_ms": "explore.store_get",
    "explore.store_put_ms": "explore.store_put",
    "serve.submit_ms": "serve.submit",
    "serve.parse_request_ms": "serve.parse_request",
    "serve.request_key_ms": "serve.request_key",
}
#: Event-rate layer metric -> (machine counter, events per how many
#: measured instructions).
RATES = {
    "cpu.ib_refs_per_instr": ("ib_refs", 1),
    "cpu.overlapped_decodes_per_instr": ("overlapped_decodes", 1),
    "mem.read_misses_per_instr": ("read_misses", 1),
    "mem.write_stall_cycles_per_instr": ("write_stall_cycles", 1),
    "vm.tb_misses_per_instr": ("tb_misses", 1),
    "osim.interrupts_per_kinstr": ("interrupts", 1000),
    "osim.context_switches_per_kinstr": ("context_switches", 1000),
}


def load_json(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def benchmark_spec() -> dict:
    return load_json(os.path.join(ROOT, "BENCHMARK.json"))


def metric_catalog() -> dict:
    """metrics.json: end-to-end extras, layer metrics, ledger figures."""
    return load_json(os.path.join(HERE, "metrics.json"))


# -- statistics ---------------------------------------------------------------


def quartiles(values) -> tuple:
    """(q1, median, q3) by ``statistics.quantiles``' exclusive method."""
    values = sorted(values)
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def tail_supported(count: int, pct: int) -> bool:
    """Whether ``count`` samples leave enough of them beyond ``pct``."""
    return count * (100 - pct) >= TAIL_SAMPLES * 100


def percentile(values, pct: int):
    """The ``pct`` percentile, or None without enough samples beyond it."""
    if not tail_supported(len(values), pct):
        return None
    return statistics.quantiles(values, n=100)[pct - 1]


def summary(values, unit: str) -> dict:
    """Median, quartiles and count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            "unit": unit}


# -- sampling -----------------------------------------------------------------


def run_sample(workload: str, seed: int, traced: bool) -> dict:
    """One sample of a run, in a fresh child (or server).

    Every sample of a run measures the same programs, so a median does
    not depend on how many samples fit in the run, and repeats check
    that the answer does not change.
    """
    workdir = os.path.join(OUT_DIR, "work")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        if workload == SERVE_MIX:
            return serve_mix.run_sample(SRC, seed, traced, workdir)
        command = [sys.executable, os.path.join(HERE, "sample.py"),
                   workload, str(seed), "1" if traced else "0", workdir]
        spawned = time.monotonic()
        proc = subprocess.run(command, cwd=workdir, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC),
                              capture_output=True, timeout=SAMPLE_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"sample exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        doc = json.loads(lines[-1])
        doc["spawned"] = spawned
        return doc
    except (OSError, RuntimeError, ValueError,
            subprocess.TimeoutExpired) as exc:
        attempted = serve_mix.ATTEMPTED if workload == SERVE_MIX \
            else 1 + sample.MIN_HITS
        return {"crashed": True, "attempted": attempted,
                "failed": attempted, "problems": [str(exc)]}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(workloads, seed: int, seconds: float, traced: bool) -> dict:
    """Interleaved, time-boxed samples: workload -> [sample doc, ...].

    A workload starts another sample only while its time so far plus
    its longest sample still fits in ``seconds``; it always gets one.
    """
    samples = {name: [] for name in workloads}
    spent = dict.fromkeys(workloads, 0.0)
    longest = dict.fromkeys(workloads, 0.0)
    while True:
        due = [name for name in workloads if not samples[name]
               or spent[name] + longest[name] <= seconds]
        if not due:
            return samples
        for name in due:
            started = time.monotonic()
            samples[name].append(run_sample(name, seed, traced))
            took = time.monotonic() - started
            spent[name] += took
            longest[name] = max(longest[name], took)


# -- aggregation --------------------------------------------------------------


def wall_ms(doc: dict, key: str) -> list:
    """Latency of each of a sample's ``key`` operations on the wall clock,
    less the time the pacer's reference loop took inside it."""
    bursts = doc.get("bursts", [])
    return [(end - start - pace.paused(bursts, start, end)) * 1000
            for start, end in doc[key]]


def reference_ms(doc: dict, key: str) -> list:
    """The same latencies at the reference speed, taking the host's
    speed over the whole phase the operations span (see pace.py)."""
    intervals = doc[key]
    if not intervals:
        return []
    rate = pace.speed(doc["bursts"], min(start for start, _ in intervals),
                      max(end for _, end in intervals))
    return [ms * rate for ms in wall_ms(doc, key)]


def end_to_end(workload: str, samples, units: dict) -> dict:
    """The BENCHMARK.json end-to-end metrics plus this workload's extras.

    Every time is at the reference speed (see pace.py); ``host_speed``
    says how fast the host ran the reference loop meanwhile.  Every
    metric but the pooled percentiles is a median of one value per
    sample, so its quartiles show how much it moves from sample to
    sample.  ``hit_mean_ms`` is a sample's mean cached latency (see
    ``sample.HIT_SECONDS``).
    """
    work_s = [pace.at_reference(doc["bursts"], *doc["work"])
              for doc in samples]
    values = {
        "setup_s": [pace.at_reference(doc["bursts"], doc["spawned"],
                                      doc["setup_done"]) for doc in samples],
        "sim_kips": [doc["instructions"] / seconds / 1000
                     for doc, seconds in zip(samples, work_s)],
        "hit_mean_ms": [statistics.fmean(reference_ms(doc, "hit"))
                        for doc in samples],
        "peak_rss_mb": [doc["rss_mb"] for doc in samples],
        "miss_p50_ms": [statistics.median(reference_ms(doc, "miss"))
                        for doc in samples],
    }
    if workload == PAPER_COMPOSITE:
        values["paper_cpi_gap"] = [
            abs(doc["cpi"] - sample.PAPER_CPI) / sample.PAPER_CPI
            for doc in samples]
    if workload == SERVE_MIX:
        values["throughput_rps"] = [doc["mix_requests"] / seconds
                                    for doc, seconds in zip(samples, work_s)]
    # --compare reads the raw values of end-to-end metrics.
    out = {name: dict(summary(vals, units[name]), values=vals)
           for name, vals in values.items() if vals}
    tails = dict(TAILS, **SERVE_TAILS) if workload == SERVE_MIX else TAILS
    for name, (key, pct) in tails.items():
        pooled = [ms for doc in samples for ms in reference_ms(doc, key)]
        out[name] = {"value": percentile(pooled, pct), "n": len(pooled),
                     "unit": units[name]}
    out["host_speed"] = summary(
        [pace.speed(doc["bursts"], doc["spawned"], doc["bursts"][-1][1])
         for doc in samples], "ratio")
    return out


def layer_values(workload: str, doc: dict) -> tuple:
    """One traced sample: (layer values, per-call times, problems)."""
    trace = doc["spans"]
    ops = set(doc["miss_ops"])
    totals = spans.layer_totals(trace, ops)
    counts = spans.counter_totals(trace, ops)
    registry = doc["registry"]
    row = {name: totals.get(span, 0.0) for name, span in SELF_TIMES.items()}
    instructions, cycles = counts["instructions"], counts["cycles"]
    run_s = totals.get("osim.run", 0.0)
    row["cpu.ns_per_instr"] = run_s * 1e9 / instructions if instructions \
        else 0.0
    row["cpu.ns_per_cycle"] = run_s * 1e9 / cycles if cycles else 0.0
    row["cpu.instructions"] = instructions
    row["cpu.cycles"] = cycles
    for name, (counter, per) in RATES.items():
        row[name] = counts[counter] * per / instructions if instructions \
            else 0.0
    row["batch.lanes_per_cohort"] = (
        registry["batch.lanes"] / registry["batch.cohorts"]
        if registry["batch.cohorts"] else 0.0)
    for name, span in (("explore.store_gets", "explore.store_get"),
                       ("explore.store_puts", "explore.store_put")):
        row[name] = len(spans.call_durations(trace, span))
    lookups = registry["explore.store.hits"] + registry["explore.store.misses"]
    if lookups:
        row["explore.store_hit_rate"] = \
            registry["explore.store.hits"] / lookups
    # The facade's own self time is what no named layer explains.
    wall = sum(trace[op]["end"] - trace[op]["start"] for op in ops)
    attributed = sum(totals.values()) - totals.get("api", 0.0)
    row["ledger.coverage"] = attributed / wall if wall else 0.0
    row["ledger.unattributed_s"] = wall - attributed
    calls = {name: [seconds * 1000
                    for seconds in spans.call_durations(trace, span)]
             for name, span in CALL_TIMES.items()}
    if workload == SERVE_MIX:
        row.update({f"serve.{name}": value
                    for name, value in doc["serve"].items()})
        submit_ms = {span["note"]["id"]: (span["end"] - span["start"]) * 1000
                     for span in trace if span["name"] == "serve.submit"}
        calls["serve.http_ms"] = [request["ms"] - submit_ms[request["id"]]
                                  for request in doc["requests"]
                                  if request["idle"]]
        calls["serve.queue_wait_ms"] = doc["queue_wait_ms"]
        calls["serve.exec_s"] = doc["exec_s"]
    problems = [f"traced {name}: {counts[name]} counted, {expected} in "
                f"the answers" for name, expected in
                doc["expected_counts"].items() if counts[name] != expected]
    if workload in LEDGER_WORKLOADS \
            and row["ledger.coverage"] < LEDGER_COVERAGE:
        problems.append(f"named layers cover {row['ledger.coverage']:.1%} "
                        f"of the traced wall, under {LEDGER_COVERAGE:.0%}")
    return row, calls, problems


def per_layer(workload: str, samples, catalog: dict) -> tuple:
    """(layer metrics, exact counts, problems)."""
    units = {name: entry["unit"] for section in ("layers", "ledger")
             for name, entry in catalog[section].items()}
    exact_names = [name for name, entry in catalog["layers"].items()
                   if entry.get("exact")]
    rows, pooled, problems, exact = [], {}, [], {}
    for doc in samples:
        row, calls, bad = layer_values(workload, doc)
        rows.append(row)
        problems += bad
        for name, values in calls.items():
            pooled.setdefault(name, []).extend(values)
        for name in exact_names:
            if exact.setdefault(name, row[name]) != row[name]:
                problems.append(f"{name} differs between samples")
    names = sorted({name for row in rows for name in row})
    out = {name: summary([row[name] for row in rows if name in row],
                         units[name]) for name in names}
    out.update({name: summary(values, units[name])
                for name, values in pooled.items() if values})
    return out, exact, problems


def aggregate(workload: str, samples, traced: bool, units: dict,
              catalog: dict) -> dict:
    """Everything one pass measured on one workload."""
    good = [doc for doc in samples if not doc.get("crashed")]
    problems = [problem for doc in samples for problem in doc["problems"]]
    failed = sum(doc["failed"] for doc in samples)
    cycles = good[0]["cycles"] if good else None
    for doc in good[1:]:
        if doc["cycles"] != cycles:
            problems.append(f"simulated cycles differ between samples: "
                            f"{doc['cycles']:,} vs {cycles:,}")
            failed += 1
    entry = {"samples": len(samples), "cycles": cycles,
             "attempted": sum(doc["attempted"] for doc in samples)}
    if good:
        if traced:
            metrics, exact, bad = per_layer(workload, good, catalog)
            entry["exact"] = exact
            problems += bad
            failed += 1 if bad else 0
        else:
            metrics = end_to_end(workload, good, units)
        entry["metrics"] = metrics
    entry.update(failed=failed, problems=problems)
    return entry


# -- reporting ----------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, int):
        return f"{value:,}"
    return f"{value:.6g}"


def render(workload: str, traced: bool, entry: dict, seed: int) -> list:
    """Human-readable lines for one workload's pass."""
    pin = ""
    if workload == PAPER_COMPOSITE and seed == sample.PAPER_PIN_SEED:
        pin = (f"  ({_fmt(entry['cycles'])} cycles, "
               f"pin {sample.PAPER_PIN_CYCLES:,})")
    lines = [f"{workload} [{'traced' if traced else 'untraced'}] "
             f"seed={seed} samples={entry['samples']} "
             f"attempted={entry['attempted']} failed={entry['failed']} "
             f"cycles={_fmt(entry['cycles'])}"]
    for name, metric in sorted(entry.get("metrics", {}).items()):
        spread = ""
        if "q1" in metric:
            spread = f"  [{_fmt(metric['q1'])} .. {_fmt(metric['q3'])}]"
        lines.append(f"  {name:34s} {_fmt(metric['value']):>12s} "
                     f"{metric['unit']:<12s} n={metric['n']}{spread}{pin}")
    lines += [f"  PROBLEM: {problem}" for problem in entry["problems"][:20]]
    return lines


def result_line(passes: dict, spec: dict) -> dict:
    """The last line: correct, attempted, failed and BENCHMARK.json's metrics.

    One workload reports metrics by name; several prefix each name with
    ``<workload>/``.
    """
    attempted = failed = 0
    problems = False
    metrics = {}
    for traced, entries in passes.items():
        names = [m["name"] for m in
                 spec["per_layer" if traced else "end_to_end"]]
        for workload, entry in entries.items():
            attempted += entry["attempted"]
            failed += entry["failed"]
            problems = problems or bool(entry["problems"])
            measured = entry.get("metrics", {})
            for name in names:
                if name not in measured:
                    continue
                key = name if len(entries) == 1 else f"{workload}/{name}"
                metrics[key] = {"value": measured[name]["value"],
                                "unit": measured[name]["unit"]}
    return {"correct": failed == 0 and not problems,
            "attempted": max(attempted, 1), "failed": failed,
            "metrics": metrics}


def write_trace(samples: dict, seed: int) -> str:
    """Write the traced pass's spans to ``.bench_out/trace.json``."""
    path = os.path.join(OUT_DIR, "trace.json")
    doc = {"seed": seed, "workloads": {
        workload: [{"sample": number, "miss_ops": item["miss_ops"],
                    "spans": item["spans"]}
                   for number, item in enumerate(docs)
                   if not item.get("crashed")]
        for workload, docs in samples.items()}}
    with open(path, "w") as handle:
        json.dump(doc, handle)
    return path


# -- compare ------------------------------------------------------------------


def verdict(parent: dict, change: dict, better: str, bound: float,
            spread: float = None) -> str:
    """improved / unchanged / worse / unresolved, against ``bound``.

    ``spread`` is the metric's run-to-run spread (see spread.py); without
    it, the wider of the two runs' sample spreads (q3 - q1 over the
    median) stands in.  A spread wider than the bound is unresolved,
    unless every value of the change beats every value of the parent.
    """
    old, new = parent.get("value"), change.get("value")
    if old is None or new is None or old == 0:
        return "unresolved"
    worse_by = (new - old) / old if better == "lower" else (old - new) / old
    if bound == 0:
        return "unchanged" if new == old else \
            ("worse" if worse_by > 0 else "improved")
    if spread is None:
        spread = max([(m["q3"] - m["q1"]) / m["value"]
                      for m in (parent, change) if "q1" in m], default=0.0)
    if spread > bound:
        # A pooled percentile is one number per run: nothing to beat.
        if "values" not in parent or "values" not in change:
            return "unresolved"
        old_values, new_values = parent["values"], change["values"]
        if better == "lower":
            clear = max(new_values) < min(old_values)
        else:
            clear = min(new_values) > max(old_values)
        return "improved" if clear else "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def _with_spread(metric) -> str:
    if metric is None:
        return "n/a"
    text = _fmt(metric.get("value"))
    if "q1" in metric:
        text += f" ({_fmt(metric['q1'])}..{_fmt(metric['q3'])})"
    return text


def compare(parent_path: str, change_path: str) -> int:
    """One row per workload x end-to-end metric; 1 if any got worse.

    Both runs must have measured the same seed's programs.  Noise is
    judged by the run-to-run spreads in ``baseline/spread.json`` when it
    exists.  Deterministic counts from traced passes compare exactly.
    """
    spec = benchmark_spec()
    bounds = {m["name"]: (m["better"], m["bound"])
              for m in spec["end_to_end"]}
    bounds.update({name: (m["better"], m["bound"])
                   for name, m in metric_catalog()["extra"].items()})
    spreads = {}
    if os.path.exists(SPREADS):
        spreads = load_json(SPREADS)["spread"]
    parent, change = load_json(parent_path), load_json(change_path)
    if parent["seed"] != change["seed"]:
        print(f"the runs measured different programs (seed {parent['seed']} "
              f"vs {change['seed']}); compare runs of one seed",
              file=sys.stderr)
        return 2
    worse = 0
    print(f"{'workload':16s} {'metric':34s} {'verdict':10s} "
          f"{'parent median (q1..q3)':>34s} {'change median (q1..q3)':>34s}")
    for workload in WORKLOADS:
        rows = []
        old = parent["passes"].get("untraced", {}).get(workload)
        new = change["passes"].get("untraced", {}).get(workload)
        if old and new:
            for name, (better, bound) in bounds.items():
                a = old.get("metrics", {}).get(name)
                b = new.get("metrics", {}).get(name)
                if a is not None and b is not None:
                    spread = spreads.get(workload, {}).get(name)
                    rows.append((name, verdict(a, b, better, bound, spread),
                                 a, b))
        old = parent["passes"].get("traced", {}).get(workload)
        new = change["passes"].get("traced", {}).get(workload)
        if old and new:
            others = new.get("exact", {})
            for name, value in sorted(old.get("exact", {}).items()):
                other = others.get(name)
                rows.append((name, "unchanged" if other == value
                             else "differs", {"value": value},
                             {"value": other}))
        for name, result, a, b in rows:
            worse += result in ("worse", "differs")
            print(f"{workload:16s} {name:34s} {result:10s} "
                  f"{_with_spread(a):>34s} {_with_spread(b):>34s}")
    return 1 if worse else 0


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="workload to run (repeatable; default all)")
    parser.add_argument("--seed", type=int, default=1984,
                        help="benchmark seed (1984 for development, 2024 "
                             "held out for checking claims)")
    parser.add_argument("--seconds", type=int,
                        help="measuring time per workload and pass; "
                             "accepted only as BENCHMARK.json's "
                             "run_seconds, which every baseline used")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: run the traced pass (per-layer metrics)")
    parser.add_argument("--traced", action="store_true",
                        help="run both passes and report tracing overhead")
    parser.add_argument("--out", help="write every number to this JSON file")
    parser.add_argument("--compare", nargs=2,
                        metavar=("PARENT.json", "CHANGE.json"),
                        help="compare two --out files and exit")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    spec = benchmark_spec()
    seconds = spec["run_seconds"]
    if args.seconds not in (None, seconds):
        parser.error(f"--seconds must be {seconds} (run_seconds)")
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    catalog = metric_catalog()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    units.update({name: m["unit"] for name, m in catalog["extra"].items()})
    workloads = tuple(args.workload or WORKLOADS)
    os.makedirs(OUT_DIR, exist_ok=True)

    started = time.monotonic()
    passes, samples = {}, {}
    for traced in ((False, True) if args.traced else (bool(args.trace),)):
        samples[traced] = measure(workloads, args.seed, seconds, traced)
        passes[traced] = {name: aggregate(name, samples[traced][name],
                                          traced, units, catalog)
                          for name in workloads}
        for name in workloads:
            print("\n".join(render(name, traced, passes[traced][name],
                                   args.seed)))
    if True in samples:
        path = write_trace(samples[True], args.seed)
        print(f"spans written to {os.path.relpath(path, ROOT)}")
    overhead = {}
    if args.traced:
        for name in workloads:
            walls = [[ms for doc in samples[traced][name]
                      if not doc.get("crashed")
                      for ms in wall_ms(doc, "miss")]
                     for traced in (False, True)]
            if all(walls):
                overhead[name] = statistics.median(walls[1]) \
                    / statistics.median(walls[0]) - 1
                print(f"{name}: tracing overhead {overhead[name]:+.2%} "
                      "(traced / untraced median uncached latency - 1)")
    wall_s = time.monotonic() - started
    if args.out:
        doc = {"seed": args.seed, "seconds": seconds, "wall_s": wall_s,
               "host": {"nproc": os.cpu_count(),
                        "python": platform.python_version(),
                        "platform": platform.platform()},
               "passes": {("traced" if traced else "untraced"): entries
                          for traced, entries in passes.items()},
               "tracing_overhead": overhead}
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.out} (wall {wall_s:.1f} s)")
    print(json.dumps(result_line(passes, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
