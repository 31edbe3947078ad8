#!/usr/bin/env python
"""End-to-end simulator performance benchmark.

Times the five-workload standard composite (construction + run +
capture, nothing cached) plus the fixed microbenchmark smoke sweep, and
writes/updates ``BENCH_perf.json`` with instructions/second and
cycles/second.  The composite's counted cycles
are recorded alongside so a perf number can never silently ride on a
timing-model change: two entries are comparable only if their
``composite_cycles`` match.

Usage:
    python tools/perf_bench.py                    # measure, print
    python tools/perf_bench.py --output BENCH_perf.json --label after
    REPRO_SRC=/path/to/other/src python tools/perf_bench.py --label before

``REPRO_SRC`` points the measurement at another source tree (e.g. a git
worktree of the baseline commit) so before/after are produced by the
same protocol on the same host, back to back.

The JSON accumulates one entry per label plus ``speedup`` (the
composite before/after ratio), ``speedups`` (per-section ratios,
> 1 = faster) and ``batch`` (the paired scalar-vs-batch sweep timing
from the batch engine) computed when present.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.environ.get("REPRO_SRC", os.path.join(REPO, "src")))


def measure(instructions: int, seed: int, jobs: int, repeats: int) -> dict:
    from repro.workloads import engine

    runs = []
    cycles = None
    for _ in range(repeats):
        engine.clear_cache()
        kwargs = {"jobs": jobs} if jobs != 1 else {}
        t0 = time.perf_counter()
        meas = engine.standard_composite(instructions=instructions,
                                              seed=seed, **kwargs)
        elapsed = time.perf_counter() - t0
        runs.append(round(elapsed, 3))
        if cycles is None:
            cycles = meas.cycles
        elif cycles != meas.cycles:
            raise SystemExit(f"non-deterministic cycle count: "
                             f"{cycles} vs {meas.cycles}")
    best = min(runs)
    total_instructions = instructions * 5
    return {
        "instructions_per_workload": instructions,
        "total_instructions": total_instructions,
        "seed": seed,
        "jobs": jobs,
        "composite_cycles": cycles,
        "wall_seconds": runs,
        "best_seconds": best,
        "instructions_per_second": round(total_instructions / best, 1),
        "cycles_per_second": round(cycles / best, 1),
        "python": platform.python_version(),
        "source": _source_id(),
        "ubench": measure_ubench(repeats),
        "explore": measure_explore(repeats),
        "obs": measure_obs(instructions, seed, repeats),
        "batch": measure_batch(repeats),
        "serve": measure_serve(repeats),
        "analytical": measure_analytical(repeats),
    }


def measure_ubench(repeats: int) -> dict:
    """Time the fixed microbenchmark smoke sweep (serial, no pool).

    Like ``composite_cycles`` above, the sweep's summed cycle count is
    recorded so before/after entries are only comparable when the
    kernels counted the same work.
    """
    from repro.ubench import runner, suite

    runs = []
    total_cycles = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        results = runner.run_suite(suite.SMOKE_SUITE, jobs=1)
        elapsed = time.perf_counter() - t0
        runs.append(round(elapsed, 3))
        cycles = sum(r["total_cycles"] for r in results)
        if total_cycles is None:
            total_cycles = cycles
        elif total_cycles != cycles:
            raise SystemExit(f"non-deterministic ubench cycles: "
                             f"{total_cycles} vs {cycles}")
    best = min(runs)
    return {
        "kernels": len(suite.SMOKE_SUITE),
        "sweep_cycles": total_cycles,
        "wall_seconds": runs,
        "best_seconds": best,
        "kernels_per_second": round(len(suite.SMOKE_SUITE) / best, 2),
    }


def measure_explore(repeats: int) -> dict:
    """Time the smoke design-space sweep, cold store vs. warm store.

    Cold measures simulation + store writes; warm measures pure store
    reads and must perform zero new simulations.  The summed composite
    cycles across all points are recorded for the usual comparability
    check.
    """
    import shutil
    import tempfile

    from repro.explore import SMOKE, ResultStore, run_sweep

    cold_runs, warm_runs = [], []
    sweep_cycles = None
    stats = None
    for _ in range(repeats):
        root = tempfile.mkdtemp(prefix="explore-bench-")
        try:
            store = ResultStore(root)
            t0 = time.perf_counter()
            cold = run_sweep(SMOKE, store=store, jobs=1)
            cold_runs.append(round(time.perf_counter() - t0, 3))
            # Warm reads complete in low milliseconds — far below the
            # resolution ``round(perf_counter(), 3)`` kept — so the
            # warm side is timed on the nanosecond clock.
            t0 = time.perf_counter_ns()
            warm = run_sweep(SMOKE, store=store, jobs=1)
            warm_runs.append(time.perf_counter_ns() - t0)
            if warm.stats["simulated"]:
                raise SystemExit(
                    f"warm sweep re-simulated "
                    f"{warm.stats['simulated']} tasks")
            cycles = sum(entry["composite"]["cycles"]
                         for entry in cold.points)
            if sweep_cycles is None:
                sweep_cycles = cycles
                stats = cold.stats
            elif sweep_cycles != cycles:
                raise SystemExit(f"non-deterministic explore cycles: "
                                 f"{sweep_cycles} vs {cycles}")
        finally:
            shutil.rmtree(root, ignore_errors=True)
    return {
        "spec": SMOKE.name,
        "points": stats["points"],
        "tasks": stats["tasks"],
        "sweep_cycles": sweep_cycles,
        "cold_seconds": cold_runs,
        "best_cold_seconds": min(cold_runs),
        "warm_nanoseconds": warm_runs,
        "best_warm_nanoseconds": min(warm_runs),
        "best_warm_seconds": round(min(warm_runs) / 1e9, 6),
    }


def measure_obs(instructions: int, seed: int, repeats: int) -> dict:
    """Pair the composite with and without an active observation.

    The observability layer contracts to be passive: counted cycles must
    be bit-identical and the wall-clock overhead small (the adaptive
    progress sampler backs off until it is).  Each repeat times the two
    variants back to back on a cold memo cache; the overhead fraction is
    best-observed over best-plain minus one.
    """
    import shutil
    import tempfile

    from repro import obs
    from repro.workloads import engine

    plain_runs, observed_runs = [], []
    for _ in range(repeats):
        engine.clear_cache()
        t0 = time.perf_counter()
        plain = engine.standard_composite(instructions=instructions,
                                          seed=seed)
        plain_runs.append(round(time.perf_counter() - t0, 3))

        engine.clear_cache()
        out = tempfile.mkdtemp(prefix="obs-bench-")
        try:
            t0 = time.perf_counter()
            with obs.observe(out, label="perf_bench"):
                observed = engine.standard_composite(
                    instructions=instructions, seed=seed)
            observed_runs.append(round(time.perf_counter() - t0, 3))
        finally:
            shutil.rmtree(out, ignore_errors=True)
        if plain.cycles != observed.cycles:
            raise SystemExit(
                f"observation perturbed the count: plain "
                f"{plain.cycles} vs observed {observed.cycles}")
    engine.clear_cache()
    best_plain = min(plain_runs)
    best_observed = min(observed_runs)
    return {
        "composite_cycles": plain.cycles,
        "plain_seconds": plain_runs,
        "best_plain_seconds": best_plain,
        "observed_seconds": observed_runs,
        "best_observed_seconds": best_observed,
        "overhead_fraction": round(best_observed / best_plain - 1, 4),
    }


def measure_batch(repeats: int) -> dict:
    """Pair a serial scalar sweep against the batch engine.

    The sweep is a 12-point measurement-window convergence study — one
    workload, the ``instructions`` axis from 2,000 to 24,000 — the
    shape the batch engine exists for: every point is a prefix of the
    longest run, so the batch engine fuses all twelve lanes onto one
    machine while the scalar engine pays for each point separately.
    Both sides run without a store (every point cold) and the records
    are required to match exactly (same cycles, same histogram
    digests) before a timing is accepted.

    Returns an empty dict when the measured tree predates the batch
    engine (the ``--label before`` baseline).
    """
    try:
        from repro.batch import plan_cohorts  # noqa: F401
    except ImportError:
        return {}
    from repro.explore import run_sweep
    from repro.explore.space import Axis, SweepSpec

    spec = SweepSpec(
        name="batch-bench",
        axes=(Axis("instructions", tuple(range(2_000, 24_001, 2_000))),),
        mode="ofat", instructions=2_000, seed=1984,
        workloads=("timesharing-research",))
    scalar_runs, batch_runs = [], []
    sweep_cycles = None
    points = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        scalar = run_sweep(spec, store=None, jobs=1, engine="scalar")
        scalar_runs.append(round(time.perf_counter() - t0, 3))
        t0 = time.perf_counter()
        batch = run_sweep(spec, store=None, jobs=1, engine="batch")
        batch_runs.append(round(time.perf_counter() - t0, 3))
        for a, b in zip(scalar.points, batch.points):
            if a["records"] != b["records"]:
                raise SystemExit(
                    f"scalar/batch records differ at {a['label']} — "
                    "timings are not comparable")
        cycles = sum(entry["composite"]["cycles"]
                     for entry in scalar.points)
        if sweep_cycles is None:
            sweep_cycles = cycles
            points = len(scalar.points)
        elif sweep_cycles != cycles:
            raise SystemExit(f"non-deterministic batch-bench cycles: "
                             f"{sweep_cycles} vs {cycles}")
    best_scalar = min(scalar_runs)
    best_batch = min(batch_runs)
    return {
        "spec": spec.name,
        "points": points,
        "instructions_axis": list(spec.axes[0].values),
        "sweep_cycles": sweep_cycles,
        "scalar_seconds": scalar_runs,
        "best_scalar_seconds": best_scalar,
        "batch_seconds": batch_runs,
        "best_batch_seconds": best_batch,
        "speedup": round(best_scalar / best_batch, 2),
    }


def measure_serve(repeats: int,
                  requests: int = 6, instructions: int = 1_500) -> dict:
    """Pair N duplicate service submissions against N scalar runs.

    The scalar side simulates the same characterize job ``requests``
    times on a cold memo (what N independent clients running the CLI
    themselves would pay).  The serve side submits the identical job
    ``requests`` times to a job server: the first submission simulates,
    every later one is answered from the shared content-addressed cache
    — so the comparison measures exactly what the service's dedup is
    worth, plus the warm per-request overhead (HTTP round trip + store
    read) that a cache hit costs.  Result documents are required to be
    bit-identical across the scalar run, the served run, and every
    cache hit before a timing is accepted.

    Returns an empty dict when the measured tree predates the serve
    subsystem (the ``--label before`` baseline).
    """
    try:
        from repro.serve.testing import ServerThread  # noqa: F401
    except ImportError:
        return {}
    import shutil
    import tempfile

    from repro import api
    from repro.serve import ServeConfig
    from repro.serve.testing import ServerThread
    from repro.workloads import engine

    params = {"instructions": instructions, "seed": 424_242,
              "table": "4"}
    scalar_runs, serve_runs = [], []
    warm_requests = []
    reference = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(requests):
            engine.clear_cache()
            doc = api.characterize(**params).to_json()
        scalar_runs.append(round(time.perf_counter() - t0, 3))
        if reference is None:
            reference = json.dumps(doc, sort_keys=True)
        elif json.dumps(doc, sort_keys=True) != reference:
            raise SystemExit("non-deterministic scalar characterize — "
                             "serve timings are not comparable")

        engine.clear_cache()
        root = tempfile.mkdtemp(prefix="serve-bench-")
        try:
            config = ServeConfig(store=os.path.join(root, "store"),
                                 workers=1, queue_size=requests + 1)
            with ServerThread(config) as handle:
                client = handle.client(name="perf-bench")
                t0 = time.perf_counter()
                jobs = [client.submit("characterize", params)
                        for _ in range(requests)]
                serve_runs.append(round(time.perf_counter() - t0, 3))
                for number, job in enumerate(jobs):
                    served = json.dumps(job["result"], sort_keys=True)
                    if served != reference:
                        raise SystemExit(
                            f"served result #{number} is not "
                            "bit-identical to the scalar run")
                if not all(job["cached"] for job in jobs[1:]):
                    raise SystemExit("later duplicates were not cache "
                                     "hits — dedup is broken")
                # Warm per-request cost, timed individually.
                for _ in range(3):
                    t0 = time.perf_counter_ns()
                    client.submit("characterize", params)
                    warm_requests.append(time.perf_counter_ns() - t0)
        finally:
            shutil.rmtree(root, ignore_errors=True)
    engine.clear_cache()
    best_scalar = min(scalar_runs)
    best_serve = min(serve_runs)
    return {
        "requests": requests,
        "instructions": instructions,
        "scalar_seconds": scalar_runs,
        "best_scalar_seconds": best_scalar,
        "serve_seconds": serve_runs,
        "best_serve_seconds": best_serve,
        "dedup_speedup": round(best_scalar / best_serve, 2),
        "warm_request_nanoseconds": warm_requests,
        "best_warm_request_seconds": round(min(warm_requests) / 1e9, 6),
    }


def measure_analytical(repeats: int, target: int = 6_000) -> dict:
    """Pair the analytical CPI tier against a full simulation.

    Calibrates one workload per machine at a scaled-down anchor
    envelope, then times (a) a cold simulator run at the target budget
    and (b) the calibrated mix's estimate at the same budget; the
    estimate must land inside the tier's recorded error bound against
    the simulation before a timing is accepted.  Calibration cost is
    reported separately — it amortizes over every budget the mix is
    asked about.  Returns an empty dict when the measured tree predates
    ``repro.machines`` (the ``--label before`` baseline).
    """
    try:
        from repro.machines.analytical import calibrate, check_estimate
    except ImportError:
        return {}
    from repro.workloads import engine

    anchors = (1_000, 3_000, 5_000, 7_000, 9_000)
    workload = "rte-educational"
    machines = {}
    for machine in ("vax780", "uvax78032"):
        calib_runs, sim_runs, estimate_ns = [], [], []
        rel_err = None
        for _ in range(repeats):
            engine.clear_cache()
            t0 = time.perf_counter()
            mix = calibrate(workload, machine, anchors=anchors)
            calib_runs.append(round(time.perf_counter() - t0, 3))

            engine.clear_cache()
            t0 = time.perf_counter()
            engine.run_workload(workload, target, machine=machine)
            sim_runs.append(round(time.perf_counter() - t0, 3))

            check = check_estimate(mix, target)
            if not check["ok"]:
                raise SystemExit(
                    f"analytical estimate off by {check['rel_err']} on "
                    f"{workload}/{machine} — timings are not comparable")
            rel_err = check["rel_err"]
            for _ in range(5):
                t0 = time.perf_counter_ns()
                mix.estimate(target)
                estimate_ns.append(time.perf_counter_ns() - t0)
        best_sim = min(sim_runs)
        best_estimate = min(estimate_ns) / 1e9
        machines[machine] = {
            "calibration_seconds": calib_runs,
            "best_calibration_seconds": min(calib_runs),
            "simulation_seconds": sim_runs,
            "best_simulation_seconds": best_sim,
            "best_estimate_seconds": round(best_estimate, 9),
            "rel_err": rel_err,
            "speedup": round(best_sim / best_estimate, 1),
        }
    engine.clear_cache()
    return {
        "workload": workload,
        "instructions": target,
        "anchors": list(anchors),
        "machines": machines,
    }


#: (label, path to the before/after seconds inside an entry) pairs the
#: speedup block reports; ratios are before/after, > 1 means faster.
_SPEEDUP_SECTIONS = (
    ("composite", ("best_seconds",)),
    ("ubench", ("ubench", "best_seconds")),
    ("explore_cold", ("explore", "best_cold_seconds")),
    ("explore_warm", ("explore", "best_warm_seconds")),
    ("obs_plain", ("obs", "best_plain_seconds")),
    ("serve_warm", ("serve", "best_warm_request_seconds")),
)


def _dig(entry: dict, path: tuple):
    value = entry
    for key in path:
        if not isinstance(value, dict) or key not in value:
            return None
        value = value[key]
    return value


def speedups(before: dict, after: dict) -> dict:
    """Per-section before/after wall-clock ratios (> 1 = faster)."""
    out = {}
    for label, path in _SPEEDUP_SECTIONS:
        a, b = _dig(before, path), _dig(after, path)
        if a and b:
            out[label] = round(a / b, 2)
    return out


def _source_id() -> str:
    src = os.environ.get("REPRO_SRC", os.path.join(REPO, "src"))
    tree = os.path.dirname(os.path.abspath(src)) or REPO
    try:
        rev = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             cwd=tree, capture_output=True, text=True)
        if rev.returncode == 0:
            dirty = subprocess.run(["git", "status", "--porcelain"],
                                   cwd=tree, capture_output=True, text=True)
            suffix = "-dirty" if dirty.stdout.strip() else ""
            return rev.stdout.strip() + suffix
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--instructions", type=int, default=60_000,
                        help="measured instructions per workload")
    parser.add_argument("--seed", type=int, default=1984)
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (results identical)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed repetitions; best is reported")
    parser.add_argument("--label", default="after",
                        choices=("before", "after"),
                        help="which entry of the JSON to write")
    parser.add_argument("--output", default=None,
                        help="JSON file to update (e.g. BENCH_perf.json)")
    args = parser.parse_args()
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.instructions < 1:
        parser.error("--instructions must be at least 1")

    entry = measure(args.instructions, args.seed, args.jobs, args.repeats)
    print(f"[{args.label}] composite of 5 x {args.instructions}: "
          f"best {entry['best_seconds']:.2f}s of {entry['wall_seconds']}  "
          f"{entry['instructions_per_second']:,.0f} instr/s  "
          f"{entry['cycles_per_second']:,.0f} cycles/s  "
          f"cycles={entry['composite_cycles']}")
    ub = entry["ubench"]
    print(f"[{args.label}] ubench sweep of {ub['kernels']} kernels: "
          f"best {ub['best_seconds']:.2f}s  "
          f"{ub['kernels_per_second']:.1f} kernels/s  "
          f"cycles={ub['sweep_cycles']}")
    ex = entry["explore"]
    print(f"[{args.label}] explore smoke sweep of {ex['tasks']} tasks: "
          f"cold {ex['best_cold_seconds']:.2f}s  "
          f"warm {ex['best_warm_seconds']:.2f}s  "
          f"cycles={ex['sweep_cycles']}")
    ob = entry["obs"]
    print(f"[{args.label}] obs overhead on the composite: plain "
          f"{ob['best_plain_seconds']:.2f}s  observed "
          f"{ob['best_observed_seconds']:.2f}s  "
          f"overhead {ob['overhead_fraction'] * 100:+.2f}%")
    ba = entry["batch"]
    if ba:
        print(f"[{args.label}] batch engine on a {ba['points']}-point "
              f"instructions sweep: scalar "
              f"{ba['best_scalar_seconds']:.2f}s  batch "
              f"{ba['best_batch_seconds']:.2f}s  "
              f"speedup {ba['speedup']:.2f}x  "
              f"cycles={ba['sweep_cycles']}")
    sv = entry["serve"]
    if sv:
        print(f"[{args.label}] serve dedup on {sv['requests']} "
              f"duplicate submissions: scalar "
              f"{sv['best_scalar_seconds']:.2f}s  served "
              f"{sv['best_serve_seconds']:.2f}s  "
              f"dedup speedup {sv['dedup_speedup']:.2f}x  warm request "
              f"{sv['best_warm_request_seconds'] * 1000:.1f}ms")
    an = entry["analytical"]
    if an:
        for machine, row in an["machines"].items():
            print(f"[{args.label}] analytical tier on "
                  f"{an['workload']}/{machine}: sim "
                  f"{row['best_simulation_seconds']:.2f}s  estimate "
                  f"{row['best_estimate_seconds'] * 1e6:.1f}us  "
                  f"speedup {row['speedup']:,.0f}x  "
                  f"rel_err {row['rel_err']:.4f}")

    if args.output:
        doc = {}
        if os.path.exists(args.output):
            try:
                with open(args.output) as fh:
                    doc = json.load(fh)
            except json.JSONDecodeError as exc:
                raise SystemExit(
                    f"{args.output} exists but is not valid JSON ({exc}); "
                    "move it aside or pass a different --output")
        doc[args.label] = entry
        if entry["batch"]:
            # The paired scalar-vs-batch sweep timing, surfaced at the
            # top level (both sides run on the measured tree, so it
            # needs no before entry to be meaningful).
            doc["batch"] = entry["batch"]
        if entry["serve"]:
            # Likewise paired on the measured tree: N duplicate
            # submissions vs N scalar runs.
            doc["serve"] = entry["serve"]
        if entry["analytical"]:
            # Paired on the measured tree: the analytical tier's
            # estimate vs a cold simulation at the same budget.
            doc["analytical"] = entry["analytical"]
        before, after = doc.get("before"), doc.get("after")
        if before and after:
            if before["composite_cycles"] != after["composite_cycles"]:
                raise SystemExit(
                    "before/after disagree on counted cycles "
                    f"({before['composite_cycles']} vs "
                    f"{after['composite_cycles']}) — not comparable")
            doc["speedup"] = round(before["best_seconds"]
                                   / after["best_seconds"], 2)
            doc["speedups"] = speedups(before, after)
        with open(args.output, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}"
              + (f" (speedup {doc['speedup']}x)" if "speedup" in doc
                 else ""))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
