"""Plain-text and JSON rendering of validation runs.

A validation run has two halves — the per-workload conservation-law
reports and the differential-fuzz case list — and ``validate_json``
shapes both into the machine-readable ``VALIDATE.json`` document the CI
archives.
"""

from __future__ import annotations


def render_invariants(reports) -> str:
    """One row per law per workload, failures spelled out in full."""
    lines = ["VALIDATE - conservation invariants",
             f"{'workload':24s} {'laws':>5s} {'exact':>6s} "
             f"{'bounds':>7s} {'failed':>7s}"]
    for report in reports:
        exact = sum(1 for c in report.checks if c.relation == "==")
        bounds = len(report.checks) - exact
        failed = len(report.failures())
        lines.append(f"{report.name:24s} {len(report.checks):5d} "
                     f"{exact:6d} {bounds:7d} {failed:7d}")
    for report in reports:
        for check in report.failures():
            lines.append(f"  FAIL {report.name}.{check.name}: "
                         f"{check.actual!r} {check.relation} "
                         f"{check.expected!r}"
                         + (f"  ({check.note})" if check.note else ""))
    total_failed = sum(len(r.failures()) for r in reports)
    verdict = "all invariants hold" if total_failed == 0 \
        else f"{total_failed} invariant(s) FAILED"
    lines.append(verdict)
    return "\n".join(lines)


def render_fuzz(results) -> str:
    """The differential-fuzz verdict, with shrunk reproducers."""
    if not results:
        return "VALIDATE - differential fuzz: skipped"
    diverged = [r for r in results if not r["ok"]]
    lines = [f"VALIDATE - differential fuzz: {len(results)} case(s), "
             f"{len(diverged)} divergence(s)"]
    for result in diverged:
        lines.append(result["reproducer"].describe())
    return "\n".join(lines)


def render_validate(reports, fuzz_results) -> str:
    return (render_invariants(reports) + "\n\n"
            + render_fuzz(fuzz_results))


def validate_json(reports, fuzz_results, meta: dict = None) -> dict:
    """Shape a validation run into the VALIDATE.json document."""
    cases = []
    for result in fuzz_results:
        entry = {"label": result["label"], "ok": result["ok"]}
        if result["reproducer"] is not None:
            reproducer = result["reproducer"]
            divergence = reproducer.divergence
            entry["reproducer"] = {
                "instructions": reproducer.case.instructions,
                "seed": reproducer.case.seed,
                "profile": reproducer.case.profile.name,
                "step": divergence.step,
                "field": divergence.field,
                "fast": repr(divergence.fast),
                "reference": repr(divergence.reference),
                "window": [{"step": step, "pc": pc,
                            "mnemonic": mnemonic}
                           for step, pc, mnemonic in divergence.window],
            }
        cases.append(entry)
    doc = {
        "schema": 1,
        "ok": (all(r.ok for r in reports)
               and all(c["ok"] for c in cases)),
        "invariants": [r.to_dict() for r in reports],
        "fuzz": {"cases": cases,
                 "divergences": sum(1 for c in cases if not c["ok"])},
    }
    if meta:
        doc["meta"] = dict(meta)
    return doc
