"""Plain-text and JSON rendering of microbenchmark sweeps.

uops.info-style tables over :mod:`repro.ubench` results: the per-kernel
measured-vs-predicted listing (with every non-busy cycle itemized by
cause), per-opcode-group latency summaries, per-specifier-mode costs,
and the composite-consistency rows.  ``ubench_json`` shapes the same
data into the machine-readable document of the committed ``UBENCH.json``.
"""

from __future__ import annotations

from repro.ubench.model import BUCKETS


def _cause_summary(result) -> str:
    parts = [f"{cause}={per_copy:.2f}"
             for cause, per_copy in sorted(
                 result["overhead_per_copy"].items())]
    return " ".join(parts) if parts else "-"


def render_kernels(results) -> str:
    """The main per-kernel table: measured vs. predicted busy cycles."""
    lines = [
        "UBENCH - per-kernel cycles (one copy = "
        "one steady-state iteration)",
        f"{'kernel':20s} {'group':9s} {'mode':24s} {'var':4s} "
        f"{'cyc/copy':>8s} {'busy':>5s} {'pred':>5s} {'ok':>3s}  "
        "overhead/copy (itemized)",
    ]
    for r in results:
        copies = r["measured_copies"]
        busy = sum(r["measured_busy"][b] for b in BUCKETS) / copies
        pred = r["predicted_per_copy"]["total"]
        flag = "=" if r["exact"] else "!"
        lines.append(
            f"{r['kernel']:20s} {r['group']:9s} {r['mode']:24s} "
            f"{r['variant']:4s} {r['cycles_per_copy']:8.2f} "
            f"{busy:5.0f} {pred:5d} {flag:>3s}  {_cause_summary(r)}")
    exact = sum(1 for r in results if r["exact"])
    lines.append(f"{exact}/{len(results)} kernels exact "
                 "(busy cycles == model prediction; '!' rows disagree)")
    return "\n".join(lines)


def render_buckets(results) -> str:
    """Stage-by-stage busy-cycle breakdown per kernel (per copy)."""
    header = " ".join(f"{b:>7s}" for b in BUCKETS)
    lines = ["UBENCH - busy cycles per copy by pipeline stage",
             f"{'kernel':20s} {header} {'total':>7s}"]
    for r in results:
        copies = r["measured_copies"]
        cells = " ".join(
            f"{r['measured_busy'][b] / copies:7.2f}" for b in BUCKETS)
        total = sum(r["measured_busy"][b] for b in BUCKETS) / copies
        lines.append(f"{r['kernel']:20s} {cells} {total:7.2f}")
    return "\n".join(lines)


def render_groups(results) -> str:
    """Per-opcode-group mean latency over the suite's warm kernels."""
    groups = {}
    for r in results:
        if r["variant"] != "warm":
            continue
        groups.setdefault(r["group"], []).append(
            r["cycles_per_instruction"])
    lines = ["UBENCH - mean cycles per instruction by opcode group "
             "(warm kernels)",
             f"{'group':12s} {'kernels':>8s} {'mean':>8s} {'min':>8s} "
             f"{'max':>8s}"]
    for group in sorted(groups):
        values = groups[group]
        lines.append(
            f"{group:12s} {len(values):8d} "
            f"{sum(values) / len(values):8.2f} {min(values):8.2f} "
            f"{max(values):8.2f}")
    return "\n".join(lines)


def render_modes(results) -> str:
    """Specifier-mode cost ladder from the MOVL sweep."""
    rows = [r for r in results
            if r["kernel"].startswith("movl_") and r["variant"] == "warm"]
    if not rows:
        return ""
    base = next((r for r in rows if r["mode"] == "literal"), None)
    lines = ["UBENCH - specifier mode cost (MOVL sweep; delta vs. "
             "short literal)",
             f"{'mode':24s} {'cyc/copy':>9s} {'spec':>5s} {'delta':>6s}"]
    for r in rows:
        copies = r["measured_copies"]
        spec = (r["measured_busy"]["spec"]
                + r["measured_busy"]["fused"]) / copies
        delta = (r["cycles_per_copy"] - base["cycles_per_copy"]) \
            if base else 0.0
        lines.append(f"{r['mode']:24s} {r['cycles_per_copy']:9.2f} "
                     f"{spec:5.1f} {delta:+6.2f}")
    return "\n".join(lines)


def render_consistency(check) -> str:
    """The composite-coherence rows from the consistency pass."""
    lines = [
        "UBENCH - consistency vs. composite execute cycles "
        f"(tolerance {check['tolerance'] * 100:.0f}%)",
        f"{'group':14s} {'instr':>8s} {'measured':>10s} "
        f"{'predicted':>10s} {'err%':>6s} {'modeled%':>9s} {'ok':>3s}",
    ]
    for row in check["rows"]:
        lines.append(
            f"{row['group']:14s} {row['instructions']:8d} "
            f"{row['measured']:10d} {row['predicted']:10d} "
            f"{row['rel_err'] * 100:6.2f} "
            f"{row['modeled_fraction'] * 100:9.1f} "
            f"{'ok' if row['ok'] else 'NO':>3s}")
    lines.append(
        f"composite: {check['instructions']} instructions, "
        f"{check['cycles']} cycles, CPI {check['cpi']:.2f} "
        f"(paper Table 5: {check['paper_cpi']})")
    return "\n".join(lines)


def render_ubench(results, check=None) -> str:
    """Full report: kernel table, stage breakdown, summaries."""
    sections = [render_kernels(results), render_buckets(results),
                render_groups(results)]
    modes = render_modes(results)
    if modes:
        sections.append(modes)
    if check is not None:
        sections.append(render_consistency(check))
    return "\n\n".join(sections)


def ubench_json(results, check=None, meta=None) -> dict:
    """Shape a sweep into the machine-readable UBENCH.json document."""
    doc = {
        "kernels": list(results),
        "exact_kernels": sum(1 for r in results if r["exact"]),
        "total_kernels": len(results),
        "all_exact": all(r["exact"] for r in results),
        "all_reconciled": all(r["reconciled"] for r in results),
    }
    if check is not None:
        doc["consistency"] = check
    if meta:
        doc["meta"] = dict(meta)
    return doc
