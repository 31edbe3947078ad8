"""Workload generation: registry, mix profiles, codegen, traces.

The registry (:mod:`repro.workloads.registry`) is the front door:
every workload — the paper's five, the synthetic zoo
(:mod:`repro.workloads.zoo`), and recorded traces
(:mod:`repro.workloads.trace`) — resolves by name through it.

Import names from the modules themselves: the package re-exports
nothing, so importing it loads no module a run does not use.
"""
