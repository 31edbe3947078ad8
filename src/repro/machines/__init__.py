"""repro.machines: selectable machine backends and the analytical tier.

The registry (:mod:`repro.machines.registry`) names the available
timing backends — the paper's VAX-11/780 and the MicroVAX 78032 subset
machine — and the analytical tier (:mod:`repro.machines.analytical`)
generalizes the microbenchmark busy-cycle model to whole workloads for
instant CPI estimates, validated against the full simulator.

Import names from the modules themselves: the package re-exports
nothing, so importing it loads no module a run does not use.
"""
