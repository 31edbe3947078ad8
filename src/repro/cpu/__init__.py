"""The 11/780 CPU: EBOX, I-Fetch/IB, tracer, faults and the machine.

Import names from the modules themselves: the package re-exports
nothing, so importing it loads no module a run does not use.
"""
