"""VAX architecture subset: datatypes, registers, opcodes, encode/decode.

This package is purely architectural — no timing, no implementation state.
The 11/780 implementation details (pipeline, cache, TB, microcode) live in
:mod:`repro.cpu`, :mod:`repro.mem`, :mod:`repro.vm` and :mod:`repro.ucode`.

Import names from the modules themselves: the package re-exports
nothing, so importing it loads no module a run does not use.
"""
