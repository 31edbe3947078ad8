"""The standard microbenchmark kernel suite.

One kernel per (opcode, operand-specifier mode) point of interest:

* a specifier sweep over ``MOVL`` isolating each addressing mode's cost;
* representatives of every Table 1 opcode group (SIMPLE, FIELD, FLOAT,
  CALLRET, SYSTEM, CHARACTER, DECIMAL);
* branch kernels in taken and not-taken flavours;
* ``cold`` variants that stride across untouched pages so every measured
  copy pays compulsory cache/TB misses (the warm counterparts pre-touch
  their data in the prologue).

Every kernel is constructed so its data-dependent execution quantities
(branch outcomes, string lengths, located bytes, saved registers) are
fixed and recorded in ``Instr.params`` — that is what lets the runner
demand exact agreement with :mod:`repro.ubench.model`.

MTPR/MFPR are deliberately absent: they require privileged-register
hooks a bare kernel image does not install.
"""

from __future__ import annotations

from repro.ubench.kernels import (COLD_READ_BASE, COLD_STRIDE,
                                  COLD_WRITE_BASE, Instr, Kernel, absref,
                                  autodec, autoinc, autoincdef, dispdef,
                                  dispop, imm, indexed, lit, reg, regdef)

#: Shared scratch data layouts.
_SCRATCH = (("scratch", ("zeros", 512)),)
_TOUCH_SCRATCH = (("scratch", 512),)


def _k(name, group, mode, instrs, **kw):
    return Kernel(name, group, mode, instrs, **kw)


def _one(name, group, mode, mnemonic, ops, params=None, **kw):
    return _k(name, group, mode,
              [Instr(mnemonic, ops, params=params)], **kw)


def _branch(name, mnemonic, ops, taken, mode="branch", **kw):
    target = "next" if taken else None
    instr = Instr(mnemonic, ops, branch="next", params={"taken": taken})
    return _k(name, "simple", mode, [instr], **kw)


def _build_suite():
    kernels = []
    add = kernels.append

    # ----- specifier sweep: MOVL under every addressing mode ----------
    add(_one("movl_literal", "simple", "literal",
             "MOVL", [lit(7), reg(2)], smoke=True))
    add(_one("movl_register", "simple", "register",
             "MOVL", [reg(1), reg(2)], regs={1: 0x1234}, smoke=True))
    add(_one("movl_immediate", "simple", "immediate",
             "MOVL", [imm(0x01020304), reg(2)], smoke=True))
    add(_one("movl_absolute", "simple", "absolute",
             "MOVL", [absref("scratch"), reg(2)],
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("movl_regdef", "simple", "register-deferred",
             "MOVL", [regdef(1), reg(2)], regs={1: "scratch"},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH, smoke=True))
    add(_one("movl_autoinc", "simple", "autoincrement",
             "MOVL", [autoinc(1), reg(2)], regs={1: "scratch"},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("movl_autodec", "simple", "autodecrement",
             "MOVL", [autodec(1), reg(2)], regs={1: ("scratch", 480)},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("movl_autoincdef", "simple", "autoincrement-deferred",
             "MOVL", [autoincdef(1), reg(2)], regs={1: "ptrs"},
             data=_SCRATCH + (("ptrs", ("ptrs", "scratch", 48)),),
             pretouch=_TOUCH_SCRATCH + (("ptrs", 192),)))
    add(_one("movl_disp_byte", "simple", "displacement-byte",
             "MOVL", [dispop(1, 4, size=1), reg(2)], regs={1: "scratch"},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH, smoke=True))
    add(_one("movl_disp_word", "simple", "displacement-word",
             "MOVL", [dispop(1, 4, size=2), reg(2)], regs={1: "scratch"},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("movl_disp_long", "simple", "displacement-long",
             "MOVL", [dispop(1, 4, size=4), reg(2)], regs={1: "scratch"},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("movl_dispdef", "simple", "displacement-deferred",
             "MOVL", [dispdef(1, 0, size=1), reg(2)], regs={1: "ptrs"},
             data=_SCRATCH + (("ptrs", ("ptrs", "scratch", 4)),),
             pretouch=_TOUCH_SCRATCH + (("ptrs", 16),)))
    add(_one("movl_indexed", "simple", "indexed",
             "MOVL", [indexed(dispop(1, 0, size=1), 3), reg(2)],
             regs={1: "scratch", 3: 2},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("movl_store", "simple", "store",
             "MOVL", [reg(1), regdef(2)], regs={1: 5, 2: "scratch"},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH, smoke=True))

    # ----- SIMPLE group representatives -------------------------------
    add(_one("addl2_rr", "simple", "register",
             "ADDL2", [reg(1), reg(2)], regs={1: 1, 2: 1}, smoke=True))
    add(_one("addl3_rrr", "simple", "register",
             "ADDL3", [reg(1), reg(2), reg(3)], regs={1: 1, 2: 2}))
    add(_one("addl2_rm", "simple", "register-deferred",
             "ADDL2", [reg(1), regdef(2)], regs={1: 1, 2: "scratch"},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("incl_r", "simple", "register", "INCL", [reg(1)]))
    add(_one("cmpl_rr", "simple", "register",
             "CMPL", [reg(1), reg(2)], regs={1: 3, 2: 4}))
    add(_one("tstl_r", "simple", "register", "TSTL", [reg(1)]))
    add(_one("bitl_rr", "simple", "register",
             "BITL", [reg(1), reg(2)], regs={1: 1, 2: 3}))
    add(_one("bisl2_rr", "simple", "register",
             "BISL2", [reg(1), reg(2)], regs={1: 1}))
    add(_one("mcoml_rr", "simple", "register",
             "MCOML", [reg(1), reg(2)]))
    add(_one("movzbl_rr", "simple", "register",
             "MOVZBL", [reg(1), reg(2)], regs={1: 0x80}))
    add(_one("cvtwl_rr", "simple", "register",
             "CVTWL", [reg(1), reg(2)], regs={1: 0x8000}))
    add(_one("movq_rr", "simple", "register",
             "MOVQ", [reg(0), reg(4)], regs={0: 1, 1: 2}))
    add(_one("ashl_rr", "simple", "register",
             "ASHL", [lit(3), reg(1), reg(2)], regs={1: 5}))
    add(_one("rotl_rr", "simple", "register",
             "ROTL", [lit(3), reg(1), reg(2)], regs={1: 5}))
    add(_one("pushl_r", "simple", "register",
             "PUSHL", [reg(1)], regs={1: 7},
             pretouch=(("stack", 0x200),)))
    add(_one("moval_disp", "simple", "displacement-byte",
             "MOVAL", [dispop(1, 4, size=1), reg(2)],
             regs={1: "scratch"}, data=_SCRATCH))
    add(_one("nop", "simple", "n/a", "NOP", []))

    # ----- branches ----------------------------------------------------
    add(_branch("brb_taken", "BRB", [], True, smoke=False))
    add(_branch("bneq_taken", "BNEQ", [], True,
                regs={1: 1}, cc_reg=1, smoke=True))
    add(_branch("beql_nottaken", "BEQL", [], False, regs={1: 1}, cc_reg=1))
    add(_branch("sobgtr_taken", "SOBGTR", [reg(6)], True,
                regs={6: 1_000_000}, smoke=True))
    add(_branch("sobgtr_nottaken", "SOBGTR", [reg(6)], False,
                regs={6: 0xFFFFFF00}))
    add(_branch("aoblss_taken", "AOBLSS", [reg(5), reg(4)], True,
                regs={5: 1_000_000, 4: 0}))
    add(_branch("acbl_taken", "ACBL", [reg(5), reg(4), reg(3)], True,
                regs={5: 1_000_000, 4: 1, 3: 0}))
    add(_k("casel_inrange", "simple", "branch",
           [Instr("CASEL", [reg(3), lit(0), lit(0)],
                  params={"in_range": True})],
           regs={3: 0}))
    add(_k("jsb_rsb", "simple", "absolute",
           [Instr("JSB", [absref("rsb_proc")]),
            Instr("RSB", [], emit=False)],
           needs=("rsb_proc",), pretouch=(("stack", 0x200),)))
    add(_k("bsbw_rsb", "simple", "branch",
           [Instr("BSBW", [], branch="rsb_proc", params={"taken": True}),
            Instr("RSB", [], emit=False)],
           needs=("rsb_proc",), pretouch=(("stack", 0x200),)))

    # ----- FIELD group --------------------------------------------------
    add(_one("extzv_reg", "field", "register",
             "EXTZV", [lit(2), lit(4), reg(1), reg(2)],
             regs={1: 0xFF}, params={"field_reads": 0}, smoke=True))
    add(_one("extzv_mem", "field", "register-deferred",
             "EXTZV", [lit(2), lit(4), regdef(1), reg(2)],
             regs={1: "scratch"}, params={"field_reads": 1},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("insv_mem", "field", "register-deferred",
             "INSV", [reg(1), lit(2), lit(4), regdef(2)],
             regs={1: 3, 2: "scratch"}, params={"field_rmw": True},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("ffs_reg", "field", "register",
             "FFS", [lit(0), lit(8), reg(1), reg(2)],
             regs={1: 1}, params={"field_reads": 0, "scanned": 0}))
    add(_k("bbs_taken", "field", "register",
           [Instr("BBS", [lit(0), reg(1)], branch="next",
                  params={"taken": True, "field_reads": 0})],
           regs={1: 1}))

    # ----- FLOAT group --------------------------------------------------
    _f = {1: 0, 2: 0}
    add(_one("addf2_rr", "float", "register",
             "ADDF2", [reg(1), reg(2)], regs=_f, smoke=True))
    add(_one("mulf2_rr", "float", "register",
             "MULF2", [reg(1), reg(2)], regs=_f))
    add(_one("divf2_rr", "float", "register",
             "DIVF2", [reg(1), reg(2)], regs=_f))
    add(_one("cvtlf_rr", "float", "register",
             "CVTLF", [reg(1), reg(2)], regs={1: 3}))
    add(_one("mull2_rr", "float", "register",
             "MULL2", [reg(1), reg(2)], regs={1: 3, 2: 5}))
    add(_one("divl2_rr", "float", "register",
             "DIVL2", [reg(1), reg(2)], regs={1: 1, 2: 100}))
    add(_one("emul_rrrr", "float", "register",
             "EMUL", [reg(1), reg(2), reg(3), reg(4)],
             regs={1: 3, 2: 5, 3: 7}))

    # ----- CALLRET group ------------------------------------------------
    add(_one("pushr_3", "callret", "literal",
             "PUSHR", [lit(7)], params={"nregs": 3},
             regs={0: 1, 1: 2, 2: 3}, pretouch=(("stack", 0x300),),
             smoke=True))
    add(_one("popr_3", "callret", "literal",
             "POPR", [lit(7)], params={"nregs": 3},
             sp_label="popsp",
             data=(("popsp", ("zeros", 768)),),
             pretouch=(("popsp", 768),)))
    add(_k("calls_ret", "callret", "absolute",
           [Instr("CALLS", [lit(0), absref("ret_proc")],
                  params={"save_regs": 0}),
            Instr("RET", [], emit=False,
                  params={"calls_frame": True, "save_regs": 0})],
           needs=("ret_proc",), pretouch=(("stack", 0x300),),
           smoke=True))

    # ----- SYSTEM group -------------------------------------------------
    add(_one("prober", "system", "register-deferred",
             "PROBER", [lit(0), lit(4), regdef(1)],
             regs={1: "scratch"}, data=_SCRATCH,
             pretouch=_TOUCH_SCRATCH))
    add(_one("insque", "system", "register-deferred",
             "INSQUE", [regdef(1), regdef(2)],
             regs={1: "qentry", 2: "queue"},
             data=(("queue", ("ptrs", "queue", 2)),
                   ("qentry", ("zeros", 8))),
             pretouch=(("queue", 16),)))
    add(_one("remque", "system", "register-deferred",
             "REMQUE", [regdef(1), reg(2)],
             regs={1: "qentry"},
             data=(("qentry", ("ptrs", "qentry", 2)),),
             pretouch=(("qentry", 8),)))

    # ----- CHARACTER group ----------------------------------------------
    add(_one("movc3_16", "character", "absolute",
             "MOVC3", [lit(16), absref("scratch"), absref(("scratch", 256))],
             params={"full": 4, "tail": 0, "fill": 0},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH, smoke=True))
    add(_one("cmpc3_8", "character", "absolute",
             "CMPC3", [lit(8), absref("scratch"), absref(("scratch", 256))],
             params={"iters": 8, "reads": 16},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("locc_8", "character", "absolute",
             "LOCC", [lit(1), lit(8), absref("scratch")],
             params={"chunks": 2},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))

    # ----- DECIMAL group ------------------------------------------------
    add(_one("movp_4", "decimal", "absolute",
             "MOVP", [lit(4), absref("scratch"), absref(("scratch", 128))],
             params={"pbytes_read": 3, "pbytes_written": 3},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH, smoke=True))
    add(_one("cmpp3_4", "decimal", "absolute",
             "CMPP3", [lit(4), absref("scratch"), absref(("scratch", 64))],
             params={"pbytes_read": 6, "pbytes_written": 0},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))
    add(_one("addp4_4", "decimal", "absolute",
             "ADDP4", [lit(4), absref("scratch"), lit(4),
                       absref(("scratch", 32))],
             params={"pbytes_read": 6, "pbytes_written": 3},
             data=_SCRATCH, pretouch=_TOUCH_SCRATCH))

    # ----- cold cache/TB variants ---------------------------------------
    add(_one("movl_disp_cold", "simple", "displacement-long",
             "MOVL", [dispop(2, 0, size=4, stride=COLD_STRIDE), reg(1)],
             variant="cold", regs={2: COLD_READ_BASE},
             note="each copy reads a fresh 512-byte page: compulsory "
                  "cache + TB miss", smoke=True))
    add(_one("movl_store_cold", "simple", "displacement-long",
             "MOVL", [reg(1), dispop(2, 0, size=4, stride=COLD_STRIDE)],
             variant="cold", regs={1: 7, 2: COLD_WRITE_BASE},
             note="each copy writes a fresh 512-byte page: compulsory "
                  "TB miss on the write path"))

    return tuple(kernels)


STANDARD_SUITE = _build_suite()

_BY_NAME = {k.name: k for k in STANDARD_SUITE}
if len(_BY_NAME) != len(STANDARD_SUITE):
    raise RuntimeError("duplicate kernel names in STANDARD_SUITE")

#: Small fixed subset for CI smoke runs and the perf-bench sweep.
SMOKE_SUITE = tuple(k for k in STANDARD_SUITE if k.smoke)


def kernel_by_name(name):
    try:
        return _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown kernel {name!r}; see "
                       "repro.ubench.suite.STANDARD_SUITE") from None


def groups():
    return tuple(sorted({k.group for k in STANDARD_SUITE}))


def modes():
    return tuple(sorted({k.mode for k in STANDARD_SUITE}))


def kernel_families(kernel) -> tuple:
    """The executor families one kernel's instructions dispatch to."""
    from repro.arch.opcodes import opcode

    return tuple({opcode(instr.mnemonic).family
                  for instr in kernel.instrs})


def supported_on(kernel, machine) -> bool:
    """Whether every family the kernel uses exists on ``machine``."""
    from repro.machines.registry import get_machine

    unsupported = set(get_machine(machine).params.unsupported_families)
    if not unsupported:
        return True
    return not any(family in unsupported
                   for family in kernel_families(kernel))


def select(group=None, mode=None, variant=None, smoke=False,
           machine=None):
    """Filter the suite by group/mode/variant labels.

    ``machine`` additionally drops kernels whose executor families the
    named backend does not implement (a subset machine refuses them at
    decode, so they cannot be benchmarked there).
    """
    pool = SMOKE_SUITE if smoke else STANDARD_SUITE
    out = [k for k in pool
           if (group is None or k.group == group)
           and (mode is None or k.mode == mode)
           and (variant is None or k.variant == variant)
           and (machine is None or supported_on(k, machine))]
    return tuple(out)
