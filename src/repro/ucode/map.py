"""The complete microcode map of the simulated 11/780.

Built once per process (:func:`repro.cpu.executors.listing`), this
allocates every control-store address the simulator can execute:

* per-family instruction decode dispatch targets (Row.DECODE),
* the per-context "insufficient bytes" dispatch addresses whose execution
  counts are the IB-stall cycles (§4.3),
* two copies of each operand-specifier flow — one charged to Row.SPEC1 and
  one to Row.SPEC26, mirroring the real microcode's ability to distinguish
  first specifiers from the rest (§3.2),
* the shared index-prefix base calculation (charged to SPEC2-6 even for
  first specifiers — the microcode-sharing artifact the paper documents in
  its Table 8 remarks),
* branch-displacement processing (Row.BDISP),
* TB-miss service, unaligned-reference microcode (Row.MEM_MGMT), microtrap
  abort cycles (Row.ABORTS), interrupt and exception delivery
  (Row.INT_EXCEPT),
* and one execute flow per registered family (rows EX_*).
"""

from __future__ import annotations

from repro.arch.opcodes import ALL_OPCODES
from repro.arch.specifiers import AddressingMode
from repro.ucode.controlstore import ControlStore
from repro.ucode.registry import EXECUTORS, KIND_CODES
from repro.ucode.rows import EXECUTE_ROW, CycleKind, Row

#: Addressing modes that get full specifier flows (literal and register
#: modes consume no EBOX cycles: they are handled by decode hardware).
_FLOW_MODES = (
    AddressingMode.IMMEDIATE,
    AddressingMode.ABSOLUTE,
    AddressingMode.REGISTER_DEFERRED,
    AddressingMode.AUTOINCREMENT,
    AddressingMode.AUTODECREMENT,
    AddressingMode.AUTOINC_DEFERRED,
    AddressingMode.DISPLACEMENT,
    AddressingMode.DISP_DEFERRED,
    AddressingMode.RELATIVE,
    AddressingMode.RELATIVE_DEFERRED,
)

#: Slots allocated for each specifier flow.  Not every mode uses every
#: slot; keeping the shape uniform keeps the evaluator branch-free.
_SPEC_SLOTS = (
    ("calc", CycleKind.COMPUTE),    # address formation cycle
    ("update", CycleKind.COMPUTE),  # autodecrement register update
    ("imm", CycleKind.COMPUTE),     # take immediate/absolute bytes from IB
    ("ptr", CycleKind.READ),        # indirect-pointer fetch (deferred)
    ("read", CycleKind.READ),       # operand datum read
    ("write", CycleKind.WRITE),     # operand datum write (result store)
)


class SpecFlow:
    """Addresses of one specifier flow (one mode, one spec row)."""

    __slots__ = ("calc", "update", "imm", "ptr", "read", "write")

    def __init__(self, block, mode_name: str) -> None:
        for name, kind in _SPEC_SLOTS:
            setattr(self, name, block.slot(f"{mode_name}.{name}", kind))


class MicrocodeMap:
    """All allocated control-store addresses, ready for the EBOX."""

    def __init__(self, store: ControlStore) -> None:
        self.store = store

        # -- instruction decode dispatch (Row.DECODE) -------------------
        decode = store.block("decode", Row.DECODE)
        #: family -> IRD dispatch address; executing it is the one
        #: non-overlapped I-Decode cycle every instruction pays (§2.1).
        self.ird = {}
        for family in dict.fromkeys(info.family for info in ALL_OPCODES):
            self.ird[family] = decode.compute(f"ird.{family}")
        #: IB stall while decoding an opcode (branch-target refills land
        #: here, hence the paper's Decode-row 0.613 cycles).
        self.ird_stall = decode.ib_stall("ird.stall")

        # -- operand specifier flows ------------------------------------
        self.spec_flows = {}
        self.spec_stall = {}
        self.spec_fused = {}
        for row in (Row.SPEC1, Row.SPEC26):
            label = "spec1" if row is Row.SPEC1 else "spec26"
            block = store.block(label, row)
            flows = {}
            for mode in _FLOW_MODES:
                flows[mode] = SpecFlow(block, mode.value)
            self.spec_flows[row] = flows
            self.spec_stall[row] = block.ib_stall("stall")
            # Literal/register-optimised first execute cycle, reported in
            # the specifier rows (paper, Table 8 remarks).
            self.spec_fused[row] = block.compute("fused_execute")
        #: Indexed-specifier base calculation: microcode sharing forces
        #: all of it into SPEC2-6, even for first specifiers.
        spec26_block = store.block("spec26", Row.SPEC26)
        self.index_calc = spec26_block.compute("index_calc")

        # -- branch displacement processing (Row.BDISP) -------------------
        bdisp = store.block("bdisp", Row.BDISP)
        self.bdisp_calc = bdisp.compute("target_calc")
        self.bdisp_stall = bdisp.ib_stall("stall")

        # -- memory management (Row.MEM_MGMT) ------------------------------
        mm = store.block("memmgmt", Row.MEM_MGMT)
        self.tbm_entry = mm.compute("tbmiss.entry")
        self.tbm_compute = mm.compute("tbmiss.walk")
        self.tbm_pte_read = mm.read("tbmiss.pte_read")
        self.tbm_insert = mm.compute("tbmiss.insert")
        self.unaligned_calc = mm.compute("unaligned.calc")

        # -- aborts (Row.ABORTS): one cycle per microtrap and one per
        # -- executed microcode patch (paper §5 lists both) ------------------
        aborts = store.block("aborts", Row.ABORTS)
        self.trap_abort = aborts.compute("microtrap")
        self.patch_abort = aborts.compute("patch")

        # -- interrupts and exceptions (Row.INT_EXCEPT) ---------------------
        intexc = store.block("intexcept", Row.INT_EXCEPT)
        self.irq_entry = intexc.compute("irq.entry")
        self.irq_grant = intexc.compute("irq.grant")
        self.irq_vector_read = intexc.read("irq.vector_read")
        self.irq_push_psl = intexc.write("irq.push_psl")
        self.irq_push_pc = intexc.write("irq.push_pc")
        self.exc_entry = intexc.compute("exc.entry")
        self.exc_push_psl = intexc.write("exc.push_psl")
        self.exc_push_pc = intexc.write("exc.push_pc")
        self.exc_push_param = intexc.write("exc.push_param")

        # -- execute flows, one per registered family -----------------------
        self.exec_flows = {}
        for info in ALL_OPCODES:
            family = info.family
            if family in self.exec_flows:
                continue
            spec = EXECUTORS.get(family)
            if spec is None:
                raise KeyError(
                    f"no executor registered for family {family!r}")
            row = EXECUTE_ROW[info.group]
            block = store.block(f"exec.{family}", row)
            self.exec_flows[family] = {
                name: block.slot(name, KIND_CODES[code])
                for name, code in spec.slots.items()
            }
