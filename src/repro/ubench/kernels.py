"""Microbenchmark kernel descriptions and code generation.

A *kernel* is a tiny steady-state program in the nanoBench style: one
instruction sequence (usually a single instruction) repeated as
straight-line unrolled copies, preceded by a prologue that establishes
register state and warms the cache/TB, and followed by warm-up copies
that bring the pipeline to steady state before the measured window.

The same :class:`Kernel` object drives both sides of the measurement:

* :func:`emit` turns it into an executable :class:`~repro.asm.program.Image`
  (data area, shared subroutines, prologue, warm-up copies, measured
  copies, HALT), reporting exactly how many instructions each phase
  executes so the runner can place the measurement window;
* :mod:`repro.ubench.model` walks the same operand/instruction specs to
  predict the busy-cycle cost of one copy analytically.

Keeping one description for both is what lets the runner demand *exact*
agreement between the analytical model and the µPC histogram.
"""

from __future__ import annotations

import struct

from repro.arch import encode as enc
from repro.asm.program import ProgramBuilder
from repro.vm.address import PAGE_BYTES, S0_BASE

#: Image base: data area first, then code (labels resolve forward).
DATA_BASE = S0_BASE + 0x8000

#: Fresh, never-touched regions for cold-variant kernels (each measured
#: copy strides onto a new page: compulsory TB and cache miss).
COLD_READ_BASE = S0_BASE + 0x200000
COLD_WRITE_BASE = S0_BASE + 0x240000

#: Page stride used by cold kernels.
COLD_STRIDE = PAGE_BYTES

#: Default shape of a run: warm-up copies then measured copies.
WARMUP_COPIES = 8
MEASURED_COPIES = 32

#: Registers the prologue's pre-touch loop clobbers; kernels must not
#: depend on them (R12-R15 are AP/FP/SP/PC and also off limits except
#: where a kernel manages them deliberately).
PRETOUCH_REGS = (9, 10, 11)


class KernelError(Exception):
    """A kernel description that cannot be emitted."""


class Op:
    """One operand specifier: addressing mode plus its parameters.

    ``label`` may be a data-area label name or ``(name, offset)``; it is
    resolved to an absolute address at emission time (for ``absolute``
    operands and register initial values).  ``stride`` shifts a
    displacement by ``stride * copy_index`` so cold kernels can touch a
    fresh page per copy while keeping the encoding length fixed.
    """

    __slots__ = ("mode", "reg", "value", "disp", "disp_size", "stride",
                 "label", "index")

    def __init__(self, mode, reg=0, value=0, disp=0, disp_size=0,
                 stride=0, label=None, index=None):
        self.mode = mode
        self.reg = reg
        self.value = value
        self.disp = disp
        self.disp_size = disp_size
        self.stride = stride
        self.label = label
        self.index = index


def lit(value):
    """Short literal ``S^#value``."""
    return Op("literal", value=value)


def reg(n):
    """Register ``Rn``."""
    return Op("register", reg=n)


def regdef(n):
    """Register deferred ``(Rn)``."""
    return Op("regdef", reg=n)


def autoinc(n):
    """Autoincrement ``(Rn)+``."""
    return Op("autoinc", reg=n)


def autodec(n):
    """Autodecrement ``-(Rn)``."""
    return Op("autodec", reg=n)


def autoincdef(n):
    """Autoincrement deferred ``@(Rn)+``."""
    return Op("autoincdef", reg=n)


def imm(value):
    """Immediate ``I^#value``."""
    return Op("immediate", value=value)


def absref(label):
    """Absolute ``@#label`` against the kernel's data area."""
    return Op("absolute", label=label)


def dispop(n, disp, size=1, stride=0):
    """Displacement ``d(Rn)`` with an explicit B^/W^/L^ width."""
    return Op("disp", reg=n, disp=disp, disp_size=size, stride=stride)


def dispdef(n, disp, size=1):
    """Displacement deferred ``@d(Rn)``."""
    return Op("dispdef", reg=n, disp=disp, disp_size=size)


def indexed(base, xreg):
    """Add an ``[Rx]`` index prefix to a base operand."""
    out = Op(base.mode, reg=base.reg, value=base.value, disp=base.disp,
             disp_size=base.disp_size, stride=base.stride,
             label=base.label)
    out.index = xreg
    return out


class Instr:
    """One instruction of a kernel copy.

    ``branch`` is ``None``, ``"next"`` (branch displacement targeting the
    next copy) or an explicit label (shared subroutines).  ``emit=False``
    marks instructions *executed* per copy but emitted once elsewhere
    (a shared RSB/RET subroutine body); the model still costs them and
    the runner still steps them.  ``params`` carries the data-dependent
    quantities the analytical model needs (documented per use in
    :func:`repro.ubench.model.exec_busy`).
    """

    __slots__ = ("mnemonic", "ops", "branch", "emit", "params")

    def __init__(self, mnemonic, ops=(), branch=None, emit=True,
                 params=None):
        self.mnemonic = mnemonic
        self.ops = tuple(ops)
        self.branch = branch
        self.emit = emit
        self.params = dict(params or {})


class Kernel:
    """A complete microbenchmark description."""

    __slots__ = ("name", "group", "mode", "variant", "instrs", "regs",
                 "sp_label", "data", "pretouch", "needs", "cc_reg", "note",
                 "smoke")

    def __init__(self, name, group, mode, instrs, variant="warm",
                 regs=None, sp_label=None, data=(), pretouch=(),
                 needs=(), cc_reg=None, note="", smoke=False):
        self.name = name
        self.group = group            # opcode-group label, lowercase
        self.mode = mode              # operand-mode label for filtering
        self.variant = variant        # "warm" | "cold"
        self.instrs = tuple(instrs)
        self.regs = dict(regs or {})  # reg -> int | label | (label, off)
        self.sp_label = sp_label
        self.data = tuple(data)       # (label, payload-spec) pairs
        self.pretouch = tuple(pretouch)   # (label|"stack"|int, nbytes)
        self.needs = tuple(needs)     # shared subroutines: rsb_proc/ret_proc
        self.cc_reg = cc_reg          # TSTL Rn in the prologue sets CC
        self.note = note
        self.smoke = smoke

    @property
    def ipc(self):
        """Instructions executed per copy (including emit=False ones)."""
        return len(self.instrs)

    def mnemonics(self):
        return tuple(i.mnemonic for i in self.instrs)


class Emitted:
    """An assembled kernel plus its phase instruction counts."""

    __slots__ = ("kernel", "image", "setup_instructions",
                 "warmup_instructions", "measured_instructions",
                 "warmup", "copies")

    def __init__(self, kernel, image, setup, warmup, copies):
        self.kernel = kernel
        self.image = image
        self.setup_instructions = setup
        self.warmup = warmup
        self.copies = copies
        self.warmup_instructions = warmup * kernel.ipc
        self.measured_instructions = copies * kernel.ipc


def _resolve(ref, labels):
    """Resolve an int / label / (label, offset) reference to an address."""
    if isinstance(ref, int):
        return ref
    if isinstance(ref, tuple):
        name, offset = ref
        return labels[name] + offset
    return labels[ref]


def _encode_op(op, labels, copy_index):
    """Turn an :class:`Op` into an encodable ``enc.Operand``."""
    mode = op.mode
    if mode == "literal":
        out = enc.literal(op.value)
    elif mode == "register":
        out = enc.register(op.reg)
    elif mode == "regdef":
        out = enc.register_deferred(op.reg)
    elif mode == "autoinc":
        out = enc.autoincrement(op.reg)
    elif mode == "autodec":
        out = enc.autodecrement(op.reg)
    elif mode == "autoincdef":
        out = enc.autoinc_deferred(op.reg)
    elif mode == "immediate":
        out = enc.immediate(op.value)
    elif mode == "absolute":
        out = enc.absolute(_resolve(op.label, labels))
    elif mode == "disp":
        out = enc.displacement(op.reg, op.disp + op.stride * copy_index,
                               size=op.disp_size)
    elif mode == "dispdef":
        out = enc.disp_deferred(op.reg, op.disp, size=op.disp_size)
    else:
        raise KernelError(f"unknown operand mode {mode!r}")
    if op.index is not None:
        out = out.indexed(op.index)
    return out


def _emit_data(b, kernel, labels):
    """Emit the kernel's data area, recording label addresses."""
    for label, spec in kernel.data:
        b.align(4)
        labels[label] = DATA_BASE + b.offset
        kind = spec[0]
        if kind == "zeros":
            b.space(spec[1])
        elif kind == "bytes":
            b.data(spec[1])
        elif kind == "ptrs":
            # A table of longword pointers at `label`, all aimed at an
            # already-emitted target label (self-reference allowed).
            _, target, count = spec
            target_addr = _resolve(target, labels)
            b.data(struct.pack("<I", target_addr & 0xFFFFFFFF) * count)
        else:
            raise KernelError(f"unknown data spec {kind!r}")
    b.align(4)


def _emit_procs(b, kernel, labels):
    """Emit shared subroutine bodies referenced by emit=False instrs."""
    if "rsb_proc" in kernel.needs:
        labels["rsb_proc"] = DATA_BASE + b.offset
        b.label("rsb_proc")
        b.emit("RSB")
    if "ret_proc" in kernel.needs:
        b.align(4)
        # CALL reads a 2-byte entry mask at the target, then enters at
        # target+2 — lay out a zero mask followed by RET.
        labels["ret_proc"] = DATA_BASE + b.offset
        b.label("ret_proc")
        b.data(b"\x00\x00")
        b.emit("RET")


def _emit_prologue(b, kernel, labels, sp_init):
    """Pre-touch loops, register init, SP init, CC setup.

    Returns the number of instructions the prologue executes (pre-touch
    loops run their body once per iteration, so this exceeds the number
    of instructions *emitted*).
    """
    executed = 0
    for seq, (target, nbytes) in enumerate(kernel.pretouch):
        if target == "stack":
            addr = sp_init - nbytes
        else:
            addr = _resolve(target, labels)
        count = max(1, (nbytes + 3) // 4)
        b.emit("MOVL", enc.immediate(addr), enc.register(10))
        b.emit("MOVL", enc.immediate(count), enc.register(11))
        loop = f"pretouch{seq}"
        b.label(loop)
        b.emit("MOVL", enc.autoincrement(10), enc.register(9))
        b.branch("SOBGTR", loop, enc.register(11))
        executed += 2 + 2 * count
    for n in sorted(kernel.regs):
        value = _resolve(kernel.regs[n], labels)
        b.emit("MOVL", enc.immediate(value & 0xFFFFFFFF), enc.register(n))
        executed += 1
    if kernel.sp_label is not None:
        b.emit("MOVL", enc.immediate(_resolve(kernel.sp_label, labels)),
               enc.register(14))
        executed += 1
    if kernel.cc_reg is not None:
        b.emit("TSTL", enc.register(kernel.cc_reg))
        executed += 1
    return executed


def _emit_copy(b, kernel, labels, index, next_label):
    """Emit one copy of the kernel body."""
    for instr in kernel.instrs:
        if not instr.emit:
            continue
        ops = [_encode_op(op, labels, index) for op in instr.ops]
        if instr.mnemonic.startswith("CASE"):
            b.case(instr.mnemonic, ops[0], ops[1], ops[2], [next_label])
        elif instr.branch is not None:
            target = next_label if instr.branch == "next" else instr.branch
            b.branch(instr.mnemonic, target, *ops)
        else:
            b.emit(instr.mnemonic, *ops)


def emit(kernel, warmup=WARMUP_COPIES, copies=MEASURED_COPIES):
    """Assemble a kernel into an image with known phase boundaries."""
    b = ProgramBuilder()
    labels = {}
    _emit_data(b, kernel, labels)
    _emit_procs(b, kernel, labels)
    b.label("start")
    sp_init = DATA_BASE - 0x100 if kernel.sp_label is None \
        else _resolve(kernel.sp_label, labels)
    setup = _emit_prologue(b, kernel, labels, sp_init)
    total = warmup + copies
    for i in range(total):
        b.label(f"c{i}")
        _emit_copy(b, kernel, labels, i, f"c{i + 1}")
    b.label(f"c{total}")
    b.emit("HALT")
    image = b.assemble(DATA_BASE)
    return Emitted(kernel, image, setup, warmup, copies)
