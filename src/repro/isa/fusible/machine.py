"""Functional model of the native (implementation-ISA) machine.

Executes encoded micro-op streams out of memory — in the VM, that memory is
the concealed code cache.  Execution proceeds until a *VM exit event*:

* ``VMEXIT``  — translated code ran off its translation; the architected
  continuation address is in a register (exit stubs build it with
  LUI/ORI).  The VMM dispatch loop takes over.
* ``VMCALL`` — translated code reached a complex architected instruction
  (REP string op, DIV, INT, HLT) that the translators off-load to VMM
  software, exactly like the hardware assists' ``Flag_cmplx`` escape.
* ``HALT``   — the native machine stops (used by bare-metal demos).

The machine also implements the ``XLTX86`` instruction (Table 1): it
delegates to :mod:`repro.hwassist.xltx86` so the backend functional unit
and this executable model are the same hardware by construction.

Execution model
---------------

Decode work is paid once per static micro-op, not once per dynamic one
(``docs/isa_reference.md``, "How the machine executes"):

* **Run.**  On a miss at ``pc`` the machine reads the code bytes in bulk
  and resolves them, word by word through the VM's word table (a word no
  layer has met is decoded there), to the first control micro-op or the
  end of the decode window.  That straight-line stretch is cached by
  entry pc as ``(body, tail, steps, nbytes, fused_pairs, end_pc,
  shape)``; executing it is ``for step in body: step()`` with the
  counters added once.
* **Binder table.**  Every micro-op becomes a host callable through the
  one ``UOp -> binder`` table (:data:`_BINDERS`).  Which register cell an
  operand reads (``R_ZERO`` reads a constant zero, writes to it land in a
  bit bucket), whether ``.f`` applies, immediates and branch targets are
  all settled when the micro-op is bound.  :meth:`FusibleMachine.run`,
  :meth:`~FusibleMachine.step` and :meth:`~FusibleMachine.execute_uops`
  share the table, so micro-op semantics are defined exactly once.
* **Write-watch invariant.**  The machine only executes forms decoded
  from the bytes memory holds *now*: the pages a run was decoded from
  are watched (:meth:`AddressSpace.watch`) and any write to one — a
  chaining patch, a redirect, a flush, an eviction, injected corruption,
  a guest store — drops every run decoded from it.  A store micro-op
  that does so ends the run it belongs to, so even code that rewrites
  its own next micro-op behaves as if fetched one micro-op at a time.
* **Compiled loops.**  A superblock head whose code loops back to it
  runs, once entered often enough for its size (:data:`LOOP_ENTRIES`),
  as one generated function with registers and flags in locals.  It
  stops and retires exactly where the runs would; write-watch drops it,
  and the bound steps stay its test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import length_hint
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.isa.fusible.encoding import UopDecodeError, WordTable, decode_uop
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import (
    I_FORM_OPS,
    RR_FORM_OPS,
    UOp,
)
from repro.isa.fusible.registers import FREG_BYTES, NFREGS, NREGS, R_ZERO
from repro.isa.x86lite.registers import Cond, cond_holds
from repro.memory.address_space import (
    ADDRESS_MASK,
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    AddressSpace,
)

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000

#: Most code bytes one run is decoded from (it also ends at its first
#: control micro-op and at the end of its page).
RUN_WINDOW = 256

#: A loop of L micro-ops compiles after ``LOOP_ENTRIES + LOOP_FIXED // L``
#: entries of its head since its page last changed: a compile has a fixed
#: cost, so a short loop must run longer to repay it.
LOOP_ENTRIES = 48
LOOP_FIXED = 1800

#: What a bound micro-op returns: None or False to go on, True when it
#: wrote to memory that runs were decoded from, an ExitEvent on a VM exit.
Step = Callable[[], object]

#: entry pc -> (body, tail, steps, nbytes, fused_pairs, end_pc, shape);
#: ``shape`` holds one byte per micro-op, length | 0x80 if fused, for the
#: rare run that stops part-way (fault, or a store into watched code).
Run = Tuple[Tuple[Step, ...], Step, int, int, int, int, bytes]


class NativeMachineError(Exception):
    """Raised on malformed native code or exhausted step budgets."""


class NativeBudgetExhausted(NativeMachineError):
    """``run`` spent its micro-op budget without reaching a VM exit."""


@dataclass
class ExitEvent:
    """Why the native machine stopped executing translated code."""

    kind: str                 # 'vmexit' | 'vmcall' | 'halt'
    value: int = 0            # x86 target (vmexit) or service id (vmcall)
    native_pc: int = 0        # address of the exiting micro-op
    resume_pc: int = 0        # address of the following micro-op


def _sext32(value: int) -> int:
    value &= MASK32
    return value - 0x100000000 if value & SIGN32 else value


class FusibleMachine:
    """Executes fusible-ISA micro-op code from an address space."""

    def __init__(self, memory: AddressSpace) -> None:
        #: fixed for the machine's life: runs are decoded from it and
        #: kept honest by watches on it
        self.memory = memory
        self.regs: List[int] = [0] * NREGS
        self.fregs: List[bytearray] = [bytearray(FREG_BYTES)
                                       for _ in range(NFREGS)]
        self.cf = self.zf = self.sf = self.of = False
        self.pc = 0
        # CSR fields written by XLTX86 (widened to 5-bit byte counts; see
        # repro.hwassist.xltx86 for the documented deviation from Fig. 6b).
        self.csr_ilen = 0
        self.csr_uop_bytes = 0
        self.csr_cmplx = False
        self.csr_cti = False
        # statistics
        self.uops_executed = 0
        self.fused_pairs_seen = 0
        self.uop_bytes_fetched = 0
        #: the VM's word table.  The machine keeps each non-control
        #: word's bound step in its entry: such a step depends on nothing
        #: but the word, so all sites holding those bytes share it
        self.words = WordTable()
        # pre-decoded runs and the pages they were decoded from
        self._runs: Dict[int, Run] = {}
        self._run_pcs_by_page: Dict[int, Set[int]] = {}
        #: set when a write dropped runs; bound stores report it so the
        #: run they execute in stops before its next (possibly stale) step
        self._code_written = False
        #: where bound micro-ops put a result destined for R_ZERO
        self._bit_bucket = [0]
        #: superblock head (the VMM adds and removes them) -> entries owed
        #: before its loop compiles (0: unsized); only run misses look
        self.loop_heads: Dict[int, int] = {}
        self._head_runs: Dict[int, Run] = {}
        self._loops: Dict[int, Callable[[int], int]] = {}
        self.loop_iterations = 0
        self._xlt_unit = None

    # -- register helpers -----------------------------------------------------

    def get_reg(self, index: int) -> int:
        return 0 if index == R_ZERO else self.regs[index]

    def set_reg(self, index: int, value: int) -> None:
        if index != R_ZERO:
            self.regs[index] = value & MASK32

    @property
    def csr(self) -> int:
        """Packed CSR (Fig. 6b, with 5-bit byte-count fields)."""
        return (self.csr_ilen | (self.csr_uop_bytes << 5)
                | (int(self.csr_cmplx) << 10) | (int(self.csr_cti) << 11))

    def flags_packed(self) -> int:
        return (int(self.cf) | (int(self.zf) << 1) | (int(self.sf) << 2)
                | (int(self.of) << 3))

    def set_flags_packed(self, value: int) -> None:
        self.cf = bool(value & 1)
        self.zf = bool(value & 2)
        self.sf = bool(value & 4)
        self.of = bool(value & 8)

    # -- flag-setting ALU kernels (32-bit x86-style) --------------------------
    # Each takes the two operand values and returns the 32-bit result;
    # _ALU names them per micro-op.

    def _flags_add(self, a: int, b: int, carry: int = 0) -> int:
        raw = (a & MASK32) + (b & MASK32) + carry
        result = raw & MASK32
        self.cf = raw > MASK32
        self.zf = result == 0
        self.sf = bool(result & SIGN32)
        self.of = bool((~(a ^ b) & (a ^ result)) & SIGN32)
        return result

    def _flags_sub(self, a: int, b: int, borrow: int = 0) -> int:
        raw = (a & MASK32) - (b & MASK32) - borrow
        result = raw & MASK32
        self.cf = raw < 0
        self.zf = result == 0
        self.sf = bool(result & SIGN32)
        self.of = bool(((a ^ b) & (a ^ result)) & SIGN32)
        return result

    def _flags_logic(self, result: int) -> int:
        result &= MASK32
        self.cf = self.of = False
        self.zf = result == 0
        self.sf = bool(result & SIGN32)
        return result

    def _adc(self, a: int, b: int) -> int:
        return (a + b + self.cf) & MASK32

    def _adc_f(self, a: int, b: int) -> int:
        return self._flags_add(a, b, int(self.cf))

    def _sbb(self, a: int, b: int) -> int:
        return (a - b - self.cf) & MASK32

    def _sbb_f(self, a: int, b: int) -> int:
        return self._flags_sub(a, b, int(self.cf))

    def _inc_f(self, a: int, b: int) -> int:
        saved_cf = self.cf
        result = self._flags_add(a, b)
        self.cf = saved_cf
        return result

    def _dec_f(self, a: int, b: int) -> int:
        saved_cf = self.cf
        result = self._flags_sub(a, b)
        self.cf = saved_cf
        return result

    def _and_f(self, a: int, b: int) -> int:
        return self._flags_logic(a & b)

    def _or_f(self, a: int, b: int) -> int:
        return self._flags_logic(a | b)

    def _xor_f(self, a: int, b: int) -> int:
        return self._flags_logic(a ^ b)

    def _shift_flags(self, result: int, cf: bool) -> int:
        self.cf = cf
        self.zf = result == 0
        self.sf = bool(result & SIGN32)
        return result

    def _shl_f(self, a: int, b: int) -> int:
        a &= MASK32
        count = b & 31
        if count == 0:
            return a
        result = (a << count) & MASK32
        cf = bool((a >> (32 - count)) & 1)
        if count == 1:
            self.of = bool(result & SIGN32) != cf
        return self._shift_flags(result, cf)

    def _shr_f(self, a: int, b: int) -> int:
        a &= MASK32
        count = b & 31
        if count == 0:
            return a
        if count == 1:
            self.of = bool(a & SIGN32)
        return self._shift_flags(a >> count, bool((a >> (count - 1)) & 1))

    def _sar_f(self, a: int, b: int) -> int:
        count = b & 31
        if count == 0:
            return a & MASK32
        signed_a = _sext32(a)
        if count == 1:
            self.of = False
        return self._shift_flags((signed_a >> count) & MASK32,
                                 bool((signed_a >> (count - 1)) & 1))

    def _mul_flags(self, low: int, overflow: bool) -> int:
        self.cf = self.of = overflow
        self.zf = low == 0
        self.sf = bool(low & SIGN32)
        return low

    def _mull_f(self, a: int, b: int) -> int:
        product = _sext32(a) * _sext32(b)
        low = product & MASK32
        return self._mul_flags(low, product != _sext32(low))

    def _mullu_f(self, a: int, b: int) -> int:
        product = a * b
        return self._mul_flags(product & MASK32, product >> 32 != 0)

    # -- XLTX86 ---------------------------------------------------------------

    def _xltx86(self, fd: int, fs: int) -> None:
        """Delegate to the backend functional-unit model (Table 1)."""
        if self._xlt_unit is None:
            # imported here: the unit's cracker imports this package
            from repro.hwassist.xltx86 import XLTx86Unit
            self._xlt_unit = XLTx86Unit()
        result = self._xlt_unit.translate(bytes(self.fregs[fs]))
        self.fregs[fd][:] = result.uop_bytes_padded
        self.csr_ilen = result.x86_ilen
        self.csr_uop_bytes = result.uop_byte_count
        self.csr_cmplx = result.flag_cmplx
        self.csr_cti = result.flag_cti

    # -- decoding and binding -------------------------------------------------

    def _bind(self, uop: MicroOp, native_pc: int, next_pc: int) -> Step:
        return _BINDERS[uop.op](self, uop, native_pc, next_pc)

    def _decode_run(self, pc: int) -> Run:
        """Decode, bind and cache the run that starts at ``pc``."""
        window = min(RUN_WINDOW, PAGE_SIZE - (pc & PAGE_MASK))
        # three bytes of slack: a 32-bit micro-op may start in the last
        # byte of the window (an odd pc) and straddle into the next page
        data = self.memory.read(pc, min(window + 3, ADDRESS_MASK + 1 - pc))
        words = self.words
        steps: List[Step] = []
        shape = bytearray()
        offset = 0
        control = False     # a control micro-op ends the run
        while offset < window and not control:
            long = offset + 1 < len(data) and data[offset + 1] & 0x40
            chunk = data[offset:offset + (4 if long else 2)]
            try:
                word = words[chunk]     # decoded if no layer met it yet
            except UopDecodeError as exc:
                if steps:
                    break   # reported if and when execution gets there
                raise NativeMachineError(
                    f"bad native code at {pc:#x}: {exc}") from exc
            step = word.step
            if step is None:
                native_pc = pc + offset
                step = self._bind(word.uop, native_pc,
                                  native_pc + len(chunk))
                control = word.info.branch
                if not control:     # its step holds no pc: any site's
                    word.step = step
            steps.append(step)
            shape.append(word.shape)
            offset += len(chunk)
        fused_pairs = sum(entry >> 7 for entry in shape)
        run = (tuple(steps[:-1]), steps[-1], len(steps), offset,
               fused_pairs, pc + offset, bytes(shape))
        self._watch(pc, {pc >> PAGE_SHIFT, (pc + offset - 1) >> PAGE_SHIFT})
        (self._head_runs if pc in self.loop_heads else self._runs)[pc] = run
        return run

    def _watch(self, pc: int, pages) -> None:
        """File ``pc`` under each of ``pages``, watched."""
        for page in pages:
            pcs = self._run_pcs_by_page.get(page)
            if pcs is None:
                pcs = self._run_pcs_by_page[page] = set()
                self.memory.watch(page, self._drop_runs)
            pcs.add(pc)

    def _drop_runs(self, page_index: int) -> None:
        """Write-watch callback: forget what was decoded from the page."""
        for pc in self._run_pcs_by_page.pop(page_index):
            self._runs.pop(pc, None)
            self._head_runs.pop(pc, None)
            self._loops.pop(pc, None)
            if pc in self.loop_heads:
                self.loop_heads[pc] = 0
        self._code_written = True

    def _retire(self, uop_count: int, nbytes: int, fused_pairs: int) -> None:
        self.uops_executed += uop_count
        self.uop_bytes_fetched += nbytes
        self.fused_pairs_seen += fused_pairs

    # -- execution -----------------------------------------------------------

    def step(self) -> Optional[ExitEvent]:
        """Execute one micro-op from memory; returns ExitEvent on VM exit."""
        native_pc = self.pc
        window = self.memory.read(native_pc,
                                  min(4, ADDRESS_MASK + 1 - native_pc))
        try:
            uop = decode_uop(window)
        except UopDecodeError as exc:
            raise NativeMachineError(
                f"bad native code at {native_pc:#x}: {exc}") from exc
        next_pc = native_pc + uop.length
        self.pc = next_pc
        self._retire(1, uop.length, uop.fused)
        result = self._bind(uop, native_pc, next_pc)()
        return result if isinstance(result, ExitEvent) else None

    def execute_uops(self, uops) -> Optional[ExitEvent]:
        """Execute a straight-line micro-op list (no fetch, no branches).

        Only tests call it (the differential tests of the cracker,
        fusion and redundancy passes); the VMM runs code from memory.
        In-stream branches (BC/JMP/JR) are rejected — lists have no
        program counter to branch within.
        """
        for uop in uops:
            if uop.op in (UOp.BC, UOp.JMP, UOp.JR):
                raise NativeMachineError(
                    f"branch {uop.op.value} in straight-line list")
            self._retire(1, uop.length, uop.fused)
            result = self._bind(uop, 0, 0)()
            if isinstance(result, ExitEvent):
                return result
        return None

    def run(self, start_pc: int, max_uops: int = 10_000_000) -> ExitEvent:
        """Run from ``start_pc`` until the next VM exit event."""
        self.pc = start_pc
        self._code_written = False
        runs, heads = self._runs, self.loop_heads
        budget = max_uops
        while budget > 0:
            pc = self.pc
            run = runs.get(pc)
            if run is None:
                owed = heads.get(pc)
                if owed is not None:
                    if owed > 1:
                        heads[pc] = owed - 1
                    else:   # sized, or compiled: 0 if no iteration fit
                        done = self._enter_head(pc, budget)
                        if done:
                            budget -= done
                            continue
                run = self._head_runs.get(pc) or self._decode_run(pc)
            body, tail, steps, nbytes, fused_pairs, end_pc, shape = run
            if steps > budget:
                # the budget ends inside this run: finish it one micro-op
                # at a time so the counters stop exactly where it does
                for _ in range(budget):
                    event = self.step()
                    if event is not None:
                        return event
                break
            cursor = iter(body)
            try:
                for step in cursor:
                    if step():
                        break
                else:
                    cursor = None
            except BaseException:
                self._retire_partial(pc, shape, cursor)
                raise
            if cursor is not None:
                # a store rewrote code this machine had decoded; go on
                # from the bytes memory holds now
                budget -= self._retire_partial(pc, shape, cursor)
                self._code_written = False
                continue
            self._retire(steps, nbytes, fused_pairs)
            self.pc = end_pc
            budget -= steps
            result = tail()
            if result is True:
                self._code_written = False
            elif result:
                return result
        raise NativeBudgetExhausted(
            f"no VM exit within {max_uops} micro-ops")

    def _retire_partial(self, pc: int, shape: bytes, cursor) -> int:
        """Account for a run that stopped inside its body.

        ``cursor`` is the body iterator; what it has handed out (the
        micro-op that stopped the run included) has executed.  Leaves
        ``pc`` after that micro-op, as single-stepping would.
        """
        done = shape[:len(shape) - 1 - length_hint(cursor)]
        nbytes = sum(entry & 0x7F for entry in done)
        self._retire(len(done), nbytes, sum(entry >> 7 for entry in done))
        self.pc = pc + nbytes
        return len(done)

    # -- compiled loops -------------------------------------------------------

    def _enter_head(self, head: int, budget: int) -> int:
        """An entry of ``head`` that owes none: size the loop there (or drop
        the head), or compile and run it; returns the micro-ops run."""
        loop = self._loops.get(head)
        if loop is None:
            items = self._walk_loop(head)
            if items is None:           # plain code from now on
                del self.loop_heads[head]
                self._head_runs.pop(head, None)
                return 0
            if not self.loop_heads[head]:   # sized: count entries now
                self.loop_heads[head] = LOOP_ENTRIES + LOOP_FIXED // len(items)
                return 0
            loop = self._loops[head] = self._compile_loop(items)
        return loop(budget)

    def _compile_loop(self, items: list) -> Callable[[int], int]:
        """``items``' loop as a function ``loop(budget) -> micro-ops run``
        (its text as ``source``), dropped with its pages' runs."""
        text, names = _loop_source(items)
        scope = dict(names, m=self, regs=self.regs, _sar=_sar, _mulh=_mulh,
                     _mulhu=_mulhu, BaseException=BaseException,
                     __builtins__={})
        exec(compile(text, "<loop>", "exec"), scope)
        scope["loop"].source = text
        self._watch(items[0][1], range(items[0][1] >> PAGE_SHIFT,
                                       ((items[-1][2] - 1) >> PAGE_SHIFT) + 1))
        return scope["loop"]

    def _walk_loop(self, head: int) -> Optional[list]:
        """``(uop, native_pc, next_pc, shape)`` of each micro-op from
        ``head`` to a JMP back to it, all in ``_LOOP_OPS``; or None."""
        data = self.memory.read(head, min(PAGE_SIZE, ADDRESS_MASK + 1 - head))
        items, offset = [], 0
        while offset + 1 < len(data):
            end = offset + (4 if data[offset + 1] & 0x40 else 2)
            try:
                word = self.words[data[offset:end]]
            except UopDecodeError:
                return None
            uop = word.uop
            items.append((uop, head + offset, head + end, word.shape))
            offset = end
            if uop.op is UOp.JMP:
                return items if (head + end + uop.imm) & MASK32 == head \
                    else None
            if uop.op not in _LOOP_OPS:
                return None
        return None



# -- binders: one per micro-op, resolved operands in, host callable out ------
#
# An operand is a (cell, slot) pair read as ``cell[slot]``: a register is
# (machine.regs, index), R_ZERO and immediates are one-element tuples.
# A destination is the same, with R_ZERO routed to the bit bucket.
#
# What a binder resolves rides into ``step`` as default arguments, not
# as closure cells: one defaults tuple takes half the memory of a cell
# per value (a machine keeps a callable per decoded micro-op), and
# nothing ever calls a step with arguments.

_ZERO = ((0,), 0)


def _source(m: FusibleMachine, index: int):
    return _ZERO if index == R_ZERO else (m.regs, index)


def _dest(m: FusibleMachine, index: int):
    return (m._bit_bucket, 0) if index == R_ZERO else (m.regs, index)


def _nop() -> None:
    return None


def _bind_nop(m, uop, native_pc, next_pc) -> Step:
    return _nop


def _move(m: FusibleMachine, rd: int, source) -> Step:
    """``rd <- source``."""
    dst, d = _dest(m, rd)
    src, s = source

    def step(dst=dst, d=d, src=src, s=s) -> None:
        dst[d] = src[s]
    return step


def _add(a: int, b: int) -> int:
    return (a + b) & MASK32


def _sub(a: int, b: int) -> int:
    return (a - b) & MASK32


def _and(a: int, b: int) -> int:
    return (a & b) & MASK32


def _or(a: int, b: int) -> int:
    return (a | b) & MASK32


def _xor(a: int, b: int) -> int:
    return (a ^ b) & MASK32


def _shl(a: int, b: int) -> int:
    return ((a & MASK32) << (b & 31)) & MASK32


def _shr(a: int, b: int) -> int:
    return (a & MASK32) >> (b & 31)


def _sar(a: int, b: int) -> int:
    return (_sext32(a) >> (b & 31)) & MASK32


def _mull(a: int, b: int) -> int:
    return (a * b) & MASK32


def _mulh(a: int, b: int) -> int:
    return ((_sext32(a) * _sext32(b)) >> 32) & MASK32


def _mulhu(a: int, b: int) -> int:
    return ((a * b) >> 32) & MASK32


#: op -> (kernel, kernel under .f).  A kernel maps the two operand values
#: to the 32-bit result; a string names a FusibleMachine method (it reads
#: or writes the flags), anything else is a pure function.
_ALU = {
    UOp.ADC: ("_adc", "_adc_f"),
    UOp.SBB: ("_sbb", "_sbb_f"),
    UOp.MULL: (_mull, "_mull_f"),
    UOp.MULLU: (_mull, "_mullu_f"),
    UOp.MULH: (_mulh, _mulh),
    UOp.MULHU: (_mulhu, _mulhu),
    UOp.INCF: (_add, "_inc_f"),
    UOp.DECF: (_sub, "_dec_f"),
    UOp.CMP2: ("_flags_sub", "_flags_sub"),
    UOp.TEST2: ("_and_f", "_and_f"),
}
for _kernels, _ops in (
        ((_add, "_flags_add"), (UOp.ADD, UOp.ADDI, UOp.ADD2, UOp.ADDI2)),
        ((_sub, "_flags_sub"), (UOp.SUB, UOp.SUBI, UOp.SUB2)),
        ((_and, "_and_f"), (UOp.AND, UOp.ANDI, UOp.AND2)),
        ((_or, "_or_f"), (UOp.OR, UOp.ORI, UOp.OR2)),
        ((_xor, "_xor_f"), (UOp.XOR, UOp.XORI, UOp.XOR2)),
        ((_shl, "_shl_f"), (UOp.SHL, UOp.SHLI)),
        ((_shr, "_shr_f"), (UOp.SHR, UOp.SHRI)),
        ((_sar, "_sar_f"), (UOp.SAR, UOp.SARI))):
    _ALU.update(dict.fromkeys(_ops, _kernels))

#: two-address 16-bit forms: ``rd <- rd op rs`` (CMP2/TEST2 keep no result)
_TWO_ADDRESS_OPS = frozenset({UOp.ADD2, UOp.SUB2, UOp.AND2, UOp.OR2,
                              UOp.XOR2, UOp.CMP2, UOp.TEST2})


def _alu_operands(uop: MicroOp) -> tuple:
    """``(rd, a, b)`` of a two-operand ALU form: the register its result
    goes to, and each operand as a register index or a ``(constant,)``."""
    op = uop.op
    rd = R_ZERO if op in (UOp.CMP2, UOp.TEST2) else uop.rd
    if op in _TWO_ADDRESS_OPS:
        return rd, uop.rd, uop.rs1
    if op is UOp.ADDI2:
        return rd, uop.rd, (uop.imm,)
    if op in I_FORM_OPS:
        return rd, uop.rs1, (uop.imm,)
    if op in RR_FORM_OPS:
        return rd, uop.rs1, (1,)
    return rd, uop.rs1, uop.rs2


def _bind_alu(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    """``rd <- kernel(a, b)`` for every two-operand ALU form."""
    kernel = _ALU[uop.op][uop.setflags]
    pure = not isinstance(kernel, str)
    if not pure:
        kernel = getattr(m, kernel)
    rd, first, second = _alu_operands(uop)
    xa, a = _source(m, first) if type(first) is int else (first, 0)
    xb, b = _source(m, second) if type(second) is int else (second, 0)
    if pure and isinstance(xa, tuple) and isinstance(xb, tuple):
        return _move(m, rd, ((kernel(xa[a], xb[b]),), 0))
    dst, d = _dest(m, rd)

    def step(dst=dst, d=d, kernel=kernel, xa=xa, a=a, xb=xb, b=b) -> None:
        dst[d] = kernel(xa[a], xb[b])
    return step


def _bind_mov2(m, uop, native_pc, next_pc) -> Step:
    return _move(m, uop.rd, _source(m, uop.rs1))


def _bind_lui(m, uop, native_pc, next_pc) -> Step:
    return _move(m, uop.rd, (((uop.imm << 13) & MASK32,), 0))


#: cond -> truth of the condition for each packed flags value
#: (CF | ZF << 1 | SF << 2 | OF << 3), from the one definition both ISAs use
_COND_TRUTH = {
    cond: tuple(cond_holds(cond, bool(flags & 1), bool(flags & 2),
                           bool(flags & 4), bool(flags & 8))
                for flags in range(16))
    for cond in Cond}


def _bind_sel(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    truth = _COND_TRUTH[uop.cond]
    move = _move(m, uop.rd, _source(m, uop.rs1))

    def step(m=m, truth=truth, move=move) -> None:
        if truth[m.cf | m.zf << 1 | m.sf << 2 | m.of << 3]:
            move()
    return step


def _signed(read: Callable[[int], int], sign: int) -> Callable[[int], int]:
    def read_signed(addr: int, read=read, sign=sign) -> int:
        value = read(addr)
        return (value - (sign << 1)) & MASK32 if value & sign else value
    return read_signed


#: load -> (AddressSpace accessor, sign bit of a sign-extending load)
_LOADS = {
    UOp.LDW: ("read_u32", 0), UOp.LDHU: ("read_u16", 0),
    UOp.LDHS: ("read_u16", 0x8000), UOp.LDBU: ("read_u8", 0),
    UOp.LDBS: ("read_u8", 0x80),
}

_STORES = {UOp.STW: "write_u32", UOp.STH: "write_u16", UOp.STB: "write_u8"}


def _bind_load(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    accessor, sign = _LOADS[uop.op]
    read = getattr(m.memory, accessor)
    if sign:
        read = _signed(read, sign)
    dst, d = _dest(m, uop.rd)   # to R_ZERO: the access still happens
    base, s = _source(m, uop.rs1)
    imm = uop.imm

    def step(dst=dst, d=d, read=read, base=base, s=s, imm=imm) -> None:
        dst[d] = read((base[s] + imm) & MASK32)
    return step


def _bind_store(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    write = getattr(m.memory, _STORES[uop.op])
    src, r = _source(m, uop.rd)
    base, s = _source(m, uop.rs1)
    imm = uop.imm

    def step(m=m, write=write, base=base, s=s, imm=imm, src=src,
             r=r) -> bool:
        write((base[s] + imm) & MASK32, src[r])
        return m._code_written
    return step


def _bind_ldf(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    read, fregs, fd = m.memory.read, m.fregs, uop.rd
    base, s = _source(m, uop.rs1)
    imm = uop.imm

    def step(fregs=fregs, fd=fd, read=read, base=base, s=s,
             imm=imm) -> None:
        fregs[fd][:] = read((base[s] + imm) & MASK32, FREG_BYTES)
    return step


def _bind_stf(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    write, fregs, fd = m.memory.write, m.fregs, uop.rd
    base, s = _source(m, uop.rs1)
    imm = uop.imm

    def step(m=m, write=write, base=base, s=s, imm=imm, fregs=fregs,
             fd=fd) -> bool:
        write((base[s] + imm) & MASK32, bytes(fregs[fd]))
        return m._code_written
    return step


def _bind_bc(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    truth = _COND_TRUTH[uop.cond]
    target = (next_pc + uop.imm) & MASK32

    def step(m=m, truth=truth, target=target) -> None:
        if truth[m.cf | m.zf << 1 | m.sf << 2 | m.of << 3]:
            m.pc = target
    return step


def _bind_jmp(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    target = (next_pc + uop.imm) & MASK32

    def step(m=m, target=target) -> None:
        m.pc = target
    return step


def _bind_jr(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    src, s = _source(m, uop.rs1)

    def step(m=m, src=src, s=s) -> None:
        m.pc = src[s]
    return step


def _bind_jcsr(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    target = (next_pc + uop.imm) & MASK32
    if uop.op is UOp.JCSRC:
        def step(m=m, target=target) -> None:
            if m.csr_cmplx:
                m.pc = target
    else:
        def step(m=m, target=target) -> None:
            if m.csr_cti:
                m.pc = target
    return step


def _bind_vmexit(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    src, s = _source(m, uop.rs1)

    def step(src=src, s=s, native_pc=native_pc,
             next_pc=next_pc) -> ExitEvent:
        return ExitEvent("vmexit", value=src[s], native_pc=native_pc,
                         resume_pc=next_pc)
    return step


def _bind_vmcall(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    service = uop.imm

    def step(service=service, native_pc=native_pc,
             next_pc=next_pc) -> ExitEvent:
        return ExitEvent("vmcall", value=service, native_pc=native_pc,
                         resume_pc=next_pc)
    return step


def _bind_halt(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    def step(native_pc=native_pc, next_pc=next_pc) -> ExitEvent:
        return ExitEvent("halt", native_pc=native_pc, resume_pc=next_pc)
    return step


def _bind_rdflg(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    dst, d = _dest(m, uop.rd)

    def step(m=m, dst=dst, d=d) -> None:
        dst[d] = m.flags_packed()
    return step


def _bind_wrflg(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    src, s = _source(m, uop.rs1)

    def step(m=m, src=src, s=s) -> None:
        m.set_flags_packed(src[s])
    return step


def _bind_ldcsr(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    dst, d = _dest(m, uop.rd)

    def step(m=m, dst=dst, d=d) -> None:
        dst[d] = m.csr
    return step


def _bind_xltx86(m: FusibleMachine, uop: MicroOp, native_pc, next_pc) -> Step:
    fd, fs = uop.rd, uop.rs1

    def step(m=m, fd=fd, fs=fs) -> None:
        m._xltx86(fd, fs)
    return step


_BINDERS: Dict[UOp, Callable[[FusibleMachine, MicroOp, int, int], Step]] = {
    UOp.NOP: _bind_nop, UOp.NOP2: _bind_nop,
    UOp.MOV2: _bind_mov2, UOp.LUI: _bind_lui, UOp.SEL: _bind_sel,
    UOp.LDF: _bind_ldf, UOp.STF: _bind_stf,
    UOp.BC: _bind_bc, UOp.JMP: _bind_jmp, UOp.JR: _bind_jr,
    UOp.JCSRC: _bind_jcsr, UOp.JCSRT: _bind_jcsr,
    UOp.VMEXIT: _bind_vmexit, UOp.VMCALL: _bind_vmcall,
    UOp.HALT: _bind_halt,
    UOp.RDFLG: _bind_rdflg, UOp.WRFLG: _bind_wrflg,
    UOp.LDCSR: _bind_ldcsr, UOp.XLTX86: _bind_xltx86,
}
_BINDERS.update(dict.fromkeys(_ALU, _bind_alu))
_BINDERS.update(dict.fromkeys(_LOADS, _bind_load))
_BINDERS.update(dict.fromkeys(_STORES, _bind_store))


# -- compiled loops: the binders' rows as host code text ---------------------
#
# A text below computes a kernel of ``_ALU`` from operand texts ``{a}`` /
# ``{b}`` into ``{d}``, over locals: ``rn`` for register n, ``cf`` / ``zf``
# / ``sf`` / ``of`` for the flags.  A kernel without one is called.

_FLAG_RESULT = ["x &= 4294967295", "zf = x == 0", "sf = x > 2147483647"]
_ADD_FLAGS = ["x = ({a} & 4294967295) + ({b} & 4294967295)",
              "cf = x > 4294967295", *_FLAG_RESULT,
              "of = (~({a} ^ {b}) & ({a} ^ x) & 2147483648) != 0", "{d} = x"]
_SUB_FLAGS = ["x = ({a} & 4294967295) - ({b} & 4294967295)",
              "cf = x < 0", *_FLAG_RESULT,
              "of = (({a} ^ {b}) & ({a} ^ x) & 2147483648) != 0", "{d} = x"]
_KERNEL_TEXT = {
    _shl: ["{d} = (({a} & 4294967295) << ({b} & 31)) & 4294967295"],
    _shr: ["{d} = ({a} & 4294967295) >> ({b} & 31)"],
    "_adc": ["{d} = ({a} + {b} + cf) & 4294967295"],
    "_sbb": ["{d} = ({a} - {b} - cf) & 4294967295"],
    "_flags_add": _ADD_FLAGS,
    "_flags_sub": _SUB_FLAGS,
    "_inc_f": [line for line in _ADD_FLAGS if not line.startswith("cf")],
    "_dec_f": [line for line in _SUB_FLAGS if not line.startswith("cf")],
}
for _kernel, _operator in ((_add, "+"), (_sub, "-"), (_mull, "*"),
                           (_and, "&"), (_or, "|"), (_xor, "^")):
    _KERNEL_TEXT[_kernel] = [f"{{d}} = ({{a}} {_operator} {{b}}) & 4294967295"]
for _name, _operator in (("_and_f", "&"), ("_or_f", "|"), ("_xor_f", "^")):
    _KERNEL_TEXT[_name] = [f"x = {{a}} {_operator} {{b}}",
                           "cf = of = False", *_FLAG_RESULT, "{d} = x"]

#: each condition over the flags, as ``cond_holds`` reads them
_COND_TEXT = {Cond.O: "of", Cond.B: "cf", Cond.E: "zf", Cond.BE: "cf or zf",
              Cond.S: "sf", Cond.L: "sf != of", Cond.LE: "zf or sf != of"}
_COND_TEXT.update({Cond(cond | 1): f"not ({text})"
                   for cond, text in _COND_TEXT.items()})

#: what a compiled loop holds besides its BC side exits and closing JMP
_LOOP_OPS = frozenset({*_ALU, *_LOADS, *_STORES, UOp.MOV2, UOp.LUI,
                       UOp.SEL, UOp.NOP, UOp.NOP2, UOp.BC})

#: the function ``_loop_source`` fills in
_LOOP_TEXT = """def loop(budget, m=m, regs=regs, exits=exits, lines=lines,
         {accessors}):
    {loads}cf, zf, sf, of = m.cf, m.zf, m.sf, m.of
    n = at = 0
    limit = budget // {size}
    try:
        while n < limit:
{body}
    except BaseException as exc:
        at = lines.get(exc.__traceback__.tb_lineno, 0)
        raise
    finally:
        {stores}m.cf, m.zf, m.sf, m.of = cf, zf, sf, of
        uops, nbytes, fused, m.pc = exits[at]
        done = n * {size} + uops
        m._retire(done, n * {nbytes} + nbytes, n * {fused} + fused)
        m._code_written = False
        m.loop_iterations += n
    return done
"""
_BODY_LINE = _LOOP_TEXT.count("\n", 0, _LOOP_TEXT.index("{body}")) + 1
_ACCESSORS = ", ".join(f"{name}=m.memory.{name}" for name in sorted(
    {accessor for accessor, _sign in _LOADS.values()} | {*_STORES.values()}))


def _loop_source(items) -> Tuple[str, dict]:
    """The text of the loop over ``items`` (see :meth:`_walk_loop`), and
    its names.  It runs an iteration only when the budget holds all of
    it; each way out (a taken BC, a store that rewrote decoded code, an
    exception, found by its line) names an entry of ``exits``: what of
    its iteration ran (micro-ops, bytes, fused pairs) and the ``pc``."""
    used = set()
    exits = [(0, 0, 0, items[0][1])]

    def reg(index: int, dest: bool = False) -> str:
        if index == R_ZERO:
            return "_" if dest else "0"
        used.add(index)
        return f"r{index}"

    body: List[Tuple[str, int]] = []    # (line, exit on an exception)
    done_bytes = done_fused = 0
    for count, (uop, _native_pc, next_pc, shape) in enumerate(items, 1):
        op = uop.op
        done_bytes += shape & 0x7F
        done_fused += shape >> 7
        exits.append((count, done_bytes, done_fused,
                      exits[0][3] if op is UOp.JMP else next_pc))
        after = len(exits) - 1
        if op in _ALU:
            kernel = _ALU[op][uop.setflags]
            rd, *operands = _alu_operands(uop)
            a, b = (reg(operand) if type(operand) is int
                    else f"({operand[0]})" for operand in operands)
            text = _KERNEL_TEXT.get(kernel) or (
                ["m.cf, m.zf, m.sf, m.of = cf, zf, sf, of",
                 f"{{d}} = m.{kernel}({{a}}, {{b}})",
                 "cf, zf, sf, of = m.cf, m.zf, m.sf, m.of"]
                if isinstance(kernel, str)
                else [f"{{d}} = {kernel.__name__}({{a}}, {{b}})"])
            if rd == R_ZERO:    # flags only: no result to keep
                text = [line for line in text if line != "{d} = x"]
            lines = [line.format(a=a, b=b, d=reg(rd, True))
                     for line in text]
        elif op is UOp.MOV2:
            lines = [f"{reg(uop.rd, True)} = {reg(uop.rs1)}"]
        elif op is UOp.LUI:
            lines = [f"{reg(uop.rd, True)} = {(uop.imm << 13) & MASK32}"]
        elif op is UOp.SEL:
            lines = [f"if {_COND_TEXT[uop.cond]}:",
                     f"    {reg(uop.rd, True)} = {reg(uop.rs1)}"]
        elif op in _LOADS:
            accessor, sign = _LOADS[op]
            load = f"{accessor}(({reg(uop.rs1)} + {uop.imm}) & 4294967295)"
            lines = [f"x = {load}", f"{reg(uop.rd, True)} = (x - "
                     f"{sign << 1}) & 4294967295 if x & {sign} else x"] \
                if sign else [f"{reg(uop.rd, True)} = {load}"]
        elif op in _STORES:
            lines = [f"{_STORES[op]}(({reg(uop.rs1)} + {uop.imm})"
                     f" & 4294967295, {reg(uop.rd)})",
                     "if m._code_written:", f"    at = {after}", "    break"]
        elif op is UOp.BC:
            exits.append((count, done_bytes, done_fused,
                          (next_pc + uop.imm) & MASK32))
            lines = [f"if {_COND_TEXT[uop.cond]}:",
                     f"    at = {len(exits) - 1}", "    break"]
        else:   # the closing JMP; a NOP holds nothing
            lines = ["n += 1"] if op is UOp.JMP else []
        body += [(line, after) for line in lines]

    text = _LOOP_TEXT.format(
        accessors=_ACCESSORS, size=len(items), nbytes=done_bytes,
        fused=done_fused,
        loads="".join(f"r{index} = regs[{index}]; " for index in sorted(used)),
        stores="".join(f"regs[{index}] = r{index}; "
                       for index in sorted(used)),
        body="\n".join(f"            {line}" for line, _after in body))
    lines_at = {number: after
                for number, (_line, after) in enumerate(body, _BODY_LINE)}
    return text, {"exits": exits, "lines": lines_at}
