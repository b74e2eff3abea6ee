"""A small dataflow engine over verifier CFGs.

Provides an independent dependence model (the rules must not trust
:func:`repro.translator.fusion._conflict`) and two analyses used by the
rule-pack and the tests:

* :func:`definitely_defined` — forward, intersection meet: the registers
  guaranteed written on *every* path before each micro-op (scratch
  hygiene, SCR001).
* :func:`flag_provenance` — forward: whether the architected flags are
  intact at each point, and which scratch register holds a saved copy
  (precise-exception discipline, PRS001).  :func:`defined_and_flags`
  solves these two in one walk of the CFG, which is what the rule-pack
  uses.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.isa.fusible.encoding import Word
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.opcodes import OP_INFO, UOp
from repro.isa.fusible.registers import (
    ARCH_REG_COUNT,
    NREGS,
    R_ZERO,
)
from repro.verify.cfg import CFG, Located

# A register set is an integer mask, bit ``r`` standing for register
# ``r``: union, intersection and difference are one int operation each.

#: Registers architecturally defined at translation entry: the mapped
#: x86 GPRs plus the hardwired zero.  Every other register is VMM state
#: that carries nothing between translations.
ENTRY_DEFINED = (1 << ARCH_REG_COUNT) - 1 | 1 << R_ZERO

#: Registers the VMM owns (must never carry live architected state).
VMM_MASK = (1 << NREGS) - 1 & ~ENTRY_DEFINED


def regs_in(mask: int) -> List[int]:
    """The members of a register mask, ascending."""
    return [reg for reg in range(mask.bit_length()) if mask >> reg & 1]


def regs_read(uop: MicroOp) -> int:
    mask = 0
    for field in OP_INFO[uop.op].sources:
        mask |= 1 << getattr(uop, field)
    return mask & ~(1 << R_ZERO)


def regs_written(uop: MicroOp) -> int:
    dest = uop.dest()
    return 0 if dest is None else 1 << dest


def conflicts(first: MicroOp, second: MicroOp) -> bool:
    """True when ``second`` must not be reordered above ``first``.

    Re-derived dependence test: register RAW/WAR/WAW, the flags treated
    as one resource, and stores fencing every other memory access.
    """
    first_writes = regs_written(first)
    second_writes = regs_written(second)
    if first_writes & regs_read(second):
        return True  # RAW
    if second_writes & regs_read(first):
        return True  # WAR
    if first_writes & second_writes:
        return True  # WAW
    if first.writes_flags and (second.writes_flags or second.reads_flags):
        return True
    if first.reads_flags and second.writes_flags:
        return True
    if first.is_store and (second.is_store or second.is_load):
        return True
    if first.is_load and second.is_store:
        return True
    return False


# -- generic engine -----------------------------------------------------------


class ForwardAnalysis:
    """Sweep solver; subclasses define lattice and transfer.

    States must be equality-comparable values (ints, tuples,
    frozensets).  A ``None`` per-uop state means the micro-op is
    unreachable from entry.
    """

    def entry_state(self):
        raise NotImplementedError

    def meet(self, left, right):
        raise NotImplementedError

    def transfer(self, state, loc: Located):
        raise NotImplementedError

    def walk(self, state, block, before: List[Optional[object]]):
        """Record the state before each micro-op of ``block`` in
        ``before``; returns the state after its last."""
        for loc in block.locs:
            before[loc.index] = state
            state = self.transfer(state, loc)
        return state

    def run(self, cfg: CFG) -> List[Optional[object]]:
        """Solve to fixpoint; returns the state *before* each micro-op.

        Each segment starts from the entry state and is solved on its
        own (no edge leaves one).  Its blocks are swept in address
        order; only a back edge that lowered its (already walked) target
        asks for another sweep of that segment.  In-states only move
        down a finite lattice, so the sweeps end, and the last one
        walked every block from its final in-state.
        """
        before: List[Optional[object]] = [None] * len(cfg.words)
        block_in: List[Optional[object]] = [None] * len(cfg.blocks)
        for head, end in cfg.segment_blocks:
            block_in[head] = self.entry_state()
            again = True
            while again:
                again = False
                for block in cfg.blocks[head:end]:
                    state = block_in[block.bid]
                    if state is None:
                        continue    # not (yet) reachable
                    state = self.walk(state, block, before)
                    for succ in block.succs:
                        merged = state if block_in[succ] is None \
                            else self.meet(block_in[succ], state)
                        if merged != block_in[succ]:
                            block_in[succ] = merged
                            again = again or succ <= block.bid
        return before


# -- concrete analyses ---------------------------------------------------------


class _DefinitelyDefined(ForwardAnalysis):
    def __init__(self, entry_defined: int) -> None:
        self._entry = entry_defined

    def entry_state(self):
        return self._entry

    def meet(self, left, right):
        return left & right

    def transfer(self, state, loc: Located):
        return state | regs_written(loc.uop)


def definitely_defined(cfg: CFG, entry_defined: int = ENTRY_DEFINED
                       ) -> List[Optional[int]]:
    """Registers (a mask) written on every path before each micro-op."""
    return _DefinitelyDefined(entry_defined).run(cfg)


#: Flag-provenance lattice value: (architected_flags_intact, saved_copy).
FlagState = Tuple[bool, Optional[int]]

#: ``saved_copy`` where paths disagree: a window may be open, no register
#: is known to hold the copy.  Below None ("no window") and every
#: register, so the transfer is monotone and visiting order cannot show.
CONFLICT = -1


class _FlagProvenance(ForwardAnalysis):
    """Tracks a RDFLG ... WRFLG *save window*.

    Cracked bodies legitimately compute architected flag results into VMM
    temporaries (a memory-destination ALU op lands in T1), so the
    destination register cannot distinguish housekeeping from architected
    flag writes.  What can: the emitters save the flags (RDFLG) exactly
    when they are about to clobber them.  Inside an open save window every
    flag write is housekeeping; the window closes with a WRFLG from the
    saved copy, which restores architected provenance.
    """

    def entry_state(self) -> FlagState:
        return (True, None)

    def meet(self, left: FlagState, right: FlagState) -> FlagState:
        arch = left[0] and right[0]
        saved = left[1] if left[1] == right[1] else CONFLICT
        return (arch, saved)

    def transfer(self, state: FlagState, loc: Located) -> FlagState:
        arch, saved = state
        uop = loc.uop
        if uop.op is UOp.RDFLG:
            if arch:
                return (True, uop.rd)  # opens a save window
            # snapshot of already-clobbered flags: useless as a save
            return (False, CONFLICT)
        if uop.op is UOp.WRFLG:
            # closes the window; restores only from the valid saved copy
            return (saved is not None and uop.rs1 == saved, None)
        in_window = saved is not None
        dest = uop.dest()
        if dest is not None and dest == saved:
            saved = None  # the saved copy was overwritten
        if uop.writes_flags:
            arch = not in_window
        return (arch, saved)


def flag_provenance(cfg: CFG) -> List[Optional[FlagState]]:
    """Whether the architected flags are intact before each micro-op."""
    return _FlagProvenance().run(cfg)


def word_facts(word: Word) -> Tuple[int, int, bool, bool]:
    """``(regs_read, regs_written, writes_flags, RDFLG or WRFLG)`` of a
    ``Word``, derived once; the last two are how it moves the flags'
    provenance outside a save window (the fourth opens or closes one)."""
    facts = word.facts
    if facts is None:
        uop = word.uop
        facts = word.facts = (regs_read(uop), regs_written(uop),
                              uop.writes_flags,
                              uop.op in (UOp.RDFLG, UOp.WRFLG))
    return facts


class _DefinedAndFlags(_FlagProvenance):
    """:class:`_DefinitelyDefined` and :class:`_FlagProvenance` as one
    analysis over pairs of their states, stepped a basic block at a time
    over the words' facts: one loop, no call per micro-op (the tests
    hold it to the product of the two)."""

    def entry_state(self):
        return (ENTRY_DEFINED, super().entry_state())

    def meet(self, left, right):
        return (left[0] & right[0], super().meet(left[1], right[1]))

    def transfer(self, state, loc: Located):
        return self.step(state, (loc.word,), [None], 0)

    def walk(self, state, block, before):
        return self.step(state, block.cfg.words[block.start:block.end],
                         before, block.start)

    @staticmethod
    def step(state, words, before, index: int):
        """``walk`` over ``words``, the first of them micro-op ``index``."""
        defined, flags = state
        for word in words:
            before[index] = (defined, flags)
            index += 1
            _, writes, writes_flags, window = word.facts or word_facts(word)
            defined |= writes
            saved = flags[1]
            if window:
                uop = word.uop
                if uop.op is UOp.WRFLG:     # closes the window: restores
                    flags = (saved is not None and uop.rs1 == saved, None)
                elif flags[0]:              # only from the valid copy
                    flags = (True, uop.rd)  # RDFLG opens a save window
                else:   # snapshot of clobbered flags: useless as a save
                    flags = (False, CONFLICT)
            elif saved is None:
                if writes_flags:    # outside a window: architected
                    flags = (True, None)
            else:   # inside one a flag write is housekeeping
                lost = saved >= 0 and writes >> saved & 1
                if lost or writes_flags and flags[0]:
                    flags = (flags[0] and not writes_flags,
                             None if lost else saved)
        return (defined, flags)


def defined_and_flags(cfg: CFG) -> List[Optional[Tuple[int, FlagState]]]:
    """``(definitely_defined, flag_provenance)`` before each micro-op."""
    return _DefinedAndFlags().run(cfg)
