"""Two-pass text assembler for x86lite.

The assembler exists so that tests, examples and workload programs can be
written as readable source rather than byte strings.  Syntax is a small
NASM-flavored dialect::

    .org 0x400000
    start:
        mov  eax, 10            ; comment
        lea  edx, [ebx+ecx*4+8]
    loop:
        dec  eax
        jnz  loop
        mov  eax, 0             ; SYS_EXIT
        int  0x80

Directives: ``.org ADDR``, ``.db b0, b1, ...``, ``.dd d0, d1, ...``,
``.zero N``, ``.align N``.  The entry point is the ``start`` (or ``_start``)
label if present, else the text base.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from repro.isa.x86lite.encoder import EncodeError, encode
from repro.isa.x86lite.instruction import (
    ImmOperand,
    Instruction,
    MemOperand,
    RegOperand,
)
from repro.isa.x86lite.opcodes import FORMS, Op
from repro.isa.x86lite.registers import (
    COND_BY_NAME,
    REG16_BY_NAME,
    REG_BY_NAME,
    Reg,
)
from repro.memory.loader import DEFAULT_TEXT_BASE, Image


class AssemblerError(Exception):
    """Raised on malformed assembly source."""

    def __init__(self, message: str, line_no: Optional[int] = None) -> None:
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)


#: mnemonic -> op: every op's own name (a conditional one's takes its
#: condition, ``jz`` / ``cmovne``) and the dword string aliases
_SIMPLE_OPS = {
    **{op.value: op for op in Op
       if all(form.ext != "+cc" for form in FORMS if form.op is op)},
    "movsd": Op.MOVS, "stosd": Op.STOS, "lodsd": Op.LODS,
}

#: ops that take a branch target, and those of them with only a rel8 form
_BRANCH_OPS = frozenset(form.op for form in FORMS
                        if form.layout[:1] in (("Jb",), ("Jz",)))
_REL8_ONLY_OPS = _BRANCH_OPS - {form.op for form in FORMS
                                if form.layout == ("Jz",)}

#: How many operands an op takes (a branch target is one), by its forms
_OPERAND_COUNTS = {
    op: tuple(sorted({len(form.layout) for form in FORMS if form.op is op}))
    for op in Op}

#: Bits of each op's widest immediate field (0: the operand size, ``Iz``),
#: its last row's: rows are in preference order, the shortest first
_IMM_FIELD_BITS = {form.op: {"Iu": 8, "Iw": 16, "Id": 32, "Iz": 0}[letter]
                   for form in FORMS for letter in form.layout
                   if letter in ("Iu", "Iw", "Id", "Iz")}

_LABEL_RE = re.compile(r"^[A-Za-z_.$][\w.$]*$")

#: Placeholder for still-unresolved label values during pass 1; large enough
#: that no immediate-shrinking encoding form is selected for it.
_PLACEHOLDER = 0x0FFF_FFF0


@dataclass
class _PendingOperand:
    """Parsed operand; label refs are resolved between passes."""

    kind: str                     # 'reg', 'imm', 'mem', 'label'
    reg: Optional[Reg] = None
    value: int = 0
    label: Optional[str] = None
    mem: Optional[MemOperand] = None
    mem_label: Optional[str] = None   # label term inside a memory operand
    width: int = 32


@dataclass
class _Statement:
    line_no: int
    mnemonic: str
    operands: List[_PendingOperand] = field(default_factory=list)
    rep: bool = False
    target_label: Optional[str] = None
    # filled during pass 1:
    addr: int = 0
    length: int = 0
    force_long: bool = False


def _parse_number(text: str, line_no: int) -> int:
    text = text.strip()
    if len(text) == 3 and text[0] == text[2] == "'":
        return ord(text[1])
    try:
        return int(text, 0)
    except ValueError:
        raise AssemblerError(f"bad number {text!r}", line_no)


def _parse_memory(text: str, line_no: int,
                  size: int) -> Tuple[MemOperand, Optional[str]]:
    """Parse ``[...]``; returns the operand plus an optional label term."""
    inner = text.strip()[1:-1].strip()
    if not inner:
        raise AssemblerError("empty memory operand", line_no)
    base: Optional[Reg] = None
    index: Optional[Reg] = None
    scale = 1
    disp = 0
    label: Optional[str] = None
    # split on +/- while keeping signs for displacement terms
    terms = re.findall(r"[+-]?[^+-]+", inner.replace(" ", ""))
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        if "*" in body:
            left, right = body.split("*", 1)
            if left.lower() in REG_BY_NAME:
                reg_name, scale_text = left, right
            elif right.lower() in REG_BY_NAME:
                reg_name, scale_text = right, left
            else:
                raise AssemblerError(f"bad scaled index {term!r}", line_no)
            if index is not None:
                raise AssemblerError("two index registers", line_no)
            if sign < 0:
                raise AssemblerError("negative index term", line_no)
            index = REG_BY_NAME[reg_name.lower()]
            scale = _parse_number(scale_text, line_no)
        elif body.lower() in REG_BY_NAME:
            if sign < 0:
                raise AssemblerError("negative register term", line_no)
            reg = REG_BY_NAME[body.lower()]
            if base is None:
                base = reg
            elif index is None:
                index = reg
            else:
                raise AssemblerError("too many registers in address", line_no)
        elif _LABEL_RE.match(body) and not re.match(r"^(0x|\d|')", body):
            if sign < 0 or label is not None:
                raise AssemblerError(f"bad label term {term!r}", line_no)
            label = body
        else:
            disp += sign * _parse_number(body, line_no)
    try:
        return MemOperand(base, index, scale, disp, size), label
    except ValueError as exc:
        raise AssemblerError(str(exc), line_no)


def _parse_operand(text: str, line_no: int) -> _PendingOperand:
    text = text.strip()
    lowered = text.lower()
    size = 32
    for keyword, keyword_size in (("byte", 8), ("word", 16), ("dword", 32)):
        if lowered.startswith(keyword + " ") or lowered.startswith(
                keyword + "["):
            size = keyword_size
            text = text[len(keyword):].strip()
            lowered = text.lower()
            break
    if text.startswith("["):
        if not text.endswith("]"):
            raise AssemblerError(f"unterminated memory operand {text!r}",
                                 line_no)
        mem, mem_label = _parse_memory(text, line_no, size)
        return _PendingOperand("mem", mem=mem, mem_label=mem_label)
    if lowered in REG_BY_NAME:
        return _PendingOperand("reg", reg=REG_BY_NAME[lowered], width=32)
    if lowered in REG16_BY_NAME:
        return _PendingOperand("reg", reg=REG16_BY_NAME[lowered], width=16)
    if re.match(r"^[+-]?(0x[0-9a-fA-F]+|\d+|'.')$", text):
        return _PendingOperand("imm", value=_parse_number(text, line_no))
    if _LABEL_RE.match(text):
        return _PendingOperand("label", label=text)
    raise AssemblerError(f"bad operand {text!r}", line_no)


def _split_operands(text: str) -> List[str]:
    out = []
    depth = 0
    current = ""
    for char in text:
        if char == "[":
            depth += 1
        elif char == "]":
            depth -= 1
        if char == "," and depth == 0:
            out.append(current)
            current = ""
        else:
            current += char
    if current.strip():
        out.append(current)
    return [item.strip() for item in out]


def _statement_width(stmt: _Statement) -> int:
    """The operand width: a register operand's, else 16 where a memory
    operand is sized ``word`` (``add word [esi], 5``), else 32."""
    for operand in stmt.operands:
        if operand.kind == "reg":
            return operand.width
    if any(operand.kind == "mem" and operand.mem.size == 16
           for operand in stmt.operands):
        return 16
    return 32


def _build_instruction(stmt: _Statement, labels: Dict[str, int],
                       resolved: bool, line_no: int) -> Instruction:
    """Materialize an encodable Instruction from a parsed statement."""
    mnemonic = stmt.mnemonic
    cond = None
    if mnemonic in _SIMPLE_OPS:
        op = _SIMPLE_OPS[mnemonic]
    elif mnemonic.startswith("j") and mnemonic[1:] in COND_BY_NAME:
        op = Op.JCC
        cond = COND_BY_NAME[mnemonic[1:]]
    elif mnemonic.startswith("cmov") and mnemonic[4:] in COND_BY_NAME:
        op = Op.CMOV
        cond = COND_BY_NAME[mnemonic[4:]]
    else:
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}", line_no)
    counts = _OPERAND_COUNTS[op]
    if len(stmt.operands) not in counts:
        raise AssemblerError(
            f"{mnemonic} takes {' or '.join(map(str, counts))} "
            f"operand(s), not {len(stmt.operands)}", line_no)

    width = _statement_width(stmt)
    if op in (Op.MOVZX, Op.MOVSX) and width == 16:
        # no 0x66 form: the decoder reads one as the 32-bit destination
        raise AssemblerError(f"{mnemonic} takes a 32-bit destination "
                             f"register", line_no)
    target = None
    operands: List[Union[RegOperand, ImmOperand, MemOperand]] = []

    def resolve(pending: _PendingOperand) -> int:
        if pending.label is None:
            return pending.value
        if pending.label in labels:
            return labels[pending.label]
        if resolved:
            raise AssemblerError(f"undefined label {pending.label!r}",
                                 line_no)
        return _PLACEHOLDER

    if op in _BRANCH_OPS and stmt.operands and \
            stmt.operands[0].kind == "label":
        pending = stmt.operands[0]
        if pending.label in labels:
            target = labels[pending.label]
        elif resolved:
            raise AssemblerError(f"undefined label {pending.label!r}",
                                 line_no)
        elif op in _REL8_ONLY_OPS:
            # rel8-only forms: size with a nearby placeholder; pass 2
            # checks the real displacement fits
            target = stmt.addr
        else:
            target = _PLACEHOLDER
            stmt.force_long = True
    else:
        for pending in stmt.operands:
            if pending.kind == "reg":
                operands.append(RegOperand(pending.reg))
            elif pending.kind == "mem":
                mem = pending.mem
                if pending.mem_label is not None:
                    base_value = resolve(_PendingOperand(
                        "label", label=pending.mem_label))
                    mem = MemOperand(mem.base, mem.index, mem.scale,
                                     mem.disp + base_value, mem.size)
                operands.append(mem)
            else:  # imm or label-as-immediate
                bits = 16 if width == 16 else 32
                value = resolve(pending)
                field = _IMM_FIELD_BITS.get(op) or bits
                if not -(1 << field - 1) <= value < 1 << field \
                        and (resolved or pending.label is None):
                    raise AssemblerError(f"immediate {value} does not fit "
                                         f"the {field}-bit field of "
                                         f"{mnemonic}", line_no)
                operands.append(ImmOperand(value & (1 << bits) - 1, bits))

    # NASM sugar: "imul reg, imm" means "imul reg, reg, imm"
    if op is Op.IMUL and len(operands) == 2 \
            and isinstance(operands[1], ImmOperand):
        operands = [operands[0], operands[0], operands[1]]

    return Instruction(op=op, operands=tuple(operands), width=width,
                       cond=cond, target=target,
                       rep=stmt.rep, addr=stmt.addr)


def _encode(stmt: _Statement, instr: Instruction) -> bytes:
    """``instr`` encoded at the statement's address; no form of its op
    taking these operands (``ret eax``, ``inc 5``, a ``loop`` target
    past rel8) is the line's error."""
    try:
        return encode(instr, addr=stmt.addr,
                      force_long_branch=stmt.force_long)
    except EncodeError:
        raise AssemblerError(f"{stmt.mnemonic} has no encoding with these "
                             f"operands", stmt.line_no)


def assemble(source: str, base: int = DEFAULT_TEXT_BASE) -> Image:
    """Assemble ``source`` into an :class:`Image` with a ``text`` segment."""
    labels: Dict[str, int] = {}
    statements: List[Tuple[str, object]] = []   # ('instr'|'data'|..., payload)

    for line_no, raw_line in enumerate(source.splitlines(), start=1):
        line = raw_line.split(";", 1)[0].strip()
        if not line:
            continue
        while True:
            match = re.match(r"^([A-Za-z_.$][\w.$]*):\s*(.*)$", line)
            if not match:
                break
            statements.append(("label", (match.group(1), line_no)))
            line = match.group(2).strip()
        if not line:
            continue
        if line.startswith("."):
            parts = line.split(None, 1)
            directive = parts[0].lower()
            args = parts[1] if len(parts) > 1 else ""
            statements.append(("directive", (directive, args, line_no)))
            continue
        rep = False
        tokens = line.split(None, 1)
        mnemonic = tokens[0].lower()
        rest = tokens[1] if len(tokens) > 1 else ""
        if mnemonic == "rep":
            rep = True
            tokens = rest.split(None, 1)
            mnemonic = tokens[0].lower()
            rest = tokens[1] if len(tokens) > 1 else ""
        stmt = _Statement(line_no=line_no, mnemonic=mnemonic, rep=rep,
                          operands=[_parse_operand(text, line_no)
                                    for text in _split_operands(rest)])
        statements.append(("instr", stmt))

    # -- pass 1: assign addresses ------------------------------------------------
    addr = base
    org = base
    for kind, payload in statements:
        if kind == "label":
            name, line_no = payload
            if name in labels:
                raise AssemblerError(f"duplicate label {name!r}", line_no)
            labels[name] = addr
        elif kind == "directive":
            directive, args, line_no = payload
            if directive == ".org":
                addr = org = _parse_number(args, line_no)
            elif directive == ".db":
                addr += len(_split_operands(args))
            elif directive == ".dd":
                addr += 4 * len(_split_operands(args))
            elif directive == ".zero":
                addr += _parse_number(args, line_no)
            elif directive == ".align":
                alignment = _parse_number(args, line_no)
                addr = (addr + alignment - 1) // alignment * alignment
            else:
                raise AssemblerError(f"unknown directive {directive!r}",
                                     line_no)
        else:
            stmt = payload
            stmt.addr = addr
            stmt.length = len(_encode(stmt, _build_instruction(
                stmt, labels, resolved=False, line_no=stmt.line_no)))
            addr += stmt.length

    # -- pass 2: emit bytes --------------------------------------------------
    del org  # .org directives are re-processed below
    chunks: List[Tuple[int, bytes]] = []
    addr = base
    for kind, payload in statements:
        if kind == "label":
            continue
        if kind == "directive":
            directive, args, line_no = payload
            if directive == ".org":
                addr = _parse_number(args, line_no)
            elif directive == ".db":
                data = bytes(_parse_number(text, line_no) & 0xFF
                             for text in _split_operands(args))
                chunks.append((addr, data))
                addr += len(data)
            elif directive == ".dd":
                data = b"".join(
                    (_parse_number(text, line_no) & 0xFFFFFFFF)
                    .to_bytes(4, "little")
                    for text in _split_operands(args))
                chunks.append((addr, data))
                addr += len(data)
            elif directive == ".zero":
                count = _parse_number(args, line_no)
                chunks.append((addr, bytes(count)))
                addr += count
            elif directive == ".align":
                alignment = _parse_number(args, line_no)
                new_addr = (addr + alignment - 1) // alignment * alignment
                if new_addr > addr:
                    chunks.append((addr, bytes(new_addr - addr)))
                addr = new_addr
            continue
        stmt = payload
        if stmt.addr != addr:
            raise AssemblerError("phase error (pass sizes disagree)",
                                 stmt.line_no)
        data = _encode(stmt, _build_instruction(stmt, labels, resolved=True,
                                                line_no=stmt.line_no))
        if len(data) != stmt.length:
            raise AssemblerError("phase error (encoding length changed)",
                                 stmt.line_no)
        chunks.append((addr, data))
        addr += len(data)

    if not chunks:
        raise AssemblerError("empty program")

    # merge chunks into contiguous segments
    chunks.sort(key=lambda item: item[0])
    segments: List[Tuple[int, bytearray]] = []
    for chunk_addr, data in chunks:
        if segments and segments[-1][0] + len(segments[-1][1]) == chunk_addr:
            segments[-1][1].extend(data)
        else:
            segments.append((chunk_addr, bytearray(data)))

    entry = labels.get("start", labels.get("_start", segments[0][0]))
    image = Image(entry=entry, labels=dict(labels))
    for number, (segment_addr, data) in enumerate(segments):
        name = "text" if number == 0 else f"data{number}"
        image.add_segment(name, segment_addr, bytes(data))
    return image


def assemble_to_bytes(source: str, base: int = DEFAULT_TEXT_BASE) -> bytes:
    """Assemble and return the raw text-segment bytes (single-segment use)."""
    image = assemble(source, base)
    return image.text.data
