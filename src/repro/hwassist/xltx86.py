"""XLTx86 — the backend translation-assist functional unit (Table 1).

``XLTx86 Fdst, Fsrc``: decode the architected instruction aligned at the
start of the 128-bit Fsrc register and deposit its cracked micro-ops into
Fdst, setting the CSR status register:

* ``x86_ilen``    — byte length of the architected instruction
* ``uops_bytes``  — byte length of the generated micro-ops
* ``Flag_cmplx``  — instruction too complex for the hardware path
  (microcoded op, REP string, 16-bit-operand form, decode fault, or a
  cracked body that does not fit the 128-bit Fdst)
* ``Flag_cti``    — control-transfer instruction (branch handler needed)

Documented deviation from Fig. 6b: the paper packs the two byte counts in
4-bit fields; x86lite instructions and cracked bodies can be exactly 16
bytes, so our CSR uses 5-bit count fields (the HAloop masks change from
0x0F/0xF0 to 0x1F/0x3E0).  Nothing else shifts.

The unit is *the same function* as the software BBT's decode/crack step:
instruction bytes in, cracked micro-op bytes and the CSR facts out, both
through :mod:`repro.translator.templates`.  What the assist changes is cost —
4 pipeline cycles instead of ~70 of the 83 software-BBT cycles per
instruction (Section 5.3) — which the timing model accounts for.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.isa.fusible.encoding import decode_stream
from repro.isa.fusible.microop import MicroOp
from repro.isa.fusible.registers import FREG_BYTES
from repro.isa.x86lite.decoder import DecodeError
from repro.translator.templates import shape_at

#: Execution latency of one XLTx86 invocation, in cycles (Section 4.2).
XLTX86_LATENCY = 4


@dataclass
class XLTx86Result:
    """Outcome of one XLTx86 invocation."""

    x86_ilen: int            # 0 when the bytes do not decode at all
    uop_byte_count: int
    flag_cmplx: bool
    flag_cti: bool
    uop_bytes: bytes = b""
    uop_count: int = 0

    @property
    def uops(self) -> List[MicroOp]:
        """The micro-ops ``uop_bytes`` hold."""
        return decode_stream(self.uop_bytes)

    @property
    def uop_bytes_padded(self) -> bytes:
        """Fdst image: micro-op bytes zero-padded to 128 bits."""
        return self.uop_bytes + bytes(FREG_BYTES - len(self.uop_bytes))


class XLTx86Unit:
    """Functional model of the XLTx86 unit (one instruction wide)."""

    def __init__(self) -> None:
        self.invocations = 0
        self.complex_punts = 0
        self.cti_flags = 0

    def translate(self, fsrc: bytes, addr: int = 0) -> XLTx86Result:
        """Decode + crack the instruction at the start of ``fsrc``.

        ``addr`` is the architected address of the instruction (used to
        resolve branch targets; the real unit gets it from the streaming
        buffer's fetch address).
        """
        self.invocations += 1
        fsrc = bytes(fsrc[:FREG_BYTES]).ljust(FREG_BYTES, b"\0")
        try:
            shape = shape_at(fsrc, 0, addr)
        except DecodeError:
            self.complex_punts += 1
            return XLTx86Result(0, 0, True, False)
        data, count = shape.body(fsrc, 0, addr)     # a complex one: none
        # a cracked body that does not fit the 128-bit Fdst is punted
        # to software like a complex instruction
        oversized = len(data) > FREG_BYTES
        if shape.cti and not oversized:
            self.cti_flags += 1
        if shape.cmplx or oversized:
            self.complex_punts += 1
            return XLTx86Result(shape.length, 0, True, shape.cti)
        return XLTx86Result(shape.length, len(data), False, shape.cti,
                            data, count)
