"""Binary encoding/decoding of the 32-bit instruction words.

Layouts (MIPS-like):

* R format: ``[opcode:6][rs:5][rt:5][rd:5][unused:11]``
* I format: ``[opcode:6][rs:5][rt:5][imm:16]`` (imm is two's complement;
  branches store the absolute instruction index as a PC-relative offset)
* J format: ``[opcode:6][target:26]``

The paper contrasts its 32-bit encoding against the TI DSP's 256-bit
bundles and the ULIW design's 619-bit words; having a real encoder makes
the code-size numbers in the ablation benchmarks concrete.
"""

from __future__ import annotations

from .instructions import (
    Format,
    Instruction,
    Opcode,
)

__all__ = ["encode", "decode", "encode_program", "OPCODE_NUMBERS"]

OPCODE_NUMBERS = {op: i for i, op in enumerate(Opcode)}
_NUMBER_OPCODES = {i: op for op, i in OPCODE_NUMBERS.items()}

_REL_BRANCHES = frozenset(
    {Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE}
)


def _to_u16(value: int) -> int:
    if not (-32768 <= value <= 65535):
        raise ValueError(f"immediate {value} does not fit in 16 bits")
    return value & 0xFFFF


def _from_s16(value: int) -> int:
    value &= 0xFFFF
    return value - 0x10000 if value & 0x8000 else value


def encode(instr: Instruction, index: int = 0) -> int:
    """Encode one instruction to its 32-bit word.

    ``index`` is the instruction's own position, needed to turn absolute
    branch targets into PC-relative offsets.
    """
    op = OPCODE_NUMBERS[instr.opcode] << 26
    fmt = instr.format
    if fmt is Format.NONE:
        return op
    if fmt is Format.J:
        target = instr.imm
        if not (0 <= target < (1 << 26)):
            raise ValueError(f"jump target {target} out of range")
        return op | target
    if fmt is Format.R:
        return (
            op
            | (instr.rs << 21)
            | (instr.rt << 16)
            | (instr.rd << 11)
        )
    imm = instr.imm
    if instr.opcode in _REL_BRANCHES:
        imm = instr.imm - (index + 1)
    return op | (instr.rs << 21) | (instr.rt << 16) | _to_u16(imm)


def decode(word: int, index: int = 0) -> Instruction:
    """Decode a 32-bit word back to an :class:`Instruction`."""
    opnum = (word >> 26) & 0x3F
    if opnum not in _NUMBER_OPCODES:
        raise ValueError(f"unknown opcode number {opnum}")
    opcode = _NUMBER_OPCODES[opnum]
    fmt = Instruction(opcode=opcode).format
    if fmt is Format.NONE:
        return Instruction(opcode=opcode)
    if fmt is Format.J:
        return Instruction(opcode=opcode, imm=word & 0x3FFFFFF)
    rs = (word >> 21) & 0x1F
    rt = (word >> 16) & 0x1F
    if fmt is Format.R:
        rd = (word >> 11) & 0x1F
        return Instruction(opcode=opcode, rd=rd, rs=rs, rt=rt)
    imm = _from_s16(word)
    if opcode in _REL_BRANCHES:
        imm = imm + index + 1
    return Instruction(opcode=opcode, rs=rs, rt=rt, imm=imm)


def encode_program(program) -> list:
    """Encode every instruction; returns the list of 32-bit words."""
    return [encode(instr, i) for i, instr in enumerate(program)]
