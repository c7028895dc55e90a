"""Program container and a small builder API used by the code generators.

A :class:`Program` is a resolved sequence of instructions plus the label
map.  :class:`ProgramBuilder` offers the ergonomic layer the FFT code
generators use: emit instructions, define labels, and patch branches in a
second pass — i.e. a tiny two-pass assembler working on objects instead of
text (the text assembler in :mod:`repro.isa.assembler` lowers onto this).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from .instructions import BRANCH_OPCODES, Instruction, Opcode

__all__ = ["Program", "ProgramBuilder"]


@dataclass(frozen=True)
class Program:
    """An executable instruction sequence with resolved branch targets.

    Immutable: ``instructions`` is stored as a tuple and the fields
    cannot be rebound, so a program's identity stands for its code.
    Machines rely on that to reuse work keyed by the program object
    (predecoded handlers, recorded batch passes).
    """

    instructions: tuple
    labels: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "instructions", tuple(self.instructions))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def __getitem__(self, index: int) -> Instruction:
        return self.instructions[index]

    @cached_property
    def opcodes(self) -> frozenset:
        """Every opcode the program contains (computed once)."""
        return frozenset(instr.opcode for instr in self.instructions)

    def listing(self) -> str:
        """Human-readable listing with labels interleaved."""
        by_index = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines = []
        for i, instr in enumerate(self.instructions):
            for label in by_index.get(i, []):
                lines.append(f"{label}:")
            lines.append(f"    {i:6d}  {instr}")
        return "\n".join(lines)


class ProgramBuilder:
    """Two-pass object-level assembler.

    Usage::

        b = ProgramBuilder("fft64")
        b.label("loop")
        b.emit(Opcode.ADDI, rt=1, rs=1, imm=-1)
        b.branch(Opcode.BNE, rs=1, rt=0, target="loop")
        program = b.build()
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._instructions = []
        self._labels = {}
        self._pending = []  # (index, label) pairs to patch

    def label(self, name: str) -> None:
        """Define ``name`` at the current position."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = len(self._instructions)

    def emit(self, opcode: Opcode, rd: int = 0, rs: int = 0, rt: int = 0,
             imm: int = 0) -> int:
        """Append an instruction; returns its index."""
        self._instructions.append(
            Instruction(opcode=opcode, rd=rd, rs=rs, rt=rt, imm=imm)
        )
        return len(self._instructions) - 1

    def branch(self, opcode: Opcode, rs: int = 0, rt: int = 0,
               target: str = "") -> int:
        """Append a branch/jump to label ``target`` (patched at build)."""
        if opcode not in BRANCH_OPCODES:
            raise ValueError(f"{opcode} is not a branch/jump")
        index = len(self._instructions)
        self._instructions.append(
            Instruction(opcode=opcode, rs=rs, rt=rt, imm=0, label=target)
        )
        self._pending.append((index, target))
        return index

    # Convenience emitters used heavily by the code generators ----------

    def li(self, rt: int, value: int) -> None:
        """Load a (possibly wide) immediate into ``rt``."""
        if -32768 <= value <= 32767:
            self.emit(Opcode.ADDI, rt=rt, rs=0, imm=value)
        else:
            self.emit(Opcode.LUI, rt=rt, imm=(value >> 16) & 0xFFFF)
            low = value & 0xFFFF
            if low:
                self.emit(Opcode.ORI, rt=rt, rs=rt, imm=low)

    def move(self, rt: int, rs: int) -> None:
        """Register copy via add-with-zero."""
        self.emit(Opcode.ADD, rd=rt, rs=rs, rt=0)

    def nop(self) -> None:
        """Pipeline filler."""
        self.emit(Opcode.NOP)

    def halt(self) -> None:
        """Terminate simulation."""
        self.emit(Opcode.HALT)

    def build(self) -> Program:
        """Resolve labels and return the immutable program."""
        resolved = list(self._instructions)
        for index, target in self._pending:
            if target not in self._labels:
                raise ValueError(f"undefined label {target!r}")
            old = resolved[index]
            resolved[index] = Instruction(
                opcode=old.opcode, rd=old.rd, rs=old.rs, rt=old.rt,
                imm=self._labels[target], label=target,
            )
        return Program(
            instructions=resolved, labels=dict(self._labels), name=self.name
        )
