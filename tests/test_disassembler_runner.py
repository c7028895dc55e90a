"""Remaining surfaces: disassembler listings and the run-result wrapper."""

import numpy as np

from repro.analysis import size_sweep
from repro.asip import generate_fft_program
from repro.isa import encode_program
from repro.isa.disassembler import disassemble, disassemble_word


class TestDisassembler:
    def test_word_disassembly(self):
        from repro.isa import Instruction, Opcode, encode

        word = encode(Instruction(opcode=Opcode.ADDI, rt=1, rs=0, imm=5))
        assert disassemble_word(word) == "addi r1, r0, 5"

    def test_listing_of_generated_program(self):
        program = generate_fft_program(8)
        words = encode_program(program)
        listing = disassemble(words)
        assert "ldin" in listing
        assert "but4" in listing
        assert f"{len(words) - 1:6d}:" in listing

    def test_listing_reassembles(self):
        """Disassembled text is valid assembler input (numeric targets)."""
        from repro.isa import assemble

        program = generate_fft_program(8)
        text = "\n".join(str(i) for i in program)
        again = assemble(text)
        assert len(again) == len(program)
        for a, b in zip(again, program):
            assert (a.opcode, a.rd, a.rs, a.rt, a.imm) == (
                b.opcode, b.rd, b.rs, b.rt, b.imm
            )

    def test_reassembled_program_executes_identically(self):
        from repro.asip import FFTASIP
        from repro.isa import assemble

        n = 16
        x = np.random.default_rng(2).standard_normal(n).astype(complex)
        program = generate_fft_program(n)
        reassembled = assemble("\n".join(str(i) for i in program))
        outputs = []
        for prog in (program, reassembled):
            asip = FFTASIP(n)
            asip.load_input(x)
            asip.run(prog)
            outputs.append(asip.read_output())
        assert np.allclose(outputs[0], outputs[1])
        assert np.allclose(outputs[0], np.fft.fft(x), atol=1e-9)


class TestRunResult:
    def test_result_fields(self):
        result = size_sweep([16])[16]
        assert result.n_points == 16
        assert result.cycles == result.stats.cycles
        assert result.throughput.n_points == 16
        assert result.asip.n_points == 16
        assert len(result.spectrum) == 16
