"""Unit tests for the two-pass assembler."""

import pytest

from repro.errors import AssemblerError
from repro.isa.assembler import assemble
from repro.isa.opcodes import WORD_BYTES


def word_at(program, address):
    off = address - program.base_address
    return int.from_bytes(program.image[off : off + WORD_BYTES], "little")


class TestBasics:
    def test_single_instruction(self):
        prog = assemble("nop\n")
        assert prog.n_words == 1

    def test_labels_resolve(self):
        prog = assemble("start:\n    jmp start\n")
        assert prog.symbols["start"] == 0

    def test_entry_point_defaults_to_base(self):
        prog = assemble("nop\n", base_address=0x100)
        assert prog.entry_point == 0x100

    def test_start_label_sets_entry(self):
        prog = assemble(".word 0\n_start:\n    nop\n")
        assert prog.entry_point == WORD_BYTES

    def test_comments_and_blanks(self):
        prog = assemble("; leading comment\n\nnop  # trailing\n")
        assert prog.n_words == 1

    def test_case_insensitive_mnemonics(self):
        a = assemble("ADD r1, r2, r3\n")
        b = assemble("add r1, r2, r3\n")
        assert a.image == b.image


class TestOperands:
    def test_memory_operand(self):
        prog = assemble("lw r1, 8(r2)\nsw r1, -4(r3)\n")
        assert prog.n_words == 2

    def test_memory_operand_default_offset(self):
        a = assemble("lw r1, (r2)\n")
        b = assemble("lw r1, 0(r2)\n")
        assert a.image == b.image

    def test_hi_lo_relocation(self):
        src = "lui r1, hi(data)\nori r1, r1, lo(data)\n.org 0x12344\ndata:\n.word 1\n"
        prog = assemble(src)
        lui = word_at(prog, 0)
        assert (lui & 0xFFFF) == 0x0001  # hi(0x12344)
        ori = word_at(prog, 4)
        assert (ori & 0xFFFF) == 0x2344  # lo(0x12344)

    def test_hex_and_binary_literals(self):
        prog = assemble(".word 0xDEADBEEF, 0b1010\n")
        assert word_at(prog, 0) == 0xDEADBEEF
        assert word_at(prog, 4) == 0b1010

    def test_bytes_directive_little_endian_padded(self):
        prog = assemble(".bytes 0x11, 0x22, 0x33\n")
        assert word_at(prog, 0) == 0x00332211


class TestBranches:
    def test_forward_branch(self):
        src = "beq r1, r2, done\nnop\ndone:\n    halt\n"
        prog = assemble(src)
        imm = word_at(prog, 0) & 0xFFFF
        assert imm == 1  # skip exactly the one nop

    def test_backward_branch_negative_offset(self):
        src = "loop:\n    nop\n    bne r1, r2, loop\n"
        prog = assemble(src)
        imm = word_at(prog, 4) & 0xFFFF
        assert imm == 0xFFFE  # -2 words


class TestErrors:
    @pytest.mark.parametrize(
        "src",
        [
            "frobnicate r1\n",
            "add r1, r2\n",
            "add r1, r2, r99\n",
            "lw r1, r2\n",
            "jmp 0x3\n",  # unaligned target
            "lui r1, 0x1FFFF\n",
            "addi r1, r0, 40000\n",
            "dup:\nnop\ndup:\nnop\n",
            ".org 0x10\n.org 0x4\n",
            "beq r1, r2, nowhere\n",
            "",
        ],
    )
    def test_rejected_sources(self, src):
        with pytest.raises(AssemblerError):
            assemble(src)

    def test_error_carries_line_number(self):
        try:
            assemble("nop\nbogus r1\n")
        except AssemblerError as exc:
            assert "line 2" in str(exc)
        else:  # pragma: no cover
            pytest.fail("expected AssemblerError")

    def test_unaligned_base_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("nop\n", base_address=2)


class TestRoundTrip:
    def test_disassembler_round_trip(self):
        from repro.isa.disassembler import disassemble_word

        src_lines = [
            "add r1, r2, r3",
            "addi r4, r5, -7",
            "lw r6, 12(r7)",
            "sw r6, -8(r7)",
            "lui r8, 0xbeef",
            "jr r9",
            "halt",
        ]
        prog = assemble("\n".join(src_lines) + "\n")
        for i, line in enumerate(src_lines):
            word = word_at(prog, 4 * i)
            assert disassemble_word(word, 4 * i) == line


class TestMemoization:
    def test_same_source_assembles_once(self):
        src = "_start:\n    addi r1, r0, 7\n    halt\n"
        first = assemble(src, base_address=0x100)
        again = assemble(src, base_address=0x100)
        assert again == first
        assert again is first
        other_base = assemble(src, base_address=0x200)
        assert other_base is not first
        assert other_base.entry_point == 0x200

    def test_symbols_are_read_only(self):
        prog = assemble("start:\n    jmp start\n")
        with pytest.raises(TypeError):
            prog.symbols["start"] = 4
        assert prog.symbols == {"start": 0}
        assert assemble("start:\n    jmp start\n").symbols["start"] == 0

    def test_bad_source_raises_on_every_call(self):
        for _ in range(3):
            with pytest.raises(AssemblerError, match="line 2"):
                assemble("nop\nbogus r1\n")

    def test_cache_stays_bounded(self):
        from repro.isa.assembler import _assemble_cached

        # Payload-writer text is unique per payload: distinct sources
        # must evict, not accumulate.
        for value in range(100):
            assemble(f"addi r1, r0, {value}\n")
        info = _assemble_cached.cache_info()
        assert info.maxsize is not None and info.maxsize < 100
        assert info.currsize <= info.maxsize
