"""Two-pass MiniCore assembler.

Syntax, one statement per line::

    ; comment (also '#')
    label:
        lui   r1, 0x2000          ; mnemonics are case-insensitive
        addi  r2, r0, 42
        sw    r2, 0(r1)           ; memory operands are offset(base)
        beq   r2, r0, done
        jmp   label
    done:
        halt
        .org  0x100               ; move the location counter
        .align 16                 ; pad to the next 16-byte boundary
        .word 0xDEADBEEF, 17      ; literal data words
        .bytes 0xDE, 0xAD         ; literal bytes (padded to word boundary)
        .ascii "hello"            ; literal text (padded to word boundary)

Numeric literals accept decimal, ``0x`` hex and ``0b`` binary; ``imm``
operands also accept ``hi(label)``/``lo(label)`` for address construction.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from ..errors import AssemblerError
from .opcodes import (
    BRANCH_OPCODES,
    FORMATS,
    N_REGISTERS,
    WORD_BYTES,
    Format,
    Opcode,
    encode,
)

_LABEL_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_MEM_OPERAND_RE = re.compile(r"^(?P<off>[^()]*)\((?P<base>[^()]+)\)$")
_HILO_RE = re.compile(r"^(?P<which>hi|lo)\((?P<label>[A-Za-z_][A-Za-z0-9_]*)\)$")


@dataclass(frozen=True)
class Program:
    """An assembled program: a flat image plus its symbol table.

    Immutable, ``symbols`` included (a read-only mapping): :func:`assemble`
    hands the same cached instance to every device flashed with one text.
    """

    image: bytes
    base_address: int
    symbols: Mapping[str, int]
    entry_point: int

    @property
    def n_words(self) -> int:
        return len(self.image) // WORD_BYTES


@dataclass
class _Statement:
    line_no: int
    address: int
    mnemonic: str
    operands: list[str]


def _parse_int(token: str, line_no: int) -> int:
    token = token.strip()
    try:
        return int(token, 0)
    except ValueError:
        raise AssemblerError(f"bad numeric literal {token!r}", line_no) from None


def _parse_register(token: str, line_no: int) -> int:
    token = token.strip().lower()
    if not token.startswith("r"):
        raise AssemblerError(f"expected register, got {token!r}", line_no)
    try:
        n = int(token[1:])
    except ValueError:
        raise AssemblerError(f"bad register {token!r}", line_no) from None
    if not 0 <= n < N_REGISTERS:
        raise AssemblerError(f"register {token!r} out of range", line_no)
    return n


def _split_operands(rest: str) -> list[str]:
    # Commas inside parentheses never occur in this ISA, so a plain split is
    # safe; blanks between tokens are tolerated.
    return [part.strip() for part in rest.split(",")] if rest.strip() else []


def _strip_comment(line: str) -> str:
    for marker in (";", "#"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    return line.strip()


class _Assembler:
    def __init__(self, source: str, base_address: int):
        if base_address % WORD_BYTES:
            raise AssemblerError(f"base address {base_address:#x} not word aligned")
        self.source = source
        self.base_address = base_address
        self.symbols: dict[str, int] = {}
        self.statements: list[_Statement] = []
        self.image_words: dict[int, int] = {}  # address -> word

    # -- pass 1: layout and symbols -------------------------------------------

    def first_pass(self) -> None:
        address = self.base_address
        for line_no, raw in enumerate(self.source.splitlines(), start=1):
            line = _strip_comment(raw)
            if not line:
                continue
            while ":" in line:
                label, _, line = line.partition(":")
                label = label.strip()
                if not _LABEL_RE.match(label):
                    raise AssemblerError(f"bad label {label!r}", line_no)
                if label in self.symbols:
                    raise AssemblerError(f"duplicate label {label!r}", line_no)
                self.symbols[label] = address
                line = line.strip()
            if not line:
                continue
            parts = line.split(None, 1)
            mnemonic = parts[0].lower()
            if mnemonic == ".ascii":
                # Keep the quoted string as a single operand.
                operands = [parts[1].strip()] if len(parts) > 1 else []
            else:
                operands = _split_operands(parts[1]) if len(parts) > 1 else []
            stmt = _Statement(line_no, address, mnemonic, operands)
            self.statements.append(stmt)
            address = self._advance(stmt, address)

    def _advance(self, stmt: _Statement, address: int) -> int:
        if stmt.mnemonic == ".org":
            if len(stmt.operands) != 1:
                raise AssemblerError(".org takes one operand", stmt.line_no)
            target = _parse_int(stmt.operands[0], stmt.line_no)
            if target < address:
                raise AssemblerError(
                    f".org {target:#x} moves backwards from {address:#x}",
                    stmt.line_no,
                )
            if target % WORD_BYTES:
                raise AssemblerError(".org target not word aligned", stmt.line_no)
            return target
        if stmt.mnemonic == ".word":
            if not stmt.operands:
                raise AssemblerError(".word needs at least one value", stmt.line_no)
            return address + WORD_BYTES * len(stmt.operands)
        if stmt.mnemonic == ".bytes":
            if not stmt.operands:
                raise AssemblerError(".bytes needs at least one value", stmt.line_no)
            n_words = -(-len(stmt.operands) // WORD_BYTES)
            return address + WORD_BYTES * n_words
        if stmt.mnemonic == ".ascii":
            text = self._parse_ascii(stmt)
            n_words = -(-len(text) // WORD_BYTES)
            return address + WORD_BYTES * max(1, n_words)
        if stmt.mnemonic == ".align":
            boundary = self._parse_align(stmt)
            return -(-address // boundary) * boundary
        # ordinary instruction
        return address + WORD_BYTES

    @staticmethod
    def _parse_ascii(stmt: _Statement) -> bytes:
        if len(stmt.operands) != 1:
            raise AssemblerError('.ascii takes one quoted string', stmt.line_no)
        token = stmt.operands[0]
        if len(token) < 2 or token[0] != '"' or token[-1] != '"':
            raise AssemblerError(
                f".ascii operand must be double-quoted, got {token!r}",
                stmt.line_no,
            )
        return token[1:-1].encode("ascii", errors="strict")

    @staticmethod
    def _parse_align(stmt: _Statement) -> int:
        if len(stmt.operands) != 1:
            raise AssemblerError(".align takes one operand", stmt.line_no)
        boundary = _parse_int(stmt.operands[0], stmt.line_no)
        if boundary < WORD_BYTES or boundary & (boundary - 1):
            raise AssemblerError(
                f".align boundary must be a power of two >= {WORD_BYTES}",
                stmt.line_no,
            )
        return boundary

    # -- pass 2: encoding -------------------------------------------------------

    def _resolve_imm(self, token: str, stmt: _Statement) -> int:
        token = token.strip()
        hilo = _HILO_RE.match(token)
        if hilo:
            label = hilo.group("label")
            if label not in self.symbols:
                raise AssemblerError(f"unknown label {label!r}", stmt.line_no)
            value = self.symbols[label]
            return (value >> 16) & 0xFFFF if hilo.group("which") == "hi" else value & 0xFFFF
        if token in self.symbols:
            return self.symbols[token]
        return _parse_int(token, stmt.line_no)

    def second_pass(self) -> None:
        for stmt in self.statements:
            if stmt.mnemonic in (".org", ".align"):
                continue
            if stmt.mnemonic == ".ascii":
                raw = self._parse_ascii(stmt)
                raw = raw.ljust(
                    max(1, -(-len(raw) // WORD_BYTES)) * WORD_BYTES, b"\x00"
                )
                for i in range(0, len(raw), WORD_BYTES):
                    word = int.from_bytes(raw[i : i + WORD_BYTES], "little")
                    self.image_words[stmt.address + i] = word
                continue
            if stmt.mnemonic == ".word":
                for i, token in enumerate(stmt.operands):
                    value = self._resolve_imm(token, stmt) & 0xFFFF_FFFF
                    self.image_words[stmt.address + WORD_BYTES * i] = value
                continue
            if stmt.mnemonic == ".bytes":
                raw = bytes(
                    _parse_int(tok, stmt.line_no) & 0xFF for tok in stmt.operands
                )
                raw = raw.ljust(-(-len(raw) // WORD_BYTES) * WORD_BYTES, b"\x00")
                for i in range(0, len(raw), WORD_BYTES):
                    word = int.from_bytes(raw[i : i + WORD_BYTES], "little")
                    self.image_words[stmt.address + i] = word
                continue
            self.image_words[stmt.address] = self._encode_instruction(stmt)

    def _encode_instruction(self, stmt: _Statement) -> int:
        try:
            opcode = Opcode[stmt.mnemonic.upper()]
        except KeyError:
            raise AssemblerError(
                f"unknown mnemonic {stmt.mnemonic!r}", stmt.line_no
            ) from None
        fmt = FORMATS[opcode]
        ops = stmt.operands

        def need(n: int) -> None:
            if len(ops) != n:
                raise AssemblerError(
                    f"{stmt.mnemonic} takes {n} operand(s), got {len(ops)}",
                    stmt.line_no,
                )

        if fmt is Format.N:
            need(0)
            return encode(opcode)

        if fmt is Format.J:
            need(1)
            target = self._resolve_imm(ops[0], stmt)
            if target % WORD_BYTES:
                raise AssemblerError("jump target not word aligned", stmt.line_no)
            return encode(opcode, imm=target)

        if opcode is Opcode.JR:
            need(1)
            return encode(opcode, rs1=_parse_register(ops[0], stmt.line_no))

        if fmt is Format.R:
            need(3)
            rd = _parse_register(ops[0], stmt.line_no)
            rs1 = _parse_register(ops[1], stmt.line_no)
            rs2 = _parse_register(ops[2], stmt.line_no)
            return encode(opcode, rd=rd, rs1=rs1, rs2=rs2)

        # I-type
        if opcode in (Opcode.LW, Opcode.SW):
            need(2)
            rd = _parse_register(ops[0], stmt.line_no)
            mem = _MEM_OPERAND_RE.match(ops[1])
            if not mem:
                raise AssemblerError(
                    f"expected offset(base) operand, got {ops[1]!r}", stmt.line_no
                )
            off_text = mem.group("off").strip() or "0"
            offset = _parse_int(off_text, stmt.line_no)
            base = _parse_register(mem.group("base"), stmt.line_no)
            self._check_imm_signed(offset, stmt)
            return encode(opcode, rd=rd, rs1=base, imm=offset)

        if opcode in BRANCH_OPCODES:
            need(3)
            ra = _parse_register(ops[0], stmt.line_no)
            rb = _parse_register(ops[1], stmt.line_no)
            target = self._resolve_imm(ops[2], stmt)
            delta = target - (stmt.address + WORD_BYTES)
            if delta % WORD_BYTES:
                raise AssemblerError("branch target not word aligned", stmt.line_no)
            words = delta // WORD_BYTES
            self._check_imm_signed(words, stmt)
            return encode(opcode, rd=ra, rs1=rb, imm=words)

        if opcode is Opcode.LUI:
            need(2)
            rd = _parse_register(ops[0], stmt.line_no)
            imm = self._resolve_imm(ops[1], stmt)
            if not 0 <= imm <= 0xFFFF:
                raise AssemblerError(f"LUI immediate {imm:#x} out of range", stmt.line_no)
            return encode(opcode, rd=rd, imm=imm)

        need(3)
        rd = _parse_register(ops[0], stmt.line_no)
        rs1 = _parse_register(ops[1], stmt.line_no)
        imm = self._resolve_imm(ops[2], stmt)
        if opcode is Opcode.ADDI:
            self._check_imm_signed(imm, stmt)
        elif not -0x8000 <= imm <= 0xFFFF:
            raise AssemblerError(f"immediate {imm:#x} out of range", stmt.line_no)
        return encode(opcode, rd=rd, rs1=rs1, imm=imm)

    @staticmethod
    def _check_imm_signed(value: int, stmt: _Statement) -> None:
        if not -0x8000 <= value <= 0x7FFF:
            raise AssemblerError(
                f"signed immediate {value} out of 16-bit range", stmt.line_no
            )

    # -- image -------------------------------------------------------------------

    def build(self) -> Program:
        if not self.image_words:
            raise AssemblerError("empty program")
        last = max(self.image_words)
        size = last + WORD_BYTES - self.base_address
        image = bytearray(size)
        for address, word in self.image_words.items():
            offset = address - self.base_address
            image[offset : offset + WORD_BYTES] = word.to_bytes(WORD_BYTES, "little")
        entry = self.symbols.get("_start", self.base_address)
        return Program(
            image=bytes(image),
            base_address=self.base_address,
            symbols=MappingProxyType(dict(self.symbols)),
            entry_point=entry,
        )


def assemble(source: str, *, base_address: int = 0) -> Program:
    """Assemble MiniCore source into a flat :class:`Program` image.

    Memoized on ``(source, base_address)``: the protocol flashes the same
    retention and camouflage texts for every message, so each is
    assembled once per process.  The cache is small and bounded because
    :func:`~repro.isa.programs.payload_writer_program` text is unique per
    payload.  Bad source is never cached; it raises on every call.
    """
    return _assemble_cached(source, base_address)


@functools.lru_cache(maxsize=16)
def _assemble_cached(source: str, base_address: int) -> Program:
    asm = _Assembler(source, base_address)
    asm.first_pass()
    asm.second_pass()
    return asm.build()
