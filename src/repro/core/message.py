"""Message framing: bytes in, SRAM-sized payload bits out, and back.

The paper assumes the parties pre-share message length, ECC choice and key
(§4.1 footnote 3), so the *wire format* is trivial; a practical library
still wants self-describing frames.  Both modes exist:

- **framed** (default): a 32-bit big-endian message-byte-length header,
  protected by a fixed 15-copy bitwise repetition code, precedes the coded
  body.  The header is inside the encryption envelope, so framing leaks
  nothing.
- **raw**: no header; the receiver must know the message length.

Either way the full SRAM image is produced: coded bits first, the remainder
zero-filled (after encryption the fill is keystream — indistinguishable
from a fresh power-on state, which is the point of §6).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..bitutils import as_bit_array, bits_to_bytes, bytes_to_bits
from ..ecc.base import Code, IdentityCode, emit_counts
from ..ecc.repetition import RepetitionCode
from ..errors import CapacityError, ConfigurationError, ExtractionError


@dataclass(frozen=True)
class FrameFormat:
    """Framing parameters shared by both parties."""

    framed: bool = True
    header_copies: int = 15

    def __post_init__(self) -> None:
        if self.header_copies < 1 or self.header_copies % 2 == 0:
            raise ConfigurationError("header_copies must be positive odd")

    @property
    def header_bits(self) -> int:
        return 32 * self.header_copies if self.framed else 0

    def _header_code(self) -> RepetitionCode:
        return RepetitionCode(self.header_copies, layout="bitwise")

    def encode_header(self, message_bytes_len: int) -> np.ndarray:
        if not 0 <= message_bytes_len < 2**32:
            raise ConfigurationError("message length does not fit the header")
        raw = bytes_to_bits(message_bytes_len.to_bytes(4, "big"))
        return self._header_code().encode(raw)

    def decode_header(self, bits: np.ndarray) -> int:
        lengths, counts = self.decode_headers(as_bit_array(bits)[None, :])
        emit_counts((name, values[0]) for name, values in counts)
        return lengths[0]

    def decode_headers(self, rows: np.ndarray) -> "tuple[list[int], list]":
        """Decode a ``(rows, header_bits)`` stack of headers at once:
        message lengths plus the header code's per-row counters
        (:meth:`~repro.ecc.base.Code.decode_rows`)."""
        raw, counts = self._header_code().decode_rows(rows)
        return np.packbits(raw, axis=1).view(">u4").ravel().tolist(), counts

    def decode_header_soft(self, llrs: np.ndarray) -> int:
        """Soft-combine the header's repetition copies (sum of LLRs)."""
        from ..ecc.soft import soft_decode

        raw = soft_decode(self._header_code(), llrs)
        return int.from_bytes(bits_to_bytes(raw), "big")


def _pad_to_multiple(bits: np.ndarray, k: int) -> np.ndarray:
    remainder = bits.size % k
    if remainder == 0:
        return bits
    return np.concatenate([bits, np.zeros(k - remainder, dtype=np.uint8)])


def build_payload(
    message: bytes,
    sram_bits: int,
    *,
    ecc: "Code | None" = None,
    frame: "FrameFormat | None" = None,
) -> np.ndarray:
    """Pre-process a message into the plain (pre-encryption) payload bits.

    Applies framing and ECC, then zero-fills to exactly ``sram_bits``.
    Raises :class:`CapacityError` when the coded message cannot fit.
    """
    if sram_bits <= 0 or sram_bits % 8:
        raise ConfigurationError("sram_bits must be a positive byte multiple")
    code = ecc or IdentityCode()
    frame = frame or FrameFormat()

    data_bits = _pad_to_multiple(bytes_to_bits(message), code.k)
    coded = code.encode(data_bits) if data_bits.size else np.zeros(0, dtype=np.uint8)
    header = (
        frame.encode_header(len(message)) if frame.framed else np.zeros(0, dtype=np.uint8)
    )
    used = header.size + coded.size
    if used > sram_bits:
        raise CapacityError(
            f"message of {len(message)} bytes needs {used} coded bits but the "
            f"SRAM holds {sram_bits} (code {code.name}, rate {code.rate:.3f})"
        )
    fill = np.zeros(sram_bits - used, dtype=np.uint8)
    return np.concatenate([header, coded, fill]).astype(np.uint8)


def extract_message(
    payload_bits: np.ndarray,
    *,
    ecc: "Code | None" = None,
    frame: "FrameFormat | None" = None,
    message_len: "int | None" = None,
) -> bytes:
    """Post-process recovered payload bits back into message bytes.

    ``message_len`` overrides the header in raw mode (and is required
    there); in framed mode the header is authoritative.  The one-row case
    of :func:`extract_messages`; emits the decode's ``ecc.*`` counters.
    """
    messages, counts = extract_messages(
        [payload_bits], ecc=ecc, frame=frame, message_lens=[message_len]
    )
    emit_counts(counts[0])
    if isinstance(messages[0], ExtractionError):
        raise messages[0]
    return messages[0]


def _stacked(
    rows: "list[np.ndarray]", members: "list[int]", start: int, stop: int
) -> np.ndarray:
    """``rows[i][start:stop]`` for each member, as one ``(members, stop -
    start)`` array (a view for one member)."""
    if len(members) == 1:
        return rows[members[0]][None, start:stop]
    return np.stack([rows[i][start:stop] for i in members])


def extract_messages(
    payloads: "list[np.ndarray]",
    *,
    ecc: "Code | None" = None,
    frame: "FrameFormat | None" = None,
    message_lens: "list[int | None] | None" = None,
) -> "tuple[list[bytes | ExtractionError], list[list[tuple[str, int]]]]":
    """Row-wise :func:`extract_message` over payloads of any lengths.

    All headers decode in one stacked pass, then the bodies in one stacked
    ECC pass per message length.  Returns, per row, the message — or the
    :class:`ExtractionError` that row alone fails with — and the
    ``ecc.*`` counters its one-row decode emits, as ``(name, value)``
    pairs in emission order.  Nothing is emitted here.
    """
    code = ecc or IdentityCode()
    frame = frame or FrameFormat()
    rows = [as_bit_array(bits) for bits in payloads]
    lens = [None] * len(rows) if message_lens is None else list(message_lens)
    messages: "list[bytes | ExtractionError | None]" = [None] * len(rows)
    counts: "list[list[tuple[str, int]]]" = [[] for _ in rows]

    start = frame.header_bits
    if frame.framed:
        framed = []
        for i, bits in enumerate(rows):
            if bits.size < start:
                messages[i] = ExtractionError("payload shorter than the frame header")
            else:
                framed.append(i)
        if framed:
            decoded, header_counts = frame.decode_headers(
                _stacked(rows, framed, 0, start)
            )
            for j, i in enumerate(framed):
                lens[i] = decoded[j]
                counts[i] = [(name, values[j]) for name, values in header_counts]

    k, n = code.k, code.n
    by_length: "dict[int, list[int]]" = {}
    for i, length in enumerate(lens):
        if messages[i] is not None:
            continue
        if length is None:
            messages[i] = ExtractionError(
                "raw mode needs the pre-shared message length"
            )
        elif length < 0:
            messages[i] = ExtractionError(f"negative message length {length}")
        elif -(-length * 8 // k) * n > rows[i].size - start:
            messages[i] = ExtractionError(
                f"header claims {length} bytes but only {rows[i].size - start} "
                "coded bits are present — header corrupted beyond repair?"
            )
        else:
            by_length.setdefault(length, []).append(i)

    for length, members in by_length.items():
        if not length:
            for i in members:
                messages[i] = b""
            continue
        stop = start - (-length * 8 // k) * n
        bits, body_counts = code.decode_rows(_stacked(rows, members, start, stop))
        packed = np.packbits(bits[:, : length * 8], axis=1)
        for j, i in enumerate(members):
            messages[i] = packed[j].tobytes()
            counts[i] += [(name, values[j]) for name, values in body_counts]
    return messages, counts


def extract_message_soft(
    payload_llrs: np.ndarray,
    *,
    ecc: "Code | None" = None,
    frame: "FrameFormat | None" = None,
    message_len: "int | None" = None,
) -> bytes:
    """Soft-decision twin of :func:`extract_message`.

    Takes per-bit log-likelihood ratios of the *plain* payload (positive
    favours 0 — the convention of :mod:`repro.ecc.soft`) instead of hard
    bits.  The frame geometry is identical: one LLR per payload bit, so
    header/body slicing works on the same offsets.
    """
    llrs = np.asarray(payload_llrs, dtype=np.float64).ravel()
    code = ecc or IdentityCode()
    frame = frame or FrameFormat()

    from ..ecc.soft import soft_decode

    if frame.framed:
        if llrs.size < frame.header_bits:
            raise ExtractionError("payload shorter than the frame header")
        length = frame.decode_header_soft(llrs[: frame.header_bits])
        body = llrs[frame.header_bits :]
    else:
        if message_len is None:
            raise ExtractionError("raw mode needs the pre-shared message length")
        length = message_len
        body = llrs

    data_bits_padded = -(-length * 8 // code.k) * code.k
    coded_bits = data_bits_padded // code.k * code.n
    if coded_bits > body.size:
        raise ExtractionError(
            f"header claims {length} bytes but only {body.size} coded bits "
            "are present — header corrupted beyond repair?"
        )
    decoded = (
        soft_decode(code, body[:coded_bits])
        if coded_bits
        else np.zeros(0, dtype=np.uint8)
    )
    return bits_to_bytes(decoded[: length * 8]) if length else b""


def max_message_bytes(
    sram_bits: int, *, ecc: "Code | None" = None, frame: "FrameFormat | None" = None
) -> int:
    """Largest message (bytes) that fits — the §5.3 capacity arithmetic."""
    code = ecc or IdentityCode()
    frame = frame or FrameFormat()
    body_bits = sram_bits - frame.header_bits
    if body_bits <= 0:
        return 0
    data_bits = body_bits // code.n * code.k
    return data_bits // 8
