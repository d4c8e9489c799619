"""Unit tests for message framing."""

import numpy as np
import pytest

from repro.core.message import (
    FrameFormat,
    build_payload,
    extract_message,
    extract_messages,
    max_message_bytes,
)
from repro.ecc import RepetitionCode, hamming_7_4
from repro.ecc.product import paper_end_to_end_code
from repro.errors import CapacityError, ConfigurationError, ExtractionError

SRAM_BITS = 16 * 1024


class TestFramedRoundTrip:
    @pytest.mark.parametrize("message", [b"", b"x", b"hello world", bytes(range(256))])
    def test_no_ecc(self, message):
        payload = build_payload(message, SRAM_BITS)
        assert payload.size == SRAM_BITS
        assert extract_message(payload) == message

    def test_with_repetition(self):
        code = RepetitionCode(3)
        payload = build_payload(b"secret", SRAM_BITS, ecc=code)
        assert extract_message(payload, ecc=code) == b"secret"

    def test_with_paper_stack(self):
        code = paper_end_to_end_code(7)
        payload = build_payload(b"dead drop", SRAM_BITS, ecc=code)
        assert extract_message(payload, ecc=code) == b"dead drop"

    def test_survives_channel_errors_with_ecc(self):
        code = paper_end_to_end_code(7)
        payload = build_payload(b"resilient", SRAM_BITS, ecc=code)
        rng = np.random.default_rng(0)
        noisy = payload ^ (rng.random(SRAM_BITS) < 0.05).astype(np.uint8)
        assert extract_message(noisy, ecc=code) == b"resilient"

    def test_header_survives_errors(self):
        payload = build_payload(b"hdr", SRAM_BITS)
        rng = np.random.default_rng(1)
        noisy = payload.copy()
        header_bits = FrameFormat().header_bits
        flips = rng.choice(header_bits, size=header_bits // 10, replace=False)
        noisy[flips] ^= 1
        # 10% of header bits flipped; 15-copy repetition still decodes.
        assert extract_message(noisy)[:3] == b"hdr"


class TestRawMode:
    def test_round_trip(self):
        frame = FrameFormat(framed=False)
        payload = build_payload(b"raw mode", SRAM_BITS, frame=frame)
        out = extract_message(payload, frame=frame, message_len=8)
        assert out == b"raw mode"

    def test_length_required(self):
        frame = FrameFormat(framed=False)
        payload = build_payload(b"raw", SRAM_BITS, frame=frame)
        with pytest.raises(ExtractionError):
            extract_message(payload, frame=frame)

    def test_raw_mode_has_no_header_overhead(self):
        frame = FrameFormat(framed=False)
        assert frame.header_bits == 0
        assert max_message_bytes(SRAM_BITS, frame=frame) == SRAM_BITS // 8


class TestCapacity:
    def test_overflow_rejected(self):
        big = bytes(SRAM_BITS)  # 8x too large
        with pytest.raises(CapacityError):
            build_payload(big, SRAM_BITS)

    def test_max_message_fits_exactly(self):
        limit = max_message_bytes(SRAM_BITS, ecc=hamming_7_4())
        message = b"\xAB" * limit
        payload = build_payload(message, SRAM_BITS, ecc=hamming_7_4())
        assert extract_message(payload, ecc=hamming_7_4()) == message

    def test_one_over_max_rejected(self):
        code = RepetitionCode(5)
        limit = max_message_bytes(SRAM_BITS, ecc=code)
        with pytest.raises(CapacityError):
            build_payload(b"\x00" * (limit + 40), SRAM_BITS, ecc=code)

    def test_sram_bits_validation(self):
        with pytest.raises(ConfigurationError):
            build_payload(b"x", 0)
        with pytest.raises(ConfigurationError):
            build_payload(b"x", 1001)  # not byte multiple


class TestHeader:
    def test_header_round_trip(self):
        frame = FrameFormat()
        header = frame.encode_header(123456)
        assert frame.decode_header(header) == 123456

    def test_header_length_limit(self):
        with pytest.raises(ConfigurationError):
            FrameFormat().encode_header(2**32)

    def test_even_copies_rejected(self):
        with pytest.raises(ConfigurationError):
            FrameFormat(header_copies=4)

    def test_corrupt_header_detected_on_length_overflow(self):
        payload = build_payload(b"ok", SRAM_BITS)
        # Smash the header so it decodes to a huge length.
        payload[: FrameFormat().header_bits] = 1
        with pytest.raises(ExtractionError):
            extract_message(payload)


class TestRowWiseExtraction:
    def test_mixed_lengths_and_a_bad_header_fail_only_that_row(self):
        code = paper_end_to_end_code(3)
        messages = [b"one", b"", b"three!", b"one", b"seventeen bytes.."]
        payloads = [build_payload(m, SRAM_BITS, ecc=code) for m in messages]
        payloads[2] = payloads[2].copy()
        payloads[2][: FrameFormat().header_bits] = 1  # claims 2**32 - 1 bytes
        out, counts = extract_messages(payloads, ecc=code)
        assert isinstance(out[2], ExtractionError)
        assert "header claims 4294967295 bytes" in str(out[2])
        for i in (0, 1, 3, 4):
            assert out[i] == messages[i]
            assert out[i] == extract_message(payloads[i], ecc=code)
        # Header counters for every framed row; body counters only for
        # rows with a body that decoded.
        assert [name for name, _ in counts[2]] == [
            "ecc.repetition.overruled",
            "ecc.repetition.corrections",
            "ecc.repetition.bits",
        ]
        assert len(counts[0]) == 3 + 5 and len(counts[1]) == 3

    def test_raw_rows_need_a_non_negative_length(self):
        frame = FrameFormat(framed=False)
        payload = build_payload(b"rawdata!", SRAM_BITS, frame=frame)
        out, _ = extract_messages(
            [payload, payload, payload], frame=frame, message_lens=[8, None, -1]
        )
        assert out[0] == b"rawdata!"
        assert "pre-shared message length" in str(out[1])
        assert "negative message length" in str(out[2])
        with pytest.raises(ExtractionError, match="negative"):
            extract_message(payload, frame=frame, message_len=-1)

    def test_short_payload_fails_its_row(self):
        ok = build_payload(b"hi", SRAM_BITS)
        out, counts = extract_messages([ok, ok[:100]])
        assert out[0] == b"hi"
        assert "shorter than the frame header" in str(out[1])
        assert counts[1] == []

    def test_decode_headers_matches_decode_header(self):
        frame = FrameFormat()
        lengths = [0, 1, 123456, 2**32 - 1]
        rows = np.stack([frame.encode_header(n) for n in lengths])
        decoded, _ = frame.decode_headers(rows)
        assert decoded == lengths
        assert [frame.decode_header(row) for row in rows] == lengths
