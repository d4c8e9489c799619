"""Integration tests for the InvisibleBits pipeline (Figure 13)."""

import numpy as np
import pytest

from repro.core import FrameFormat, InvisibleBits
from repro.device import make_device
from repro.ecc import RepetitionCode
from repro.ecc.product import paper_end_to_end_code
from repro.errors import ConfigurationError
from repro.harness import ControlBoard

KEY = b"pre-shared key!!"


def make_channel(**kwargs):
    device = make_device("MSP432P401", rng=kwargs.pop("rng", 31), sram_kib=2)
    board = ControlBoard(device)
    return InvisibleBits(board, use_firmware=False, **kwargs)


class TestEndToEnd:
    def test_paper_figure13_system(self):
        """ECC -> AES-CTR -> encode -> decode -> decrypt -> ECC."""
        channel = make_channel(key=KEY, ecc=paper_end_to_end_code(7))
        sent = channel.send(b"the cables are in the lining")
        result = channel.receive(expected_payload=sent.payload_bits)
        assert result.message == b"the cables are in the lining"
        assert result.raw_error_vs == pytest.approx(0.065, abs=0.015)

    def test_plaintext_no_ecc_small_message_mostly_survives(self):
        channel = make_channel(ecc=RepetitionCode(9))
        channel.send(b"ecc only")
        assert channel.receive().message == b"ecc only"

    def test_without_ecc_errors_leak_through(self):
        channel = make_channel()
        channel.send(b"A" * 64)
        received = channel.receive().message
        # 6.5% BER over 512 bits: essentially impossible to be error-free.
        assert received != b"A" * 64
        assert len(received) == 64  # but the robust header held

    def test_wrong_key_garbage(self):
        channel = make_channel(key=KEY, ecc=RepetitionCode(7))
        channel.send(b"for bob only")
        eve = InvisibleBits(
            channel.board, key=b"wrong key 123456", ecc=RepetitionCode(7),
            use_firmware=False,
        )
        try:
            message = eve.receive().message
        except Exception:
            return  # header garbage is an acceptable failure mode
        assert message != b"for bob only"

    def test_device_id_nonce_differs_across_devices(self):
        a = make_channel(key=KEY, rng=1)
        b = make_channel(key=KEY, rng=2)
        pa = a.prepare_payload(b"same message")
        pb = b.prepare_payload(b"same message")
        # Footnote 4: same message, different devices -> different payloads.
        assert not np.array_equal(pa, pb)

    def test_firmware_path_equivalent(self):
        device = make_device("MSP432P401", rng=77, sram_kib=1)
        board = ControlBoard(device)
        channel = InvisibleBits(
            board, key=KEY, ecc=RepetitionCode(5), use_firmware=True
        )
        channel.send(b"via firmware", stress_hours=10.0)
        assert channel.receive().message == b"via firmware"


class TestConfiguration:
    def test_even_captures_rejected(self):
        device = make_device("MSP432P401", rng=3, sram_kib=1)
        with pytest.raises(ConfigurationError):
            InvisibleBits(ControlBoard(device), n_captures=4)

    def test_encode_result_metadata(self):
        channel = make_channel(key=KEY, ecc=RepetitionCode(3))
        result = channel.send(b"meta")
        assert result.message_bytes == 4
        assert result.encrypted
        assert 0 < result.capacity_used <= 1
        assert result.stress_hours == 10.0  # MSP432 recipe

    def test_raw_frame_mode(self):
        # rng=32: seed 31's process variation happens to put five of nine
        # stride-64 copies of one data bit on extreme-mismatch cells.
        channel = make_channel(
            key=KEY, ecc=RepetitionCode(9), frame=FrameFormat(framed=False),
            rng=32,
        )
        channel.send(b"unframed")
        result = channel.receive(message_len=8)
        assert result.message == b"unframed"


class TestDecodeStates:
    """``decode_states`` decodes a group in one stacked pass, yet each
    state's finisher records and returns what ``decode_state`` does."""

    @staticmethod
    def _group():
        from repro.core import CodingScheme
        from repro.core.fleetcapture import capture_fleet

        scheme = CodingScheme(key=KEY, ecc=paper_end_to_end_code(3), n_captures=3)
        channels = []
        payloads = []
        for i, message in enumerate([b"alpha", b"be", b"alpha", b"gamma ray"]):
            device = make_device("MSP432P401", rng=50 + i, sram_kib=0.5)
            channel = InvisibleBits(
                ControlBoard(device), scheme=scheme, use_firmware=False
            )
            payloads.append(channel.send(message, camouflage=False).payload_bits)
            channels.append(channel)
        fleet = capture_fleet([c.board for c in channels], 3, payloads=payloads)
        states = list(fleet.states)
        # Smash one row's header: that row alone must fail.
        states[1] = states[1].copy()
        states[1][:300] ^= 1
        return channels, states, payloads, fleet

    @staticmethod
    def _records(sink):
        keep = ("channel.decode_state", "channel.decrypt", "channel.ecc_decode")
        return [
            (r["type"], r["name"], r.get("attrs"), r.get("counters"),
             r.get("status"), r.get("value"))
            for r in sink.records()
            if r["type"] == "counter" or r["name"] in keep
        ]

    def _run(self, decode_one):
        from repro import telemetry
        from repro.errors import ExtractionError
        from repro.telemetry.sinks import RingBufferSink

        sink = RingBufferSink()
        telemetry.add_sink(sink)
        try:
            results = []
            for i, finish in enumerate(decode_one()):
                with telemetry.trace("test.job", job=i):
                    try:
                        results.append(finish())
                    except ExtractionError as exc:
                        results.append(str(exc))
        finally:
            telemetry.remove_sink(sink)
        return results, self._records(sink)

    def test_group_records_and_results_match_one_state_decodes(self):
        from repro.core.pipeline import decode_states

        channels, states, payloads, _ = self._group()
        lens = [None] * len(states)

        def one_by_one():
            return [
                lambda c=c, s=s, p=p: c.decode_state(s, expected_payload=p)
                for c, s, p in zip(channels, states, payloads)
            ]

        def grouped():
            return decode_states(
                channels, states, message_lens=lens, expected_payloads=payloads
            )

        want, want_records = self._run(one_by_one)
        got, got_records = self._run(grouped)
        assert got_records == want_records
        assert "header claims" in got[1]
        for a, b in zip(got, want):
            if isinstance(a, str):
                assert a == b
                continue
            assert a.message == b.message
            assert a.ecc_corrections == b.ecc_corrections
            assert a.raw_error_vs == b.raw_error_vs
            assert np.array_equal(a.recovered_payload, b.recovered_payload)
        assert [r.message for r in got if not isinstance(r, str)] == [
            b"alpha", b"alpha", b"gamma ray"
        ]

    def test_raw_errors_are_taken_as_given(self):
        from repro.core.pipeline import decode_states

        channels, states, payloads, fleet = self._group()
        finishers = decode_states(
            channels[:1], states[:1], raw_errors=fleet.errors[:1]
        )
        assert finishers[0]().raw_error_vs == fleet.errors[0]
