"""Integration tests for the control-board automation (Algorithms 1 & 2)."""

import numpy as np
import pytest

from repro.bitutils import bit_error_rate, invert_bits
from repro.device import make_device
from repro.errors import CapacityError, ConfigurationError, DeviceError
from repro.harness import ControlBoard


@pytest.fixture
def board():
    return ControlBoard(make_device("MSP432P401", rng=21, sram_kib=2))


@pytest.fixture
def payload(board, random_payload):
    return random_payload(board.device.sram.n_bits, seed=9)


class TestStagePayload:
    def test_debugger_path(self, board, payload):
        board.stage_payload(payload, use_firmware=False)
        assert np.array_equal(board.debug.read_sram_bits(), payload)

    def test_firmware_path(self, board, payload):
        board.stage_payload(payload, use_firmware=True)
        assert np.array_equal(board.debug.read_sram_bits(), payload)
        assert board.device.cpu.spinning

    def test_wrong_size_rejected(self, board):
        with pytest.raises(CapacityError):
            board.stage_payload(np.ones(16, dtype=np.uint8))

    @pytest.mark.parametrize("use_firmware", [False, True])
    def test_staging_draws_no_power_on_sample(self, payload, use_firmware):
        """Staging overwrites every cell, so its power-up samples nothing:
        no capture is counted, no noise is drawn, and the write's HCI
        toggles count against the noise-free decision ``offsets() > 0``."""
        board = ControlBoard(make_device("MSP432P401", rng=21, sram_kib=2))
        sram = board.device.sram
        preferred = (sram.offsets() > 0).astype(np.uint8)
        rng_state = sram._rng.bit_generator.state
        board.stage_payload(payload, use_firmware=use_firmware)
        assert sram.capture_stats["captures"] == 0
        assert sram._rng.bit_generator.state == rng_state
        assert sram.toggle_count == np.count_nonzero(preferred != payload)


class TestEncodeDecode:
    def test_full_recipe_hits_table4_error(self, board, payload):
        board.encode_message(payload, use_firmware=False, camouflage=False)
        state = board.majority_power_on_state(5)
        err = bit_error_rate(payload, invert_bits(state))
        assert err == pytest.approx(0.065, abs=0.012)

    def test_encode_requires_staged_payload(self, board):
        with pytest.raises(DeviceError):
            board.encode(stress_hours=1.0)

    def test_captures_shape(self, board, payload):
        board.stage_payload(payload, use_firmware=False)
        board.power_off()
        samples = board.capture_power_on_states(3)
        assert samples.shape == (3, board.device.sram.n_bits)

    def test_even_votes_rejected(self, board):
        with pytest.raises(ConfigurationError):
            board.majority_power_on_state(4)

    @pytest.mark.parametrize("bad_n", [0, -1, -5])
    def test_capture_count_must_be_positive(self, board, bad_n):
        with pytest.raises(ConfigurationError, match="at least one capture"):
            board.capture_power_on_states(bad_n)

    @pytest.mark.parametrize("bad_n", [2.0, "5", None, True])
    def test_capture_count_must_be_an_integer(self, board, bad_n):
        with pytest.raises(ConfigurationError, match="must be an integer"):
            board.capture_power_on_states(bad_n)

    def test_numpy_integer_capture_count_accepted(self, board, payload):
        board.stage_payload(payload, use_firmware=False)
        board.power_off()
        samples = board.capture_power_on_states(np.int64(3))
        assert samples.shape == (3, board.device.sram.n_bits)

    def test_camouflage_reload(self, board, payload):
        board.encode_message(payload, use_firmware=False, camouflage=True)
        # Flash now holds the camouflage app, not the payload writer.
        board.power_on_nominal()
        flash = board.debug.read_flash(0, 64)
        assert flash != b"\xff" * 64
        board.power_off()
        # And the analog message is still there.
        state = board.majority_power_on_state(5)
        err = bit_error_rate(payload, invert_bits(state))
        assert err < 0.09


class TestFunctionalInspection:
    def test_encoded_device_passes_every_check(self, board, payload):
        """Digital-domain plausible deniability: the inspector's functional
        checks all pass on a device carrying a message."""
        board.encode_message(payload, use_firmware=False, camouflage=True)
        report = board.verify_device_functionality()
        assert report["functional"]
        assert report["boots"] and report["cpu_runs"]
        assert report["sram_read_write"] and report["firmware_present"]

    def test_inspection_does_not_damage_the_message(self, board, payload):
        board.encode_message(payload, use_firmware=False, camouflage=True)
        board.verify_device_functionality()
        state = board.majority_power_on_state(5)
        err = bit_error_rate(payload, invert_bits(state))
        assert err < 0.09


class TestRegulatedTarget:
    def test_bcm2837_encode_applies_bypass(self, random_payload):
        board = ControlBoard(make_device("BCM2837", rng=8, sram_kib=1))
        payload = random_payload(board.device.sram.n_bits, seed=2)
        board.encode_message(payload, use_firmware=False, camouflage=False)
        assert board.device.regulator.bypassed
        state = board.majority_power_on_state(5)
        err = bit_error_rate(payload, invert_bits(state))
        assert err == pytest.approx(0.208, abs=0.02)
