"""Plain one-at-a-time references for the stacked engines.

**Capture.**  The plain loop :mod:`repro.sram.array`'s stacked kernel must equal bit for
bit: one capture at a time, band offsets recomputed through
:meth:`repro.physics.nbti.NBTIModel.dvth` on a slice of the aging state,
noise drawn per capture.  It shares only the model's policy with the
engine — which cells form the noise band and when the drift bound
refreshes the cache — because that policy fixes how much noise each
capture draws.  :class:`ReferenceSampler` replays ``apply_power``, a
``power_cycle`` loop and the control board's capture loop; the
``capture.*``/``fleet.*`` oracles and tests/sram compare against it.

**Decode.**  :func:`reference_decode_state` is the per-message hard
decode :func:`repro.core.pipeline.decode_states` must equal row for row:
invert, decrypt, then the frame header and the ECC body decoded through
:meth:`Code.decode` on that one message, with the ``ecc.*`` counters read
back from a collecting span.  The ``decode.group_vs_rows`` oracle compares
against it.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..bitutils import bit_error_rate, bits_to_bytes, invert_bits
from ..ecc.base import IdentityCode
from ..errors import ExtractionError
from ..physics.nbti import NBTIState

__all__ = ["ReferenceSampler", "reference_capture_cache", "reference_decode_state"]


def reference_capture_cache(array, sigma: float) -> dict:
    """The capture cache built the direct way: offsets from ``nbti.dvth``,
    locked-in shifts from ``nbti.dvth_unrecovered``, every array pass in
    full.  Same keys and doubles as ``SRAMArray._refresh_capture_cache``;
    flushes deferred relax on ``array`` exactly as it does."""
    nbti = array._nbti
    st1, st0 = array.age_when_1, array.age_when_0
    offs = array.mismatch + nbti.dvth(st0) - nbti.dvth(st1)
    full1 = nbti.dvth_unrecovered(st1)
    full0 = nbti.dvth_unrecovered(st0)
    band = np.flatnonzero(np.abs(offs) < array.NOISE_TAIL_SIGMA * sigma)
    return {
        "aging_epoch": array._aging_epoch,
        "flushes": (st1.flushes, st0.flushes),
        "sigma_ref": sigma,
        "decision_base": (offs > 0.0).astype(np.uint8),
        "band": band,
        "mismatch_b": array.mismatch[band],
        "full1_b": full1[band],
        "full0_b": full0[band],
        "r1_b": st1.relax_seconds[band],
        "r0_b": st0.relax_seconds[band],
        "r1_min": float(st1.relax_seconds.min()),
        "r0_min": float(st0.relax_seconds.min()),
        "full_max": float(full1.max()) + float(full0.max()),
    }


def _band_dvth(nbti, state: NBTIState, band: np.ndarray) -> np.ndarray:
    """``nbti.dvth`` of the band's cells, deferred relax included."""
    return nbti.dvth(
        NBTIState(
            state.stress_seconds[band], state.relax_seconds[band], state.pending_relax
        )
    )


class ReferenceSampler:
    """Takes power-on samples of one array, one capture at a time.

    The sampler starts from the array's current capture cache — the
    band a sample taken now would use — and from then on builds its own
    with :func:`reference_capture_cache`, so the array must be sampled
    only through it while it is in use.
    """

    def __init__(self, array):
        self.array = array
        self._cache: "dict | None" = array._capture_cache

    def sample(self) -> np.ndarray:
        """One noisy power-on state at the array's current aging state."""
        array = self.array
        nbti = array._nbti
        sigma = array._effective_noise_sigma()
        if not array._capture_cache_valid(self._cache, sigma):
            self._cache = reference_capture_cache(array, sigma)
            array.capture_stats["cache_refreshes"] += 1
        band = self._cache["band"]
        state = self._cache["decision_base"].copy()
        if band.size:
            offs = (
                array.mismatch[band]
                + _band_dvth(nbti, array.age_when_0, band)
                - _band_dvth(nbti, array.age_when_1, band)
            )
            noise = array._rng.standard_normal(band.size)
            state[band] = offs + sigma * noise > 0.0
        array.capture_stats["captures"] += 1
        array.capture_stats["band_cells"] += int(band.size)
        return state

    def power_on(self, vdd: "float | None" = None) -> np.ndarray:
        """``SRAMArray.apply_power``: sample, then let remanence overwrite
        the cells whose charge survived the gap."""
        array = self.array
        vdd = array.technology.vdd_nominal if vdd is None else float(vdd)
        array.technology.check_operating_point(vdd, array.temp_k)
        state = self.sample()
        if array._retained is not None:
            keep = array._remanence.retained_mask(
                array.n_bits, array._off_seconds, array.temp_k, array._rng
            )
            state[keep] = array._retained[keep]
        array._retained = None
        array._off_seconds = 0.0
        array.powered = True
        array.vdd = vdd
        array._data = state
        return state.copy()

    def power_cycles(
        self, n_captures: int, *, off_seconds: float = 1.0, drain: bool = True
    ) -> np.ndarray:
        """``n_captures`` calls of ``SRAMArray.power_cycle``."""
        array = self.array
        frames = []
        for _ in range(n_captures):
            if array.powered:
                array.remove_power(drain=drain)
            array.shelve(off_seconds)
            frames.append(self.power_on())
        return np.stack(frames)

    def board_captures(
        self, board, n_captures: int, *, off_seconds: float = 1.0
    ) -> np.ndarray:
        """``ControlBoard.capture_power_on_states`` on a fault-free board:
        flash the retention program, then power on, read, drain and wait
        ``off_seconds``, ``n_captures`` times."""
        from ..isa.programs import retention_program

        if board.device.powered:
            board.power_off()
        board.device.load_firmware(retention_program())
        vdd = board.device.regulator.core_voltage(board._nominal_rail())
        frames = []
        for _ in range(n_captures):
            frames.append(self.power_on(vdd))
            self.array.remove_power(drain=True)
            self.array.shelve(off_seconds)
        return np.stack(frames)


def _reference_extract(bits: np.ndarray, code, frame, message_len) -> bytes:
    """One message's frame header and ECC body, decoded on their own."""
    code = code or IdentityCode()
    if frame.framed:
        if bits.size < frame.header_bits:
            raise ExtractionError("payload shorter than the frame header")
        raw = frame._header_code().decode(bits[: frame.header_bits])
        length = int.from_bytes(bits_to_bytes(raw), "big")
        body = bits[frame.header_bits :]
    else:
        if message_len is None:
            raise ExtractionError("raw mode needs the pre-shared message length")
        length = message_len
        body = bits
    coded_bits = -(-length * 8 // code.k) * code.n
    if coded_bits > body.size:
        raise ExtractionError(
            f"header claims {length} bytes but only {body.size} coded bits "
            "are present — header corrupted beyond repair?"
        )
    if not length:
        return b""
    return bits_to_bytes(code.decode(body[:coded_bits])[: length * 8])


def reference_decode_state(
    channel,
    state: np.ndarray,
    *,
    message_len: "int | None" = None,
    expected_payload: "np.ndarray | None" = None,
) -> dict:
    """Hard-decode one voted state of ``channel`` (an ``InvisibleBits``).

    Returns ``message`` (the bytes, or the ``ExtractionError`` raised),
    ``ecc_corrections``, ``raw_error_vs`` and ``counters`` (the ``ecc.*``
    counters the decode emitted).
    """
    recovered = invert_bits(state)
    cipher = channel.scheme.cipher(channel.board.device.device_id)
    plain = cipher.process_bits(recovered) if cipher is not None else recovered
    with telemetry.trace("verify.reference_decode", force=True) as span:
        try:
            message = _reference_extract(
                plain, channel.ecc, channel.frame, message_len
            )
        except ExtractionError as exc:
            message = exc
    counters = {
        name: value for name, value in span.counters.items() if name.startswith("ecc.")
    }
    return {
        "message": message,
        "ecc_corrections": int(
            sum(v for name, v in counters.items() if name.endswith(".corrections"))
        ),
        "raw_error_vs": (
            None
            if expected_payload is None
            else bit_error_rate(expected_payload, recovered)
        ),
        "counters": counters,
    }
