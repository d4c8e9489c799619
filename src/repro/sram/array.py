"""The simulated SRAM bank.

An :class:`SRAMArray` is the analog-domain stand-in for the paper's physical
SRAM: every cell carries a static manufacturing mismatch, two NBTI aging
accumulators (one per inverter), and per-power-up noise.  The power-on state
of a cell is the sign of::

    offset = mismatch + dvth(aged while holding 0) - dvth(aged while holding 1)
    power_on = (offset + noise) > 0

so stressing a cell holding value ``v`` biases its future power-on state
toward ``~v`` — the paper's data-directed aging (§2.2), and the reason the
decoded payload is the *complement* of the power-on state (§4.3).

Time is explicit: callers advance it with :meth:`hold` (powered, holding
data — this is what ages cells), :meth:`shelve` (unpowered — this is what
lets aging recover), and :meth:`operate` (powered, running a write workload).

Capture engine
--------------

Every power-on sample — :meth:`SRAMArray.apply_power` (one capture), an
array or control-board burst, a whole tray from
:func:`repro.core.fleetcapture.capture_fleet` — takes three steps:

1. **Plan** (:meth:`SRAMArray._plan_burst`): walk the burst's shelf gaps
   as the per-capture loop would, recording each capture's deferred relax
   time and refreshing the *capture cache* wherever that loop would.  The
   cache holds both inverters' ``k * t^n`` terms for the **noise band**:
   cells whose offset lies within ``NOISE_TAIL_SIGMA`` noise sigmas of the
   threshold.  The rest power on to ``sign(offset)`` (a draw beyond 8
   sigma has probability ~6e-16).
2. **Draw** (:func:`run_bursts`): band noise from each array's own
   generator, one ``(captures, band)`` block per cache segment — the
   stream per-capture draws would consume.
3. **Decide** (:func:`stacked_band_decisions`): the one kernel turning
   cached terms, sigma, relax trajectory and noise into bits, for any
   number of arrays in one call.  Segments sharing a capture count and
   NBTI recovery constants are concatenated into chunks of up to
   :data:`KERNEL_CHUNK_CELLS` band cells and evaluated one row per capture
   index across the whole chunk, so a tray of small noise bands costs a
   few numpy calls, not a few per slot; a larger segment is its own chunk,
   read straight from its cache.  The recovery ``log1p`` runs once per
   distinct relax clock, memoised on a cache from its second burst.

The one cache builder also serves :meth:`SRAMArray.offsets`.  Shelf gaps
are deferred as one scalar (:meth:`NBTIState.flush_relax`), and a drift
bound decides when they force a refresh, so long bursts stay exact.  Code
that mutates aging state behind the array's back (e.g. snapshot restore)
must call :meth:`invalidate_analog_caches`.  The scalar per-capture loop
the engine must match bit for bit is :mod:`repro.verify.reference`.

Payload staging overwrites every cell, so it powers up with
``apply_power(sample=False)``: nothing is sampled, and the write counts its
HCI toggles against the noise-free decision ``offsets() > 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .. import metrics, telemetry
from ..errors import ConfigurationError, PowerError
from ..bitutils import as_bit_array, majority_vote
from ..physics.hci import HCIModel
from ..physics.nbti import NBTIState
from ..rng import make_rng
from .remanence import RemanenceModel
from .technology import TechnologyProfile

#: The capture counters, ticked once per burst by :func:`run_bursts` — the
#: only place power-on samples are taken.  Direct hot-path instruments: one
#: attribute test while metrics stay disabled (docs/metrics.md).
_CAPTURES_TOTAL = metrics.counter(
    "repro_captures_total",
    "Power-on states sampled, by device",
    labelnames=("device",),
)
_CAPTURE_CELLS_TOTAL = metrics.counter(
    "repro_capture_cells_total",
    "Cells evaluated across all power-on captures",
)


def check_capture_count(n_captures) -> int:
    """The capture-count rule every capture entry point shares: a
    positive integer (``bool`` is rejected, not read as 0/1)."""
    if not isinstance(n_captures, (int, np.integer)) or isinstance(
        n_captures, bool
    ):
        raise ConfigurationError(
            f"n_captures must be an integer, got {n_captures!r}"
        )
    if n_captures < 1:
        raise ConfigurationError(f"need at least one capture, got {n_captures}")
    return int(n_captures)


def _locked_shift(nbti, stress_seconds: np.ndarray) -> np.ndarray:
    """``k * t^n`` with zero-stress cells skipped.

    Elementwise-identical to ``nbti.dvth_unrecovered``: nonzero entries go
    through the same ``np.power`` call and scale, zero entries are exactly
    ``k * 0**n == 0.0``.  Skipping the zeros matters because the libm
    ``pow`` slow path for a zero base costs ~4x the finite-base path, and
    freshly staged banks are half zeros per inverter.
    """
    nz = np.flatnonzero(stress_seconds)
    if nz.size == stress_seconds.size:
        return nbti.k_scale * np.power(stress_seconds, nbti.time_exponent)
    full = np.zeros_like(stress_seconds)
    if nz.size:
        full[nz] = nbti.k_scale * np.power(
            stress_seconds[nz], nbti.time_exponent
        )
    return full


def _recovered_fraction(nbti, relax_seconds: np.ndarray):
    """``min(c * log1p(r/tau), ceiling)``; uniform clocks take a scalar.

    After a tray-wide stress every relax clock in a state is the same
    value, so one ``log1p`` stands in for the full-array pass — the
    subsequent broadcast multiplies are the same double operations the
    elementwise form performs.
    """
    lo = relax_seconds.min()
    if lo == relax_seconds.max():
        return np.minimum(
            nbti.rec_log_coeff * np.log1p(lo / nbti.rec_tau_s),
            nbti.rec_ceiling,
        )
    return np.minimum(
        nbti.rec_log_coeff * np.log1p(relax_seconds / nbti.rec_tau_s),
        nbti.rec_ceiling,
    )


class _Segment(NamedTuple):
    """Consecutive captures of one burst that share a capture cache."""

    cache: dict
    sigma: float
    nbti: object
    pend1: list
    pend0: list


#: Band cells per kernel chunk.  Segments sharing a capture count and the
#: NBTI recovery constants are concatenated up to this many cells and
#: evaluated one row per capture index across the chunk: a tray of small
#: noise bands costs a handful of numpy calls instead of a handful per
#: slot, while each row's temporaries (a few 128 KiB doubles) stay in
#: cache.  A segment larger than the budget is a chunk of its own and is
#: read straight from its cache.
KERNEL_CHUNK_CELLS = 1 << 14


def _kernel_chunks(segments: "list[_Segment]") -> "list[list[int]]":
    """Segment indices grouped into kernel chunks (see
    :data:`KERNEL_CHUNK_CELLS`).  Every array has its own NBTI model, so
    recovery constants are compared by value."""
    groups: "dict[tuple, list[int]]" = {}
    for index, seg in enumerate(segments):
        nbti = seg.nbti
        key = (len(seg.pend1), nbti.rec_tau_s, nbti.rec_log_coeff, nbti.rec_ceiling)
        groups.setdefault(key, []).append(index)
    chunks = []
    for members in groups.values():
        chunk: "list[int]" = []
        cells = 0
        for index in members:
            size = segments[index].cache["band"].size
            if chunk and cells + size > KERNEL_CHUNK_CELLS:
                chunks.append(chunk)
                chunk, cells = [], 0
            chunk.append(index)
            cells += size
        chunks.append(chunk)
    return chunks


def _joined(arrays: "list[np.ndarray]", axis: int = 0) -> np.ndarray:
    """One segment's array as is; several concatenated."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays, axis=axis)


def _relax_values(cache: dict, r_key: str) -> "tuple[np.ndarray, np.ndarray]":
    """``(values, index)`` with ``values[index]`` equal to the band's relax
    clocks ``cache[r_key]``.

    Relax clocks take few distinct values (a shared stress period leaves
    two), so from a cache's second burst on ``values`` are the distinct
    clocks — ``np.unique``, memoised on the cache — and ``log1p`` runs
    once per value.  A cache's first burst uses the clocks as they are:
    a one-shot cache (a device read once) never pays for the sort.
    """
    key = r_key + "_unique"
    if key not in cache:  # first burst
        cache[key] = None
        return cache[r_key], np.arange(cache[r_key].size)
    if cache[key] is None:  # second burst
        cache[key] = np.unique(cache[r_key], return_inverse=True)
    return cache[key]


def _unrecovered_table(segs: "list[_Segment]", pend_key: str, r_key: str):
    """The chunk's unrecovered shares ``1 - min(c * log1p(r / tau),
    ceiling)`` as ``(table, index)``: row ``i`` of ``table[:, index]`` is
    capture ``i``'s value for every band cell, evaluated per distinct
    relax clock (:func:`_relax_values`) — the same doubles elementwise
    evaluation gives.
    """
    nbti = segs[0].nbti
    memos = [_relax_values(seg.cache, r_key) for seg in segs]
    pends = np.array([getattr(seg, pend_key) for seg in segs]).T
    if len(segs) == 1:
        u, index = memos[0]
    else:
        sizes = [u.size for u, _ in memos]
        u = np.concatenate([u for u, _ in memos])
        starts = np.cumsum([0] + sizes[:-1])
        index = np.concatenate([inv + start for (_, inv), start in zip(memos, starts)])
        pends = np.repeat(pends, sizes, axis=1)
    recovered = np.minimum(
        nbti.rec_log_coeff * np.log1p((u[None, :] + pends) / nbti.rec_tau_s),
        nbti.rec_ceiling,
    )
    return 1.0 - recovered, index


def _chunk_decisions(
    segs: "list[_Segment]", blocks: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """Decide one chunk: one row per capture index across all its cells."""
    caches = [seg.cache for seg in segs]
    sizes = [cache["band"].size for cache in caches]
    mismatch = _joined([cache["mismatch_b"] for cache in caches])
    full0 = _joined([cache["full0_b"] for cache in caches])
    full1 = _joined([cache["full1_b"] for cache in caches])
    sigma = (
        segs[0].sigma
        if len(segs) == 1
        else np.repeat([seg.sigma for seg in segs], sizes)
    )
    noise = sigma * _joined(blocks, axis=1)
    keep1, index1 = _unrecovered_table(segs, "pend1", "r1_b")
    keep0, index0 = _unrecovered_table(segs, "pend0", "r0_b")
    out = np.empty(noise.shape, dtype=bool)
    for row0, row1, z, dec in zip(keep0, keep1, noise, out):
        offs = mismatch + full0 * row0[index0] - full1 * row1[index1]
        np.greater(offs + z, 0.0, out=dec)
    if len(segs) == 1:
        return [out]
    bounds = np.cumsum([0] + sizes)
    return [out[:, a:b].copy() for a, b in zip(bounds[:-1], bounds[1:])]


def stacked_band_decisions(
    segments: "list[_Segment]", noise: "list[np.ndarray]"
) -> "list[np.ndarray]":
    """The capture kernel: noise-band power-on decisions for every segment.

    ``noise[i]`` is segment ``i``'s ``(captures, band)`` block and the
    result's ``i``-th entry is its contiguous ``(captures, band)`` decision
    block.  Each band cell's offset is re-evaluated at that capture's
    relax time with the same operation tree :meth:`SRAMArray.offsets`
    uses, and the cell powers on to 1 when ``offset + sigma * noise > 0``.
    Segments are concatenated into chunks (:data:`KERNEL_CHUNK_CELLS`) and
    each chunk is evaluated one row per capture index, so segments of any
    number of arrays evaluate in a few numpy calls; this is the only code
    in the package that turns analog state into power-on bits.
    """
    decisions: "list[np.ndarray | None]" = [None] * len(segments)
    for chunk in _kernel_chunks(segments):
        blocks = _chunk_decisions(
            [segments[i] for i in chunk], [noise[i] for i in chunk]
        )
        for i, block in zip(chunk, blocks):
            decisions[i] = block
    return decisions


@dataclass
class CaptureBurst:
    """One array's planned burst of ``n_captures`` power-on samples.

    Built by :meth:`SRAMArray._plan_burst` (which has already advanced
    the array's relax clocks through the burst) and filled by
    :func:`run_bursts`; then :meth:`frames` or :meth:`majority` read it.
    """

    array: "SRAMArray"
    n_captures: int
    segments: "list[_Segment]"
    decisions: "list[np.ndarray] | None" = None

    def frames(self, out: "np.ndarray | None" = None) -> np.ndarray:
        """The ``(n_captures, n_bits)`` capture stack."""
        if out is None:
            out = np.empty((self.n_captures, self.array.n_bits), dtype=np.uint8)
        rows = iter(out)
        for seg, dec in zip(self.segments, self.decisions):
            for row_dec, row in zip(dec, rows):  # dec first: zip stops on it
                row[...] = seg.cache["decision_base"]
                row[seg.cache["band"]] = row_dec
        return out

    def majority(self) -> np.ndarray:
        """The majority-voted state, without materialising the frames
        when one cache covers the whole burst."""
        if len(self.segments) > 1:
            return majority_vote(self.frames())
        seg, dec = self.segments[0], self.decisions[0]
        state = seg.cache["decision_base"].copy()
        votes = dec.sum(axis=0, dtype=np.int64)
        state[seg.cache["band"]] = 2 * votes >= self.n_captures
        return state


def run_bursts(bursts: "list[CaptureBurst]") -> None:
    """Draw every burst's noise, decide all of them in one kernel call,
    and account the captures.

    Each array's noise comes from its own generator, one block per segment
    in capture order — the stream per-capture draws would consume — so
    results do not depend on which other arrays share the call.
    """
    segments = [seg for burst in bursts for seg in burst.segments]
    noise = [
        burst.array._rng.standard_normal((len(seg.pend1), seg.cache["band"].size))
        for burst in bursts
        for seg in burst.segments
    ]
    decisions = iter(stacked_band_decisions(segments, noise))
    span = telemetry.current_span()
    for burst in bursts:
        burst.decisions = [next(decisions) for _ in burst.segments]
        array, n = burst.array, burst.n_captures
        band_cells = sum(len(s.pend1) * s.cache["band"].size for s in burst.segments)
        array.capture_stats["captures"] += n
        array.capture_stats["band_cells"] += band_cells
        span.count("sram.captures", n)
        span.count("sram.band_cells", band_cells)
        _CAPTURES_TOTAL.inc(n, device=array.technology.name)
        _CAPTURE_CELLS_TOTAL.inc(n * array.n_bits)


class SRAMArray:
    """A bank of simulated 6T cells.

    Parameters
    ----------
    n_bits:
        Number of cells.
    technology:
        The :class:`TechnologyProfile` describing the cells' physics.
    rng:
        Seed or generator for process variation and power-up noise.
    row_width:
        Physical row width in cells; defines the 2-D die layout used for
        spatially correlated variation and Moran's I analysis.
    """

    #: Power-up noise is evaluated only for cells within this many noise
    #: sigmas of the decision threshold; everything further out powers on to
    #: the sign of its offset (tail probability ~6e-16 per cell per capture).
    NOISE_TAIL_SIGMA = 8.0

    #: Fraction of the current noise sigma that out-of-band offsets may
    #: drift (through deferred shelf-time recovery) before the capture cache
    #: is refreshed.  With the 8-sigma band this leaves a >7-sigma guard.
    OFFSET_DRIFT_BUDGET = 0.5

    def __init__(
        self,
        n_bits: int,
        technology: TechnologyProfile,
        *,
        rng: "int | np.random.Generator | None" = None,
        row_width: int = 256,
    ):
        if n_bits <= 0:
            raise ConfigurationError(f"n_bits must be positive, got {n_bits}")
        if row_width <= 0:
            raise ConfigurationError(f"row_width must be positive, got {row_width}")
        from ..physics.variation import sample_mismatch

        self._rng = make_rng(rng)
        self.technology = technology
        self.n_bits = int(n_bits)
        self.row_width = int(row_width)

        self.mismatch = sample_mismatch(
            n_bits,
            row_width=row_width,
            correlated_share=technology.correlated_share,
            coarse_tile=technology.coarse_tile,
            rng=self._rng,
        ).astype(np.float64)

        self._nbti = technology.nbti_model()
        self._accel = technology.acceleration_model()
        self._hci = HCIModel()
        self._remanence = RemanenceModel(
            technology.remanence_tau_s, temp_nominal_k=technology.temp_nominal_k
        )

        #: Aging accrued while the cell held 1 / held 0.
        self.age_when_1 = NBTIState.fresh(n_bits)
        self.age_when_0 = NBTIState.fresh(n_bits)

        self.powered = False
        self.vdd: float | None = None
        self.temp_k = technology.temp_nominal_k
        self.toggle_count = 0.0

        self._data: np.ndarray | None = None
        self._retained: np.ndarray | None = None
        self._off_seconds = 0.0

        #: Bumped on every stress event; both caches key on it.
        self._aging_epoch = 0
        self._offsets_cache: "tuple | None" = None
        self._capture_cache: "dict | None" = None

        #: Always-on counters of this array's engine work (the same values
        #: the engine adds to the enclosing span as ``sram.*``): power-on
        #: samples taken, noise-band cells evaluated, cache rebuilds.
        self.capture_stats = {"captures": 0, "band_cells": 0, "cache_refreshes": 0}

    # -- construction helpers --------------------------------------------------

    @classmethod
    def from_kib(
        cls,
        kib: float,
        technology: TechnologyProfile,
        *,
        rng: "int | np.random.Generator | None" = None,
        row_width: int = 256,
    ) -> "SRAMArray":
        """An array of ``kib`` KiB (8192 cells per KiB)."""
        return cls(int(kib * 8192), technology, rng=rng, row_width=row_width)

    @property
    def n_bytes(self) -> int:
        """Capacity in bytes."""
        return self.n_bits // 8

    # -- environment -----------------------------------------------------------

    def set_ambient(self, temp_k: float) -> None:
        """Set the ambient temperature (the thermal chamber knob).

        The new temperature is validated against the *live* operating point:
        a powered array at stress Vdd gets the (derated) envelope for that
        supply, not the nominal-supply envelope.
        """
        vdd = self.vdd if self.powered else self.technology.vdd_nominal
        self.technology.check_operating_point(vdd, temp_k)
        self.temp_k = float(temp_k)

    def set_voltage(self, vdd: float) -> None:
        """Change the supply voltage while powered (the supply knob)."""
        self._require_power()
        self.technology.check_operating_point(vdd, self.temp_k)
        self.vdd = float(vdd)

    # -- power events ------------------------------------------------------------

    def apply_power(
        self, vdd: "float | None" = None, *, sample: bool = True
    ) -> "np.ndarray | None":
        """Power the array up and return a copy of its power-on state.

        The state is a one-capture burst of the capture engine.  Cells
        whose charge survived the power gap (see :class:`RemanenceModel`)
        return their previous value instead of the true power-on state —
        the effect the paper's harness eliminates by draining the rail.

        ``sample=False`` (payload staging, which overwrites every cell)
        draws nothing and returns ``None``; the contents start at the
        noise-free decision ``offsets() > 0`` that writes count toggles
        against.
        """
        if self.powered:
            raise PowerError("array is already powered")
        vdd = self.technology.vdd_nominal if vdd is None else float(vdd)
        if sample:
            burst = self._plan_burst(1, 0.0, vdd, gap_first=False)
            run_bursts([burst])
            state = burst.frames()[0]
            if self._retained is not None:
                keep = self._remanence.retained_mask(
                    self.n_bits, self._off_seconds, self.temp_k, self._rng
                )
                state[keep] = self._retained[keep]
        else:
            self.technology.check_operating_point(vdd, self.temp_k)
            state = (self._exact_offsets() > 0.0).astype(np.uint8)
        self._retained = None
        self._off_seconds = 0.0

        self.powered = True
        self.vdd = vdd
        self._data = state
        return state.copy() if sample else None

    def remove_power(self, *, drain: bool = True) -> None:
        """Cut power.  ``drain=True`` pulls the rail to ground, destroying
        remanence (the paper's measurement discipline, §5)."""
        self._require_power()
        self._retained = None if drain else self._data.copy()
        self._off_seconds = 0.0
        self.powered = False
        self.vdd = None
        self._data = None

    def power_cycle(
        self,
        *,
        off_seconds: float = 1.0,
        drain: bool = True,
        vdd: "float | None" = None,
    ) -> np.ndarray:
        """Cut power, wait ``off_seconds``, reapply, return the power-on
        state.  The off time counts as shelf time for aging recovery."""
        if self.powered:
            self.remove_power(drain=drain)
        self.shelve(off_seconds)
        return self.apply_power(vdd)

    def capture_power_on_states(
        self,
        n_captures: int,
        *,
        off_seconds: float = 1.0,
        drain: bool = True,
    ) -> np.ndarray:
        """Capture ``n_captures`` successive power-on states (§4.3's
        sampling loop); returns shape ``(n_captures, n_bits)``.

        Bit-identical to calling :meth:`power_cycle` ``n_captures`` times.
        Drained captures are one engine burst.  Undrained captures (and a
        first capture that can still see remanence) are sequenced one
        :meth:`power_cycle` at a time, because the retained-cell masks
        interleave with the noise stream.
        """
        n_captures = check_capture_count(n_captures)
        with telemetry.trace(
            "sram.capture",
            n_bits=self.n_bits,
            n_captures=n_captures,
            drain=drain,
        ):
            samples = np.empty((n_captures, self.n_bits), dtype=np.uint8)
            start = 0
            if not drain or self._retained is not None:
                start = n_captures if not drain else 1
                for i in range(start):
                    samples[i] = self.power_cycle(
                        off_seconds=off_seconds, drain=drain
                    )
            if start < n_captures:
                if self.powered:
                    self.remove_power(drain=True)
                vdd = self.technology.vdd_nominal
                burst = self._plan_burst(
                    n_captures - start, off_seconds, vdd, gap_first=True
                )
                run_bursts([burst])
                burst.frames(out=samples[start:])
                self.powered = True
                self.vdd = vdd
                self._data = samples[-1].copy()
            return samples

    # -- memory operations ----------------------------------------------------

    def write(self, bits: "np.ndarray | bytes", bit_offset: int = 0) -> None:
        """Store ``bits`` starting at ``bit_offset`` (digital write)."""
        self._require_power()
        bits = as_bit_array(bits)
        if bit_offset < 0 or bit_offset + bits.size > self.n_bits:
            raise ConfigurationError(
                f"write of {bits.size} bits at offset {bit_offset} exceeds "
                f"array size {self.n_bits}"
            )
        region = self._data[bit_offset : bit_offset + bits.size]
        self.toggle_count += float(np.count_nonzero(region != bits))
        region[...] = bits

    def fill(self, value: int) -> None:
        """Write a single logic value to every cell (the §5.1.2 workload)."""
        if value not in (0, 1):
            raise ConfigurationError(f"fill value must be 0 or 1, got {value}")
        self._require_power()
        self.toggle_count += float(np.count_nonzero(self._data != value))
        self._data[...] = value

    def read(self, n_bits: "int | None" = None, bit_offset: int = 0) -> np.ndarray:
        """Read stored bits (digital read; never disturbs the analog state)."""
        self._require_power()
        n_bits = self.n_bits - bit_offset if n_bits is None else n_bits
        if bit_offset < 0 or n_bits < 0 or bit_offset + n_bits > self.n_bits:
            raise ConfigurationError(
                f"read of {n_bits} bits at offset {bit_offset} exceeds "
                f"array size {self.n_bits}"
            )
        return self._data[bit_offset : bit_offset + n_bits].copy()

    # -- the passage of time ----------------------------------------------------

    def hold(self, seconds: float) -> None:
        """Remain powered, holding the current contents, for ``seconds``.

        This is the encoding primitive: the active inverter of every cell
        accrues NBTI stress at the current (Vdd, T) acceleration factor while
        the inactive inverter's recovery clock runs.
        """
        self._require_power()
        if seconds < 0:
            raise ConfigurationError(f"negative duration: {seconds}")
        if seconds == 0:
            return
        self.technology.check_operating_point(self.vdd, self.temp_k)
        af = self._accel.factor(self.vdd, self.temp_k)
        with telemetry.trace(
            "physics.stress",
            seconds=seconds,
            vdd=self.vdd,
            temp_k=self.temp_k,
            acceleration=af,
        ) as span:
            holding_1 = self._data.astype(np.float64)
            holding_0 = 1.0 - holding_1
            self._nbti.stress(self.age_when_1, af * seconds * holding_1)
            self._nbti.stress(self.age_when_0, af * seconds * holding_0)
            self._nbti.relax(self.age_when_1, seconds * holding_0)
            self._nbti.relax(self.age_when_0, seconds * holding_1)
            span.count("physics.stress_seconds_equivalent", af * seconds)
        self._bump_aging_epoch()

    def shelve(self, seconds: float) -> None:
        """Remain unpowered for ``seconds``: both inverters recover and any
        undrained remanence decays.

        The recovery increment is uniform across cells, so it is deferred as
        a scalar (O(1)) and folded into the per-cell clocks on demand.
        """
        if self.powered:
            raise PowerError("cannot shelve a powered array")
        if seconds < 0:
            raise ConfigurationError(f"negative duration: {seconds}")
        if seconds == 0:
            return
        self._nbti.relax_uniform(self.age_when_1, seconds)
        self._nbti.relax_uniform(self.age_when_0, seconds)
        if telemetry.active():
            telemetry.count("physics.relax_seconds", seconds)
        if self._retained is not None:
            self._off_seconds += seconds

    def operate(
        self,
        seconds: float,
        *,
        duty: float = 0.5,
        writes_per_second: float = 1e6,
    ) -> None:
        """Run a general-purpose write workload for ``seconds`` (§5.1.4).

        Each cell alternates values on sub-millisecond scales, so each
        inverter sees duty-scaled AC stress (no recovery re-lock) while its
        recovery clock advances only during the fraction of time it is
        unbiased.  The net effect — about half the natural-recovery rate plus
        negligible counter-stress — reproduces the paper's ~1.2x-per-week
        versus ~1.4x-per-week observation.
        """
        self._require_power()
        if seconds < 0:
            raise ConfigurationError(f"negative duration: {seconds}")
        if not 0.0 <= duty <= 1.0:
            raise ConfigurationError(f"duty must be in [0, 1], got {duty}")
        if seconds == 0:
            return
        self.technology.check_operating_point(self.vdd, self.temp_k)
        af = self._accel.factor(self.vdd, self.temp_k)
        with telemetry.trace(
            "physics.operate", seconds=seconds, duty=duty, acceleration=af
        ) as span:
            self._nbti.stress_ac(self.age_when_1, af * seconds * duty)
            self._nbti.stress_ac(self.age_when_0, af * seconds * duty)
            self._nbti.relax(self.age_when_1, seconds * (1.0 - duty))
            self._nbti.relax(self.age_when_0, seconds * (1.0 - duty))
            span.count("physics.ac_stress_seconds_equivalent", af * seconds * duty)
        # Cells toggle only while the workload is actually writing them.
        self.toggle_count += writes_per_second * seconds * duty
        self._bump_aging_epoch()
        # Contents after a random workload are whatever was last written;
        # callers that care write explicitly afterwards.

    # -- observables --------------------------------------------------------------

    def offsets(self) -> np.ndarray:
        """Noise-free effective offsets: positive means the cell prefers to
        power on to 1.  Diagnostic view of the analog domain.

        Memoised: recomputed only after aging state changes (stress, shelf
        time, external mutation); otherwise returns a copy of the cached
        vector.
        """
        return self._exact_offsets().copy()

    def grid_shape(self) -> tuple[int, int]:
        """Die layout ``(rows, row_width)`` used for spatial statistics."""
        return (-(-self.n_bits // self.row_width), self.row_width)

    # -- cache management ---------------------------------------------------------

    def invalidate_analog_caches(self) -> None:
        """Drop the offsets and capture caches.

        Required after mutating ``mismatch``, ``age_when_1``/``age_when_0``
        or ``toggle_count`` directly (e.g. restoring a snapshot); the
        array's own mutators invalidate automatically.
        """
        self._bump_aging_epoch()

    def _bump_aging_epoch(self) -> None:
        self._aging_epoch += 1
        self._offsets_cache = None
        self._capture_cache = None

    def _aging_key(self) -> tuple:
        st1, st0 = self.age_when_1, self.age_when_0
        return (
            self._aging_epoch,
            st1.pending_relax,
            st0.pending_relax,
            st1.flushes,
            st0.flushes,
        )

    def _exact_offsets(self) -> np.ndarray:
        """The offsets vector, memoised; callers must not mutate it."""
        cached = self._offsets_cache
        if cached is None or cached[0] != self._aging_key():
            self._refresh_capture_cache(self._effective_noise_sigma())
        return self._offsets_cache[1]

    def _effective_noise_sigma(self) -> float:
        sigma = self._hci.noise_widening(
            self.toggle_count, self.technology.noise_sigma
        )
        # Power-up noise is thermal: sigma scales as sqrt(T/Tnom), so a cold
        # capture is slightly cleaner and a hot one slightly noisier.
        return sigma * float(np.sqrt(self.temp_k / self.technology.temp_nominal_k))

    def _refresh_capture_cache(self, sigma: float) -> dict:
        """Rebuild the capture cache (and the offsets memo) at the current,
        flushed aging state — the package's one cache builder.

        The power-law magnitude ``k * t^n`` is evaluated once per inverter
        and shared between the offsets and the locked-in values — the same
        composition :meth:`NBTIModel.dvth` uses — zero-stress cells skip
        the ``t^n`` ufunc (``0**n == 0`` exactly), and uniform relax clocks
        collapse the recovered fraction to one scalar; every double equals
        the ``nbti.dvth`` form (tests/sram/test_fleet_capture.py pins it
        against :func:`repro.verify.reference.reference_capture_cache`).
        """
        st1, st0 = self.age_when_1, self.age_when_0
        st1.flush_relax()
        st0.flush_relax()
        nbti = self._nbti
        full1 = _locked_shift(nbti, st1.stress_seconds)
        full0 = _locked_shift(nbti, st0.stress_seconds)
        offs = (
            self.mismatch
            + full0 * (1.0 - _recovered_fraction(nbti, st0.relax_seconds))
            - full1 * (1.0 - _recovered_fraction(nbti, st1.relax_seconds))
        )
        self._offsets_cache = (self._aging_key(), offs)
        band = np.flatnonzero(np.abs(offs) < self.NOISE_TAIL_SIGMA * sigma)
        self._capture_cache = {
            "aging_epoch": self._aging_epoch,
            "flushes": (st1.flushes, st0.flushes),
            "sigma_ref": sigma,
            "decision_base": (offs > 0.0).astype(np.uint8),
            "band": band,
            "mismatch_b": self.mismatch[band],
            "full1_b": full1[band],
            "full0_b": full0[band],
            "r1_b": st1.relax_seconds[band],
            "r0_b": st0.relax_seconds[band],
            "r1_min": float(st1.relax_seconds.min()),
            "r0_min": float(st0.relax_seconds.min()),
            "full_max": float(full1.max()) + float(full0.max()),
        }
        self.capture_stats["cache_refreshes"] += 1
        telemetry.current_span().count("sram.cache_refreshes", 1)
        return self._capture_cache

    def _capture_cache_valid(self, cache: "dict | None", sigma: float) -> bool:
        """True when sampling may keep using ``cache``.

        The cache was built at some flushed relax state; shelf time since
        then only *adds* recovery.  The recovery increment ``c*(log1p((r+p)/
        tau) - log1p(r/tau))`` is monotonically decreasing in ``r``, so the
        worst-case out-of-band offset drift is bounded by the least-relaxed
        cell's increment times the largest power-law magnitudes.  While that
        bound stays under ``OFFSET_DRIFT_BUDGET`` noise sigmas, out-of-band
        decisions cannot change (>7-sigma guard) and in-band cells — which
        are recomputed exactly every capture — need no refresh either.
        """
        if cache is None or cache["aging_epoch"] != self._aging_epoch:
            return False
        st1, st0 = self.age_when_1, self.age_when_0
        if (st1.flushes, st0.flushes) != cache["flushes"]:
            return False
        if sigma > cache["sigma_ref"] * (1.0 + 1e-12):
            return False
        if cache["full_max"] == 0.0:
            return True  # unstressed cells have nothing to recover
        nbti = self._nbti
        tau = nbti.rec_tau_s
        d1 = math.log1p((cache["r1_min"] + st1.pending_relax) / tau) - math.log1p(
            cache["r1_min"] / tau
        )
        d0 = math.log1p((cache["r0_min"] + st0.pending_relax) / tau) - math.log1p(
            cache["r0_min"] / tau
        )
        drift = nbti.rec_log_coeff * cache["full_max"] * max(d1, d0)
        return drift <= self.OFFSET_DRIFT_BUDGET * sigma

    # -- the capture engine (module docstring) ----------------------------------

    def _plan_burst(
        self, n_captures: int, off_seconds: float, vdd: float, *, gap_first: bool
    ) -> CaptureBurst:
        """Plan ``n_captures`` drained power-ups ``off_seconds`` apart.

        Advances both recovery clocks through the burst — a deferred gap
        before each capture (``gap_first``, the :meth:`power_cycle` order)
        or after each (the control board's order) — records the deferred
        relax each capture sees, and refreshes the capture cache where the
        per-capture loop would.  Captures sharing one cache form a segment.
        """
        self.technology.check_operating_point(vdd, self.temp_k)
        sigma = self._effective_noise_sigma()
        st1, st0 = self.age_when_1, self.age_when_0
        nbti = self._nbti
        off = float(off_seconds)
        lead, trail = (off, 0.0) if gap_first else (0.0, off)
        segments: "list[_Segment]" = []
        for _ in range(n_captures):
            nbti.relax_uniform(st1, lead)
            nbti.relax_uniform(st0, lead)
            cache = self._capture_cache
            if not self._capture_cache_valid(cache, sigma):
                cache = self._refresh_capture_cache(sigma)
            if not segments or segments[-1].cache is not cache:
                segments.append(_Segment(cache, sigma, nbti, [], []))
            segments[-1].pend1.append(st1.pending_relax)
            segments[-1].pend0.append(st0.pending_relax)
            nbti.relax_uniform(st1, trail)
            nbti.relax_uniform(st0, trail)
        if off and telemetry.active():
            telemetry.count("physics.relax_seconds", n_captures * off)
        return CaptureBurst(self, n_captures, segments)

    def plan_fleet_capture(
        self,
        n_captures: int,
        off_seconds: float = 1.0,
        *,
        vdd: "float | None" = None,
    ) -> "CaptureBurst | None":
        """Plan this array's burst in the control board's order (capture,
        then ``off_seconds`` unpowered) for :func:`run_bursts`.

        Returns ``None`` when the array is powered or remanence could
        reach the first capture; the caller then sequences power-ups one
        at a time.
        """
        n_captures = check_capture_count(n_captures)
        if self.powered or self._retained is not None:
            return None
        vdd = self.technology.vdd_nominal if vdd is None else float(vdd)
        return self._plan_burst(n_captures, off_seconds, vdd, gap_first=False)

    def _require_power(self) -> None:
        if not self.powered:
            raise PowerError("array is not powered")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "on" if self.powered else "off"
        return (
            f"SRAMArray({self.n_bits} bits, {self.technology.name}, power {state})"
        )
