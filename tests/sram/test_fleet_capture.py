"""SRAMArray's capture-engine surface: the one cache builder and the
burst plan.

The cache builder (`_refresh_capture_cache`) shares the `k * t^n`
power-law between the offsets and the locked-in magnitudes, skips
zero-stress cells, and collapses uniform relax clocks to a scalar
`log1p` — all transformations that must leave every cached double
bit-identical to the direct `nbti.dvth` build kept in
`repro.verify.reference`.  Bursts must equal that module's scalar
per-capture loop, frames and analog trajectory alike.
"""

import numpy as np
import pytest

from repro.device.catalog import device_spec
from repro.errors import ConfigurationError
from repro.sram import SRAMArray
from repro.units import days, hours
from repro.verify.reference import ReferenceSampler, reference_capture_cache


def _aged(seed, kib=0.25, stress_h=4.0, mixed_relax=False):
    tech = device_spec("MSP432P401").technology
    arr = SRAMArray.from_kib(kib, tech, rng=seed)
    arr.apply_power()
    payload = (
        np.random.default_rng(seed + 1)
        .integers(0, 2, arr.n_bits)
        .astype(np.uint8)
    )
    arr.write(payload)
    arr.set_voltage(min(3.0, tech.vdd_abs_max))
    arr.hold(hours(stress_h))
    if mixed_relax:
        # A second stress segment with the inverse payload gives both
        # inverters non-uniform relax clocks.
        arr.write((1 - payload).astype(np.uint8))
        arr.hold(hours(stress_h / 2))
    arr.remove_power()
    return arr


@pytest.mark.parametrize("mixed_relax", [False, True])
@pytest.mark.parametrize("seed", [0, 7])
def test_fleet_refresh_is_bit_identical_to_reference(seed, mixed_relax):
    a = _aged(seed, mixed_relax=mixed_relax)
    b = _aged(seed, mixed_relax=mixed_relax)
    sigma = a._effective_noise_sigma()
    ref = reference_capture_cache(a, sigma)
    fast = b._refresh_capture_cache(sigma)
    assert set(ref) == set(fast)
    for key in ref:
        left, right = ref[key], fast[key]
        if isinstance(left, np.ndarray):
            assert np.array_equal(left, right), key
        else:
            assert left == right, key
    nbti = a._nbti
    direct = a.mismatch + nbti.dvth(a.age_when_0) - nbti.dvth(a.age_when_1)
    assert np.array_equal(b.offsets(), direct)


def test_plan_rejects_bad_counts_and_powered_arrays():
    arr = _aged(1)
    for bad in (0, -1, True, 2.0):
        with pytest.raises(ConfigurationError):
            arr.plan_fleet_capture(bad)
    arr.apply_power()
    assert arr.plan_fleet_capture(3) is None  # powered: the caller sequences it


def test_plan_trajectories_accumulate_like_the_loop():
    arr = _aged(2)
    p = arr.age_when_1.pending_relax
    burst = arr.plan_fleet_capture(5, off_seconds=1.0)
    assert burst is not None and len(burst.segments) == 1
    expected = []
    for _ in range(5):
        expected.append(p)
        p += 1.0
    assert burst.segments[0].pend1 == expected
    assert burst.segments[0].pend0 == expected
    # Planning has already advanced both clocks through the burst.
    assert arr.age_when_1.pending_relax == p


def test_commit_matches_loop_relax_and_stats():
    """A board-order burst leaves the same frames, relax clocks, flush
    counts and capture stats as the reference loop on a twin."""
    from repro.sram.array import run_bursts

    arr = _aged(3)
    twin = _aged(3)
    burst = arr.plan_fleet_capture(3)
    run_bursts([burst])
    frames = burst.frames()
    expected = []
    sampler = ReferenceSampler(twin)
    for _ in range(3):
        expected.append(sampler.power_on())
        twin.remove_power()
        twin.shelve(1.0)
    assert np.array_equal(frames, np.stack(expected))
    for st, ref in (
        (arr.age_when_1, twin.age_when_1),
        (arr.age_when_0, twin.age_when_0),
    ):
        assert st.pending_relax == ref.pending_relax
        assert st.flushes == ref.flushes
    assert arr.capture_stats == twin.capture_stats


def test_plan_splits_burst_exceeding_drift_budget():
    """A burst whose accumulated shelf relax exhausts the drift budget is
    split into cache segments at exactly the captures where the reference
    loop refreshes, and stays bit-identical to it."""
    from repro.sram.array import run_bursts

    arr = _aged(4)
    twin = _aged(4)
    giant_gap = days(10 * 365)
    burst = arr.plan_fleet_capture(3, off_seconds=giant_gap)
    assert len(burst.segments) > 1
    run_bursts([burst])
    expected = []
    sampler = ReferenceSampler(twin)
    for _ in range(3):
        expected.append(sampler.power_on())
        twin.remove_power()
        twin.shelve(giant_gap)
    assert np.array_equal(burst.frames(), np.stack(expected))
    assert arr.age_when_1.flushes == twin.age_when_1.flushes


def test_chunked_kernel_matches_each_slot_alone():
    """Bursts whose combined noise band exceeds the kernel's chunk budget
    (multi-slot chunks plus one slot larger than the budget) decide
    bit-identically to running each burst on its own, and every slot
    gets a contiguous decision block."""
    from repro.sram.array import KERNEL_CHUNK_CELLS, _kernel_chunks, run_bursts

    sizes = (1, 2, 4, 1, 2, 8)

    def tray():
        return [
            _aged(10 + i, kib=kib, mixed_relax=i % 2 == 1)
            for i, kib in enumerate(sizes)
        ]

    bursts = [arr.plan_fleet_capture(3) for arr in tray()]
    segments = [seg for burst in bursts for seg in burst.segments]
    bands = [seg.cache["band"].size for seg in segments]
    assert sum(bands) > KERNEL_CHUNK_CELLS
    assert max(bands) > KERNEL_CHUNK_CELLS
    chunks = _kernel_chunks(segments)
    assert len(chunks) > 2 and any(len(chunk) > 1 for chunk in chunks)
    run_bursts(bursts)
    for burst, twin in zip(bursts, tray()):
        alone = twin.plan_fleet_capture(3)
        run_bursts([alone])
        assert np.array_equal(burst.frames(), alone.frames())
        assert all(dec.flags.c_contiguous for dec in burst.decisions)
