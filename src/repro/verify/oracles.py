"""The oracle registry: every bit-identity contract as an executable check.

An *oracle* is a differential contract — two implementations, two code
paths, or a path and its closed-form reference — that must agree
bit-for-bit (or within a declared statistical tolerance).  Each one is a
plain function taking generated inputs, registered with
:func:`oracle`; the :class:`~repro.verify.runner.Runner` sweeps it over
seeded examples and shrinks any counterexample.

A *mutant* is the harness's own test: a seeded, known defect (a
single stuck bit injected through a :class:`~repro.faults.FaultPlan`, a
decoder that flips one bit, an off-by-one CTR counter) run through the
same contract.  A sound oracle must *catch* it — the mutation smoke mode
(:func:`repro.verify.suite.run_mutation_smoke`) asserts exactly that, so
a contract that silently stopped checking anything cannot stay green.

Heavy rigs (full device round-trips, fleets) declare a low per-oracle
example cap; light algebraic contracts run at the sweep's full budget.
All heavy imports are deferred to call time so importing the registry is
cheap and cycle-free.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import generators as g
from .runner import check_that

__all__ = [
    "Oracle",
    "all_oracles",
    "get_oracle",
    "mutant",
    "mutants_for",
    "oracle",
]

_DEVICE = "MSP432P401"
_KEY16 = b"0123456789abcdef"


@dataclass(frozen=True)
class Oracle:
    """One registered differential contract."""

    name: str
    fn: Callable
    gens: tuple
    doc: str
    examples: "int | None" = None  # per-oracle example cap (None = sweep budget)


_REGISTRY: "dict[str, Oracle]" = {}
_MUTANTS: "dict[str, dict[str, Callable]]" = {}


def oracle(name: str, *, gens, examples: "int | None" = None):
    """Register a differential contract under ``name``."""

    def decorate(fn: Callable) -> Callable:
        if name in _REGISTRY:
            raise ValueError(f"oracle {name!r} is already registered")
        doc = (fn.__doc__ or "").strip().splitlines()[0] if fn.__doc__ else ""
        _REGISTRY[name] = Oracle(
            name=name, fn=fn, gens=tuple(gens), doc=doc, examples=examples
        )
        return fn

    return decorate


def mutant(oracle_name: str, mutant_name: str):
    """Register a known defect that ``oracle_name``'s contract must catch.

    The decorated function receives an RNG, wires the defect into the
    contract's own comparison, and re-runs it; a sound harness raises
    :class:`~repro.verify.runner.ContractViolation` (detection).
    Returning silently means the oracle can no longer see a planted bug.
    """

    def decorate(fn: Callable) -> Callable:
        _MUTANTS.setdefault(oracle_name, {})[mutant_name] = fn
        return fn

    return decorate


def all_oracles() -> "list[Oracle]":
    return [_REGISTRY[name] for name in sorted(_REGISTRY)]


def get_oracle(name: str) -> Oracle:
    if name not in _REGISTRY:
        known = ", ".join(sorted(_REGISTRY))
        raise KeyError(f"unknown oracle {name!r}; known: {known}")
    return _REGISTRY[name]


def mutants_for(oracle_name: str) -> "dict[str, Callable]":
    return dict(_MUTANTS.get(oracle_name, {}))


def all_mutants() -> "list[tuple[str, str, Callable]]":
    return [
        (oracle_name, mutant_name, fn)
        for oracle_name in sorted(_MUTANTS)
        for mutant_name, fn in sorted(_MUTANTS[oracle_name].items())
    ]


# -- shared rigs -------------------------------------------------------------


def _aged_array(seed: int, kib: float, stress_h: float):
    """A deterministically aged, unpowered SRAM array (twin-safe)."""
    from ..device.catalog import device_spec
    from ..sram.array import SRAMArray
    from ..units import hours

    profile = device_spec(_DEVICE).technology
    array = SRAMArray.from_kib(kib, profile, rng=seed)
    array.apply_power()
    payload = (
        np.random.default_rng(seed + 1).integers(0, 2, array.n_bits).astype(np.uint8)
    )
    array.write(payload)
    array.set_voltage(min(3.0, profile.vdd_abs_max))
    array.hold(hours(stress_h))
    array.remove_power()
    return array


def _board(seed: int, kib: float = 0.5, fault_injector=None):
    from ..device.catalog import make_device
    from ..harness.controlboard import ControlBoard

    return ControlBoard(
        make_device(_DEVICE, rng=seed, sram_kib=kib),
        fault_injector=fault_injector,
    )


def _roundtrip(board, message: bytes, scheme):
    """Send + receive one message; returns (EncodeResult, DecodeResult)."""
    from ..core.pipeline import InvisibleBits

    channel = InvisibleBits(board, scheme=scheme, use_firmware=False)
    sent = channel.send(message, camouflage=False)
    return sent, channel.receive(expected_payload=sent.payload_bits)


def _paper_scheme(n_captures: int = 3):
    from ..core.scheme import CodingScheme
    from ..ecc.product import paper_end_to_end_code

    return CodingScheme(
        key=_KEY16, ecc=paper_end_to_end_code(3), n_captures=n_captures
    )


def _code_catalog() -> "dict[str, Callable]":
    """Every Code family by name, simplest first (shrink order)."""
    from ..ecc.base import IdentityCode
    from ..ecc.bch import BCHCode
    from ..ecc.hamming import hamming_3_1, hamming_7_4
    from ..ecc.interleave import BlockInterleaver
    from ..ecc.product import ConcatenatedCode, paper_end_to_end_code
    from ..ecc.repetition import RepetitionCode

    return {
        "identity": IdentityCode,
        "rep3-block": lambda: RepetitionCode(3),
        "rep5-bitwise": lambda: RepetitionCode(5, layout="bitwise"),
        "hamming31": hamming_3_1,
        "hamming74": hamming_7_4,
        "bch15t2": lambda: BCHCode(4, 2),
        "interleave3x7": lambda: BlockInterleaver(3, 7),
        "paper-x3": lambda: paper_end_to_end_code(3),
        "hamming+interleave": lambda: ConcatenatedCode(
            hamming_7_4(), BlockInterleaver(7, 3)
        ),
    }


#: Codes with minimum distance >= 3 (correct any single bit error).
_SINGLE_ERROR_CODES = (
    "rep3-block",
    "rep5-bitwise",
    "hamming31",
    "hamming74",
    "bch15t2",
    "paper-x3",
)

#: Single-stage codes for which the soft decoder provably collapses to
#: the hard decoder at saturated LLRs on *arbitrary* words.  Composites
#: are excluded by design: a repetition-combined stage hands the outer
#: Chase decoder non-uniform magnitudes, where beating the hard chain is
#: legitimate; BCH's bounded-distance decoder returns the received data
#: on failure blocks, which is not a maximum-likelihood baseline.  Those
#: paths are pinned on near-codewords inside ``ecc.soft_repetition``.
_SOFT_FLAT_CODES = (
    "identity",
    "rep3-block",
    "rep5-bitwise",
    "hamming31",
    "hamming74",
    "interleave3x7",
)


# -- capture / harness contracts ---------------------------------------------


@oracle(
    "capture.batch_vs_loop",
    gens=(
        g.seeds(),
        g.odd_integers(1, 5, name="n_captures"),
        g.sampled_from([0.25, 0.5], name="kib"),
        g.sampled_from([0.5, 2.0, 6.0], name="stress_h"),
    ),
    examples=6,
)
def capture_batch_vs_loop(seed, n_captures, kib, stress_h):
    """A capture-engine burst and a power_cycle loop of one-capture bursts
    both equal the scalar per-capture reference, bit for bit."""
    from .reference import ReferenceSampler

    batch = _aged_array(seed, kib, stress_h).capture_power_on_states(n_captures)
    looped = _aged_array(seed, kib, stress_h)
    loop = np.stack([looped.power_cycle() for _ in range(n_captures)])
    reference = ReferenceSampler(_aged_array(seed, kib, stress_h)).power_cycles(
        n_captures
    )
    for name, frames in (("burst", batch), ("power_cycle loop", loop)):
        check_that(
            np.array_equal(frames, reference),
            f"{name} diverged from the scalar reference on "
            f"{int(np.count_nonzero(frames != reference))} bits",
        )


def _fleet_rig(
    seed: int,
    n_devices: int,
    kib: float,
    stress_h: float,
    remanent_slot: "int | None" = None,
):
    """A staged-and-stressed tray, twin-safe: same seed -> same tray.

    ``remanent_slot`` (taken modulo the tray size) is left powered off
    without draining, with remanence still pending for its next power-up.
    """
    from ..device.catalog import make_device
    from ..harness.rack import EncodingRack

    devices = [
        make_device(_DEVICE, rng=seed + index, sram_kib=kib)
        for index in range(n_devices)
    ]
    rack = EncodingRack(devices, max_workers=1)
    rng = np.random.default_rng(seed + 99)
    payloads = [
        rng.integers(0, 2, board.device.sram.n_bits).astype(np.uint8)
        for board in rack.boards
    ]
    rack.stage_payloads(payloads)
    rack.stress_all(stress_hours=stress_h)
    if remanent_slot is not None:
        board = rack.boards[remanent_slot % n_devices]
        board.power_on_nominal()
        board.power_off(drain=False)
        board.device.advance(0.05)
    return rack, payloads


@oracle(
    "fleet.capture_vs_device_loop",
    gens=(
        g.seeds(),
        g.sampled_from([1, 2, 3], name="n_devices"),
        g.odd_integers(1, 5, name="n_captures"),
        g.sampled_from([0.25, 0.5], name="kib"),
        g.sampled_from([None, 0, 1], name="remanent_slot"),
    ),
    examples=4,
)
def fleet_capture_vs_device_loop(seed, n_devices, n_captures, kib, remanent_slot):
    """The fleet capture is bit-identical to the scalar reference measuring
    a twin tray board by board: frames, majority states, channel errors,
    AND the analog trajectory (pending relax, flush counts) — including a
    slot with remanence pending, which the board's loop sequences."""
    from ..bitutils import bit_error_rate, invert_bits, majority_vote
    from ..core.fleetcapture import capture_fleet
    from .reference import ReferenceSampler

    rack_a, payloads = _fleet_rig(seed, n_devices, kib, 2.0, remanent_slot)
    rack_b, _ = _fleet_rig(seed, n_devices, kib, 2.0, remanent_slot)

    fleet = capture_fleet(
        rack_a.boards, n_captures, payloads=payloads, return_frames=True
    )
    # Boards carrying a fault injector (e.g. the CI chaos sweep's ambient
    # REPRO_FAULT_PLAN) or pending remanence must opt out of the engine's
    # tray call; every other board must take it.  Bit-identity below
    # holds either way.
    expected = tuple(
        board.fault_injector is None and board.device.sram._retained is None
        for board in rack_b.boards
    )
    check_that(
        fleet.vectorized == expected,
        f"engine routing {fleet.vectorized} != opt-out map {expected}",
    )
    for index, board in enumerate(rack_b.boards):
        stack = ReferenceSampler(board.device.sram).board_captures(
            board, n_captures
        )
        diverged = int(np.count_nonzero(fleet.frames[index] != stack))
        check_that(
            diverged == 0,
            f"slot {index} fleet frames diverged from the reference "
            f"on {diverged} bits",
        )
        state = majority_vote(stack)
        check_that(
            np.array_equal(fleet.states[index], state),
            f"slot {index} majority state diverged",
        )
        error = bit_error_rate(payloads[index], invert_bits(state))
        check_that(
            fleet.errors[index] == error,
            f"slot {index} error {fleet.errors[index]} != reference {error}",
        )
        sram_a = rack_a.boards[index].device.sram
        sram_b = board.device.sram
        check_that(
            sram_a.age_when_1.pending_relax == sram_b.age_when_1.pending_relax
            and sram_a.age_when_0.pending_relax
            == sram_b.age_when_0.pending_relax,
            f"slot {index} pending relax diverged",
        )
        check_that(
            sram_a.age_when_1.flushes == sram_b.age_when_1.flushes
            and sram_a.age_when_0.flushes == sram_b.age_when_0.flushes,
            f"slot {index} flush counts diverged",
        )


@oracle(
    "fleet.worker_invariance",
    gens=(
        g.seeds(),
        g.sampled_from([2, 3], name="n_devices"),
        g.sampled_from([2, 3, 4], name="workers"),
    ),
    examples=3,
)
def fleet_worker_invariance(seed, n_devices, workers):
    """encode_fleet ranks identically for any worker count, including 1."""
    from ..core.batch import encode_fleet

    serial = encode_fleet(
        n_devices=n_devices, sram_kib=0.25, rng=seed, max_workers=1
    )
    pooled = encode_fleet(
        n_devices=n_devices, sram_kib=0.25, rng=seed, max_workers=workers
    )
    check_that(
        serial.winner.index == pooled.winner.index,
        f"winner changed with workers: {serial.winner.index} vs "
        f"{pooled.winner.index}",
    )
    check_that(
        serial.errors == pooled.errors,
        f"measured errors changed with workers: {serial.errors} vs "
        f"{pooled.errors}",
    )
    check_that(
        serial.scheme.name == pooled.scheme.name,
        f"planned scheme changed with workers: {serial.scheme.name} vs "
        f"{pooled.scheme.name}",
    )


# -- service durability contract ---------------------------------------------


def _soak_requests(generator, index):
    """The load generator's keyed (send, receive) pair for one message —
    the same ``soak-<seed>-<index>-<op>`` keys the CI smoke resumes with."""
    return generator._requests(index)


def _journaled_config(journal_dir, seed: int, *, shards: int = 2):
    from ..service import ServiceConfig

    return ServiceConfig(
        shards=shards,
        seed=seed,
        device_name=_DEVICE,
        sram_kib=0.25,
        journal_dir=str(journal_dir),
    )


@oracle(
    "service.crash_recovery",
    gens=(g.seeds(), g.sampled_from([4, 6], name="n_messages")),
    examples=1,
)
def service_crash_recovery(seed, n_messages):
    """Crash-restart-replay is bit-identical to an uninterrupted run:
    same fleet state digest, same receive results, no op lost or doubled.

    Run A soaks a journaled service to completion.  Run B soaks the same
    traffic, takes an explicit checkpoint mid-soak, is killed dead
    (``abort()`` — no drain, no final fsync) with the tail in flight,
    then a fresh service boots on the same journal directory and the
    whole soak is resubmitted under the same idempotency keys.  The
    recovered fleet must end in the same analog state and serve the same
    results as the twin that never crashed.
    """
    import asyncio
    import tempfile

    from ..service import FleetService, LoadGenerator, results_digest

    crash_at = n_messages // 2

    async def soak(service, generator, results):
        for index in range(n_messages):
            send, receive = _soak_requests(generator, index)
            await service.submit(send)
            results.append((await service.submit(receive)).to_dict())

    async def uninterrupted(journal_dir):
        service = FleetService(_journaled_config(journal_dir, seed))
        await service.start()
        generator = LoadGenerator(seed=seed, message_bytes=4, idempotency=True)
        results: "list[dict]" = []
        await soak(service, generator, results)
        await service.stop()
        return service.host.state_digest(), results

    async def crashed_then_recovered(journal_dir):
        service = FleetService(_journaled_config(journal_dir, seed))
        await service.start()
        generator = LoadGenerator(seed=seed, message_bytes=4, idempotency=True)
        # Phase 1 completes and is checkpointed; phase 2 is cut off with
        # ops at every stage — unadmitted, admitted, mid-execution.
        for index in range(crash_at):
            send, receive = _soak_requests(generator, index)
            await service.submit(send)
            await service.submit(receive)
        await service.checkpoint()

        async def one(index):
            send, receive = _soak_requests(generator, index)
            await service.submit(send)
            await service.submit(receive)

        tail = [
            asyncio.create_task(one(index))
            for index in range(crash_at, n_messages)
        ]
        # One scheduler pass: the tail is admitted/enqueued/mid-batch —
        # not done — when the plug is pulled.  The contract must hold
        # wherever the crash lands.
        await asyncio.sleep(0)
        await service.abort()
        for task in tail:
            task.cancel()
        await asyncio.gather(*tail, return_exceptions=True)

        revived = FleetService(_journaled_config(journal_dir, seed))
        await revived.start()
        results: "list[dict]" = []
        await soak(revived, generator, results)
        await revived.stop()
        return revived.host.state_digest(), results

    with tempfile.TemporaryDirectory() as tmp_a:
        state_a, results_a = asyncio.run(uninterrupted(tmp_a))
    with tempfile.TemporaryDirectory() as tmp_b:
        state_b, results_b = asyncio.run(crashed_then_recovered(tmp_b))

    check_that(
        state_a == state_b,
        f"recovered fleet state digest {state_b} diverged from the "
        f"uninterrupted run's {state_a}",
    )
    # results_digest already excludes the ``shard`` field — provenance,
    # not physics: a crash-window op replays on the recovery lane while
    # the uninterrupted twin ran on its home shard.
    digest_a = results_digest(results_a)
    digest_b = results_digest(results_b)
    check_that(
        digest_a == digest_b,
        f"recovered results digest {digest_b} diverged from the "
        f"uninterrupted run's {digest_a}",
    )
    check_that(
        len(results_b) == n_messages,
        f"recovered soak returned {len(results_b)} of {n_messages} results",
    )


@oracle(
    "scheme.legacy_kwargs",
    gens=(g.seeds(), g.payload_bytes(1, 20, name="message")),
    examples=4,
)
def scheme_legacy_kwargs(seed, message):
    """InvisibleBits(scheme=) and the deprecated kwargs are bit-identical."""
    from ..core.pipeline import InvisibleBits
    from ..ecc.product import paper_end_to_end_code

    scheme = _paper_scheme()
    sent_a, got_a = _roundtrip(_board(seed), message, scheme)
    board_b = _board(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)
        legacy = InvisibleBits(
            board_b,
            key=_KEY16,
            ecc=paper_end_to_end_code(3),
            n_captures=scheme.n_captures,
            use_firmware=False,
        )
    sent_b = legacy.send(message, camouflage=False)
    got_b = legacy.receive(expected_payload=sent_b.payload_bits)
    check_that(
        np.array_equal(sent_a.payload_bits, sent_b.payload_bits),
        "legacy kwargs produced a different encoded payload",
    )
    check_that(
        np.array_equal(got_a.power_on_state, got_b.power_on_state),
        "legacy kwargs produced a different power-on state",
    )
    # The channel itself is noisy (a residual post-ECC error is physics,
    # not a contract breach) — the identity claim is that both paths see
    # the *same* decode, right or wrong.
    check_that(
        got_a.message == got_b.message
        and np.array_equal(got_a.recovered_payload, got_b.recovered_payload),
        f"recovered messages diverged: {got_a.message!r} vs {got_b.message!r}",
    )


@oracle(
    "faults.disabled_identity",
    gens=(
        g.seeds(),
        g.payload_bytes(1, 16, name="message"),
        g.sampled_from([0.05, 0.2], name="flaky_rate"),
    ),
    examples=3,
)
def faults_disabled_identity(seed, message, flaky_rate):
    """An empty fault plan — and a flaky-port-only plan — never change bits."""
    from ..errors import RetryExhaustedError
    from ..faults import FaultInjector, FaultPlan
    from ..faults.models import FlakyDebugPort

    scheme = _paper_scheme()
    _, clean = _roundtrip(_board(seed), message, scheme)

    # Faults disabled: an injector with no models is the same as none.
    empty = FaultInjector(FaultPlan(seed=seed))
    _, idle = _roundtrip(_board(seed, fault_injector=empty), message, scheme)
    check_that(
        np.array_equal(clean.power_on_state, idle.power_on_state)
        and clean.message == idle.message,
        "an empty fault plan changed the decode",
    )

    # Flaky-port faults strike before bits move: retries, never bit changes.
    flaky = FaultInjector(
        FaultPlan(seed=seed, models=(FlakyDebugPort(rate=flaky_rate),))
    )
    try:
        _, retried = _roundtrip(_board(seed, fault_injector=flaky), message, scheme)
    except RetryExhaustedError:
        return  # a legitimately exhausted retry budget is not an identity bug
    check_that(
        np.array_equal(clean.power_on_state, retried.power_on_state)
        and clean.message == retried.message,
        "flaky-port retries changed analog results",
    )


# -- ECC contracts -----------------------------------------------------------


@oracle(
    "ecc.roundtrip",
    gens=(
        g.sampled_from(list(_code_catalog()), name="code"),
        g.seeds(),
        g.integers(1, 6, name="blocks"),
    ),
)
def ecc_roundtrip(code_name, seed, blocks):
    """Every Code decodes its own clean encoding back to the data."""
    code = _code_catalog()[code_name]()
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, blocks * code.k).astype(np.uint8)
    encoded = code.encode(data)
    check_that(
        encoded.size == code.encoded_length(data.size),
        f"{code.name}: encoded {data.size} bits to {encoded.size}, "
        f"expected {code.encoded_length(data.size)}",
    )
    decoded = code.decode(encoded)
    check_that(
        np.array_equal(decoded, data),
        f"{code.name}: clean round-trip corrupted "
        f"{int(np.count_nonzero(decoded != data))} bits",
    )


@oracle(
    "ecc.single_error",
    gens=(
        g.sampled_from(list(_SINGLE_ERROR_CODES), name="code"),
        g.seeds(),
        g.integers(1, 4, name="blocks"),
    ),
)
def ecc_single_error(code_name, seed, blocks):
    """Distance->=3 codes correct any single flipped bit exactly."""
    code = _code_catalog()[code_name]()
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, blocks * code.k).astype(np.uint8)
    encoded = code.encode(data)
    position = int(rng.integers(0, encoded.size))
    corrupted = encoded.copy()
    corrupted[position] ^= 1
    decoded = code.decode(corrupted)
    check_that(
        np.array_equal(decoded, data),
        f"{code.name}: failed to correct a single error at bit {position}",
    )


@oracle(
    "ecc.composition",
    gens=(g.seeds(), g.integers(1, 5, name="blocks")),
)
def ecc_composition(seed, blocks):
    """ConcatenatedCode is associative: (A∘B)∘C == A∘(B∘C), bit for bit."""
    from ..ecc.hamming import hamming_7_4
    from ..ecc.interleave import BlockInterleaver
    from ..ecc.product import ConcatenatedCode
    from ..ecc.repetition import RepetitionCode

    a, b, c = hamming_7_4(), RepetitionCode(3), BlockInterleaver(3, 7)
    left = ConcatenatedCode(ConcatenatedCode(a, b), c)
    right = ConcatenatedCode(a, ConcatenatedCode(b, c))
    check_that(
        (left.k, left.n) == (right.k, right.n),
        f"composite block structure differs: ({left.k},{left.n}) vs "
        f"({right.k},{right.n})",
    )
    rng = np.random.default_rng(seed)
    data = rng.integers(0, 2, blocks * left.k).astype(np.uint8)
    enc_left = left.encode(data)
    enc_right = right.encode(data)
    check_that(
        np.array_equal(enc_left, enc_right),
        "associated compositions encode differently",
    )
    check_that(
        np.array_equal(left.decode(enc_left), data)
        and np.array_equal(right.decode(enc_left), data),
        "associated compositions decode differently",
    )


@oracle(
    "ecc.soft_saturation",
    gens=(
        g.sampled_from(list(_SOFT_FLAT_CODES), name="code"),
        g.seeds(),
        g.integers(1, 4, name="blocks"),
    ),
)
def ecc_soft_saturation(code_name, seed, blocks):
    """Soft decode of saturated (+-LLR_SAT) words == the hard decoder.

    Hard decoding is the saturation limit of soft decoding: with every
    magnitude equal, Chase's analog distance degenerates to Hamming
    distance and the baseline wins every tie, so the decoders must agree
    bit-for-bit on *arbitrary* (however corrupted) words.  This is what
    licenses ``decision="hard"`` as a special case of the soft path.
    """
    from ..ecc.soft import saturate, soft_decode

    code = _code_catalog()[code_name]()
    rng = np.random.default_rng(seed)
    word = rng.integers(0, 2, blocks * code.n).astype(np.uint8)
    hard = code.decode(word)
    soft = soft_decode(code, saturate(word))
    check_that(
        np.array_equal(soft, hard),
        f"{code.name}: soft decode of saturated LLRs diverged from the "
        f"hard decoder on {int(np.count_nonzero(soft != hard))} bits",
    )


@oracle(
    "ecc.soft_repetition",
    gens=(
        g.seeds(),
        g.sampled_from([3, 5], name="copies"),
        g.sampled_from(["block", "bitwise"], name="layout"),
        g.integers(2, 16, name="bits"),
    ),
)
def ecc_soft_repetition(seed, copies, layout, bits):
    """Soft-combining repetition: round-trips, survives a single erasure,
    and out-decodes the hard majority on confidence-skewed copies; the
    paper's composite stack round-trips a saturated near-codeword."""
    from ..ecc.product import paper_end_to_end_code
    from ..ecc.repetition import RepetitionCode
    from ..ecc.soft import LLR_SAT, hard_bits, saturate, soft_decode

    rng = np.random.default_rng(seed)
    code = RepetitionCode(copies, layout=layout)
    data = rng.integers(0, 2, bits).astype(np.uint8)
    llrs = saturate(code.encode(data))
    check_that(
        np.array_equal(soft_decode(code, llrs), data),
        "clean soft repetition round-trip corrupted data",
    )

    erased = llrs.copy()
    target = int(rng.integers(0, erased.size))
    erased[target] = 0.0  # one copy of one bit becomes an erasure
    check_that(
        np.array_equal(soft_decode(code, erased), data),
        f"a single erased copy (LLR=0 at {target}) broke the decode",
    )

    # Confidence-skewed copies: a weak wrong majority against a confident
    # right minority.  The hard majority is wrong by construction; the
    # LLR sum is right — the case soft-combining exists for.
    majority = (copies + 1) // 2
    right_sign = 1.0 - 2.0 * data.astype(np.float64)
    stacked = np.empty((copies, bits), dtype=np.float64)
    stacked[:majority] = -right_sign  # weakly wrong, |llr| = 1
    stacked[majority:] = right_sign * LLR_SAT
    skewed = (
        stacked.reshape(-1) if layout == "block" else stacked.T.reshape(-1)
    )
    check_that(
        np.array_equal(code.decode(hard_bits(skewed)), 1 - data),
        "skewed pattern did not make the hard majority wrong",
    )
    check_that(
        np.array_equal(soft_decode(code, skewed), data),
        "soft combining lost to a weak wrong majority",
    )

    # The composite (Hamming x repetition) chain, pinned on a saturated
    # near-codeword (<=1 flip): the regime where the chained soft path
    # must agree with the hard chain.
    paper = paper_end_to_end_code(3)
    pdata = rng.integers(0, 2, paper.k).astype(np.uint8)
    word = paper.encode(pdata)
    word[int(rng.integers(0, word.size))] ^= 1
    check_that(
        np.array_equal(soft_decode(paper, saturate(word)), pdata),
        "composite soft decode failed a saturated near-codeword",
    )


# -- crypto contracts --------------------------------------------------------


def _ctr_from(rng, key_len: int = 16):
    from ..crypto.ctr import AesCtr

    key = rng.integers(0, 256, key_len, dtype=np.uint8).tobytes()
    nonce = rng.integers(0, 256, 12, dtype=np.uint8).tobytes()
    return AesCtr(key, nonce), key, nonce


@oracle(
    "crypto.ctr_involution",
    gens=(
        g.seeds(),
        g.payload_bytes(0, 80, name="data"),
        g.sampled_from([16, 24, 32], name="key_len"),
    ),
)
def crypto_ctr_involution(seed, data, key_len):
    """AES-CTR is an involution: process(process(x)) == x at every length."""
    ctr, _, _ = _ctr_from(np.random.default_rng(seed), key_len)
    twice = ctr.process(ctr.process(data))
    check_that(
        bytes(twice.tobytes()) == bytes(data),
        "process(process(x)) != x",
    )
    check_that(
        ctr.decrypt(ctr.encrypt(data)) == bytes(data),
        "decrypt(encrypt(x)) != x",
    )
    if data:
        from ..bitutils import bytes_to_bits

        bits = bytes_to_bits(data)
        check_that(
            np.array_equal(ctr.process_bits(ctr.process_bits(bits)), bits),
            "process_bits is not an involution",
        )


@oracle(
    "crypto.ctr_keystream",
    gens=(
        g.seeds(),
        g.integers(1, 80, name="n_bytes"),
        g.integers(0, 5, name="initial_counter"),
    ),
)
def crypto_ctr_keystream(seed, n_bytes, initial_counter):
    """The vectorized CTR keystream matches the one-block-at-a-time AES reference."""
    from ..crypto.aes_core import AES

    ctr, key, nonce = _ctr_from(np.random.default_rng(seed))
    stream = ctr.keystream(n_bytes, initial_counter=initial_counter)
    aes = AES(key)
    n_blocks = -(-n_bytes // 16)
    reference = b"".join(
        aes.encrypt_block(nonce + (initial_counter + i).to_bytes(4, "big"))
        for i in range(n_blocks)
    )[:n_bytes]
    check_that(
        stream.tobytes() == reference,
        "keystream diverged from the per-block AES reference",
    )


# -- statistics contracts ----------------------------------------------------


@oracle(
    "stats.morans_agreement",
    gens=(g.grid_shapes(5, 8, name="grid"), g.seeds()),
    examples=8,
)
def stats_morans_agreement(grid, seed):
    """Analytic and permutation Moran's I p-values agree on random grids."""
    from ..stats.morans_i import morans_i

    values = np.random.default_rng(seed).standard_normal(grid)
    analytic = morans_i(values)
    permuted = morans_i(values, permutations=299, rng=seed)
    check_that(
        analytic.statistic == permuted.statistic
        and analytic.expected == permuted.expected
        and analytic.variance == permuted.variance
        and analytic.z_score == permuted.z_score,
        "the permutation branch changed the analytic moments",
    )
    check_that(
        analytic.p_value_method == "analytic"
        and permuted.p_value_method == "permutation",
        "p_value_method provenance is wrong",
    )
    check_that(
        abs(analytic.p_value - permuted.p_value) <= 0.2,
        f"analytic p={analytic.p_value:.3f} and permutation "
        f"p={permuted.p_value:.3f} disagree beyond tolerance",
    )


# -- physics contracts -------------------------------------------------------


def _nbti_rig(seed, n):
    from ..physics.nbti import NBTIModel, NBTIState

    rng = np.random.default_rng(seed)
    model = NBTIModel(k_scale=0.02 + 0.08 * float(rng.random()))
    state = NBTIState.fresh(n)
    return model, state, rng


@oracle(
    "physics.nbti_monotone",
    gens=(g.seeds(), g.integers(4, 64, name="transistors")),
)
def physics_nbti_monotone(seed, n):
    """dvth grows monotonically under stress and never grows under relax."""
    model, state, rng = _nbti_rig(seed, n)
    previous = model.dvth(state).copy()
    for _ in range(4):
        model.stress(state, float(rng.uniform(10.0, 5000.0)))
        current = model.dvth(state)
        check_that(
            bool(np.all(current >= previous)),
            "dvth decreased while stress time increased",
        )
        previous = current.copy()
    model.relax(state, float(rng.uniform(100.0, 1e6)))
    relaxed = model.dvth(state)
    check_that(
        bool(np.all(relaxed <= previous)),
        "relaxation increased dvth",
    )
    floor = model.dvth_unrecovered(state) * (1.0 - model.rec_ceiling)
    check_that(
        bool(np.all(relaxed >= floor - 1e-12)),
        "relaxation recovered past the permanent-damage ceiling",
    )
    times = np.sort(rng.uniform(0.0, 1e6, 8))
    shifts = [model.shift_after(float(t)) for t in times]
    check_that(
        all(b >= a for a, b in zip(shifts, shifts[1:])),
        "shift_after is not monotone in stress time",
    )


@oracle(
    "physics.nbti_flush_order",
    gens=(g.seeds(), g.integers(4, 64, name="transistors")),
)
def physics_nbti_flush_order(seed, n):
    """Deferred uniform relax is order-independent and equals direct relax."""
    model, base, rng = _nbti_rig(seed, n)
    model.stress(base, rng.uniform(100.0, 5000.0, n))
    a, b = float(rng.uniform(1.0, 1e4)), float(rng.uniform(1.0, 1e4))

    split = base.copy()
    model.relax_uniform(split, a)
    model.relax_uniform(split, b)

    merged = base.copy()
    model.relax_uniform(merged, a + b)

    direct = base.copy()
    model.relax(direct, a + b)

    flushed = base.copy()
    model.relax_uniform(flushed, a)
    flushed.flush_relax()  # an early flush must not change the observable
    model.relax_uniform(flushed, b)

    reference = model.dvth(direct)
    for label, state in (("split", split), ("merged", merged), ("early-flush", flushed)):
        check_that(
            np.array_equal(model.dvth(state), reference),
            f"deferred relax ({label}) diverged from direct relax",
        )


@oracle(
    "physics.nbti_copy_isolation",
    gens=(g.seeds(), g.integers(4, 64, name="transistors")),
)
def physics_nbti_copy_isolation(seed, n):
    """NBTIState.copy() is fully isolated from the original's future."""
    model, state, rng = _nbti_rig(seed, n)
    model.stress(state, rng.uniform(100.0, 5000.0, n))
    model.relax_uniform(state, float(rng.uniform(1.0, 1e4)))  # pending relax too
    snapshot = state.copy()
    baseline = model.dvth(snapshot).copy()
    model.stress(state, float(rng.uniform(100.0, 5000.0)))
    model.relax_uniform(state, float(rng.uniform(1.0, 1e4)))
    state.stress_seconds *= 2.0  # even direct array mutation must not leak
    check_that(
        np.array_equal(model.dvth(snapshot), baseline),
        "mutating the original changed a copy's observable shift",
    )


# -- bit-utility contracts ---------------------------------------------------


@oracle(
    "bitutils.pack_roundtrip",
    gens=(g.payload_bytes(0, 64, name="data"),),
)
def bitutils_pack_roundtrip(data):
    """bytes<->bits round-trips, and array input equals the bytes path."""
    from ..bitutils import as_bit_array, bits_to_bytes, bytes_to_bits

    bits = bytes_to_bits(data)
    check_that(bits_to_bytes(bits) == bytes(data), "pack(unpack(x)) != x")
    check_that(
        np.array_equal(as_bit_array(data), bits),
        "as_bit_array disagrees with bytes_to_bits",
    )
    # The regression differential for the buffer-reinterpretation bug: an
    # int64 array of the same byte *values* must unpack identically.
    wide = np.frombuffer(bytes(data), dtype=np.uint8).astype(np.int64)
    check_that(
        np.array_equal(bytes_to_bits(wide), bits),
        "an int64 byte-value array unpacked differently from bytes",
    )


@oracle(
    "bitutils.majority_reference",
    gens=(g.capture_stacks(7, 64, name="stack"),),
)
def bitutils_majority_reference(stack):
    """Vectorized majority_vote matches the per-bit counting reference."""
    from ..bitutils import majority_vote

    n = stack.shape[0]
    reference = np.array(
        [1 if 2 * int(column.sum()) >= n else 0 for column in stack.T],
        dtype=np.uint8,
    )
    check_that(
        np.array_equal(majority_vote(stack), reference),
        "majority_vote diverged from the counting reference (ties break to 1)",
    )


# -- mutants: the harness's own test ----------------------------------------


@mutant("faults.disabled_identity", "stuck-single-bit-plan")
def _mutant_stuck_single_bit(rng):
    """A fault-plan single-bit defect on one side must break the identity."""
    from ..faults import FaultInjector, FaultPlan
    from ..faults.models import StuckRegion

    seed = int(rng.integers(0, 2**31))
    message = b"mutation-smoke"
    scheme = _paper_scheme()
    _, clean = _roundtrip(_board(seed), message, scheme)
    target = int(rng.integers(0, clean.power_on_state.size))
    stuck_value = 1 - int(clean.power_on_state[target])
    plan = FaultPlan(
        seed=seed,
        models=(StuckRegion(offset=target, length=1, value=stuck_value),),
    )
    _, faulted = _roundtrip(
        _board(seed, fault_injector=FaultInjector(plan)), message, scheme
    )
    check_that(
        np.array_equal(clean.power_on_state, faulted.power_on_state),
        f"single stuck bit at {target} detected by the identity contract",
    )


@mutant("ecc.roundtrip", "decode-single-bit-flip")
def _mutant_decode_bit_flip(rng):
    """A decoder that flips one output bit must fail the round-trip."""
    from ..ecc.hamming import hamming_7_4

    inner = hamming_7_4()

    class _FlippingDecoder:
        k, n, name = inner.k, inner.n, inner.name + "+flip"
        encode = staticmethod(inner.encode)
        encoded_length = staticmethod(inner.encoded_length)

        @staticmethod
        def decode(code):
            out = inner.decode(code)
            out = out.copy()
            out[0] ^= 1  # the planted single-bit defect
            return out

    code = _FlippingDecoder()
    data = rng.integers(0, 2, 3 * code.k).astype(np.uint8)
    decoded = code.decode(code.encode(data))
    check_that(
        np.array_equal(decoded, data),
        "single decoder bit-flip detected by the round-trip contract",
    )


@mutant("ecc.soft_saturation", "llr-sign-flip")
def _mutant_llr_sign_flip(rng):
    """A decoder reading LLRs with the opposite sign convention must
    diverge from the hard decoder on saturated words."""
    from ..ecc.hamming import hamming_7_4
    from ..ecc.soft import saturate, soft_decode

    code = hamming_7_4()
    word = rng.integers(0, 2, 3 * code.n).astype(np.uint8)
    hard = code.decode(word)
    soft = soft_decode(code, -saturate(word))  # the planted defect
    check_that(
        np.array_equal(soft, hard),
        "LLR sign-convention flip detected by the saturation identity",
    )


@mutant("crypto.ctr_keystream", "counter-off-by-one")
def _mutant_counter_off_by_one(rng):
    """An off-by-one CTR counter must diverge from the AES reference."""
    from ..crypto.aes_core import AES

    ctr, key, nonce = _ctr_from(rng)
    defective = ctr.keystream(32, initial_counter=1)  # the planted defect
    aes = AES(key)
    reference = b"".join(
        aes.encrypt_block(nonce + i.to_bytes(4, "big")) for i in range(2)
    )
    check_that(
        defective.tobytes() == reference,
        "counter off-by-one detected by the keystream reference",
    )


@mutant("bitutils.pack_roundtrip", "bit-flip-in-flight")
def _mutant_pack_bit_flip(rng):
    """One flipped bit between unpack and pack must break the round-trip."""
    from ..bitutils import bits_to_bytes, bytes_to_bits

    data = rng.integers(0, 256, 8, dtype=np.uint8).tobytes()
    bits = bytes_to_bits(data)
    bits[0] ^= 1  # the planted defect
    check_that(
        bits_to_bytes(bits) == data,
        "in-flight bit flip detected by the pack round-trip",
    )


@mutant("bitutils.majority_reference", "tie-breaks-to-zero")
def _mutant_tie_to_zero(rng):
    """A tie-to-zero reference must disagree on a tied even-count column."""
    from ..bitutils import majority_vote

    width = int(rng.integers(1, 16))
    stack = np.zeros((2, width), dtype=np.uint8)
    stack[0, :] = 1  # every column is a 1-1 tie
    zero_reference = np.array(
        [1 if 2 * int(col.sum()) > 2 else 0 for col in stack.T], dtype=np.uint8
    )
    check_that(
        np.array_equal(majority_vote(stack), zero_reference),
        "tie-to-zero defect detected by the majority reference",
    )


@mutant("fleet.capture_vs_device_loop", "kernel-decision-bit-flip")
def _mutant_kernel_decision_flip(rng):
    """One flipped decision inside the capture kernel must break frame
    identity with the scalar reference."""
    import os

    from ..core import fleetcapture
    from ..sram import array as engine
    from .reference import ReferenceSampler

    # The planted defect lives in the engine's tray call; an ambient chaos
    # plan (REPRO_FAULT_PLAN) would wire injectors into every board, route
    # all slots to the sequenced loop, and hide it.
    ambient = os.environ.pop("REPRO_FAULT_PLAN", None)
    pristine = engine.stacked_band_decisions

    def skewed(segments, noise):
        decisions = pristine(segments, noise)
        block = next((d for d in decisions if d.size), None)
        check_that(block is not None, "mutant needs a non-empty noise band")
        block.reshape(-1)[int(rng.integers(0, block.size))] ^= True
        return decisions

    try:
        seed = int(rng.integers(0, 2**31))
        rack_a, payloads = _fleet_rig(seed, 2, 0.25, 2.0)
        rack_b, _ = _fleet_rig(seed, 2, 0.25, 2.0)
        engine.stacked_band_decisions = skewed
        fleet = fleetcapture.capture_fleet(
            rack_a.boards, 3, payloads=payloads, return_frames=True
        )
    finally:
        engine.stacked_band_decisions = pristine
        if ambient is not None:
            os.environ["REPRO_FAULT_PLAN"] = ambient
    for index, board in enumerate(rack_b.boards):
        stack = ReferenceSampler(board.device.sram).board_captures(board, 3)
        check_that(
            np.array_equal(fleet.frames[index], stack),
            f"kernel decision flip detected on slot {index}",
        )


@mutant("service.crash_recovery", "journal-byte-corruption")
def _mutant_journal_corruption(rng):
    """One flipped byte mid-journal must refuse recovery, not replay it.

    The CRC framing tolerates a *torn tail* (the crash signature) but a
    damaged record followed by a valid one is corruption — replaying a
    damaged prefix could double-apply stress.  Detection is the
    :class:`~repro.errors.JournalError` from ``read_journal``; the
    fallback ``check_that`` catches a regression that silently *skips*
    the corrupt admit instead (the replay would come up one op short).
    """
    import asyncio
    import tempfile

    from ..errors import JournalError
    from ..service import FleetService, LoadGenerator
    from ..service.recovery import journal_path, recover_components

    seed = int(rng.integers(0, 2**31))
    n_messages = 2

    async def scenario(config):
        service = FleetService(config)
        await service.start()
        generator = LoadGenerator(seed=seed, message_bytes=4, idempotency=True)
        await generator.run(service, n_messages, concurrency=2)
        await service.abort()

    with tempfile.TemporaryDirectory() as tmp:
        config = _journaled_config(tmp, seed, shards=1)
        asyncio.run(scenario(config))
        path = journal_path(tmp)
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        check_that(len(lines) >= 2, "mutant needs a multi-record journal")
        first = lines[0]  # always an admit — completes never lead
        position = 12  # inside the JSON body, past the 8-hex CRC prefix
        lines[0] = (
            first[:position]
            + chr(ord(first[position]) ^ 1)  # the planted defect
            + first[position + 1 :]
        )
        path.write_text("".join(lines), encoding="utf-8")
        try:
            host, journal, _cache, report = recover_components(config)
        except JournalError as exc:
            # Re-raise without the tmpdir path so the detection detail
            # (and therefore the mutation-smoke report) is run-stable.
            raise JournalError(
                str(exc).replace(f"{path}: ", "")
            ) from None
        journal.close()
        check_that(
            report.admitted == 2 * n_messages,
            f"corrupt admit record silently dropped from replay "
            f"({report.admitted} of {2 * n_messages} admits survived)",
        )
