"""Fleet capture: measure a whole tray with one call of the capture engine.

The paper's §5.3 fleet workflow measures every device with the same
protocol — N drained power cycles, majority vote, channel error against
the staged payload.  :func:`capture_fleet` is the tray orchestration around
the engine in :mod:`repro.sram.array`: every board plans its burst
(:meth:`ControlBoard.plan_fleet_capture`), :func:`~repro.sram.array.run_bursts`
evaluates all planned slots in one kernel call with each device's noise
drawn from its own generator — the kernel concatenates the slots' noise
bands into chunks and evaluates one row per capture index across a chunk
of slots — and each slot is voted and scored.  The inverted states the
scores were taken on ride along (:attr:`FleetCapture.recovered`), so a
receive group's decode (:func:`repro.core.pipeline.decode_states`)
reuses them.  Results
are bit-identical to measuring the boards one by one, for any worker
count, device order or tray composition.  Slots the engine cannot plan — a
fault injector is attached, or remanence could reach the first capture —
are sequenced by the board's power-on/read/power-off loop.

The ``fleet.capture_vs_device_loop`` oracle (``repro verify``) pins the
tray against the scalar reference in :mod:`repro.verify.reference`;
``fleet_capture_speedup`` in ``BENCH_substrate.json`` gates throughput
(>= 10x over the naive per-device loop, 8 devices x 64 KiB x 5 captures).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..bitutils import bit_error_rate, invert_bits, majority_vote
from ..errors import ConfigurationError, SlotError
from ..sram import array as _engine

__all__ = ["FleetCapture", "capture_fleet"]


@dataclass(frozen=True)
class FleetCapture:
    """Per-slot results of one tray-wide capture burst.

    ``states`` holds each slot's majority-voted power-on state;
    ``errors`` the channel error against the staged payloads and
    ``recovered`` the inverted states it was scored on (both ``None``
    when no payloads were given); ``frames`` the full
    ``(n_captures, n_bits)`` capture stacks (on request only — the
    measurement path never materializes them).  ``vectorized[i]`` says
    whether slot ``i`` ran in the capture engine's tray call or was
    sequenced by its board's loop; in resilient mode a failed slot
    carries its exception in ``slot_errors[i]`` with ``states``/``errors``
    entries of ``None``.
    """

    states: "list[np.ndarray | None]"
    errors: "list[float | None] | None"
    frames: "list[np.ndarray] | None"
    vectorized: "tuple[bool, ...]"
    attempts: "tuple[int, ...]"
    slot_errors: "tuple[Exception | None, ...]"
    n_captures: int
    recovered: "list[np.ndarray | None] | None" = None

    @property
    def kernel_slots(self) -> int:
        return sum(self.vectorized)


def capture_fleet(
    boards,
    n_captures: int = 5,
    *,
    off_seconds: float = 1.0,
    payloads: "list[np.ndarray] | None" = None,
    return_frames: bool = False,
    resilient: bool = False,
    retry=None,
) -> FleetCapture:
    """Measure a tray of boards' power-on behaviour in one engine call.

    For every board: take ``n_captures`` drained power cycles, majority
    vote, and (when ``payloads`` are given) compute the channel error
    against the staged payload — bit-identical to running
    :meth:`ControlBoard.majority_power_on_state` per board, in any order.

    ``retry`` wraps each *fallback* slot's whole capture loop (the
    resilient rack semantics); engine slots have no transient failure
    modes, so they always count one attempt.  ``resilient=True`` records
    a failing slot's exception in :attr:`FleetCapture.slot_errors`
    instead of raising; otherwise the first failure raises a
    :class:`~repro.errors.SlotError` naming the slot.
    """
    boards = list(boards)
    n_captures = _engine.check_capture_count(n_captures)
    if n_captures % 2 == 0:
        raise ConfigurationError(
            "use an odd number of captures so majority voting cannot tie"
        )
    if payloads is not None and len(payloads) != len(boards):
        raise ConfigurationError(
            f"{len(payloads)} payloads for {len(boards)} boards"
        )

    n_slots = len(boards)
    states: "list[np.ndarray | None]" = [None] * n_slots
    frames: "list[np.ndarray | None]" = [None] * n_slots
    errors: "list[float | None]" = [None] * n_slots
    recovered: "list[np.ndarray | None]" = [None] * n_slots
    bursts: list = [None] * n_slots
    attempts = [1] * n_slots
    slot_errors: "list[Exception | None]" = [None] * n_slots

    def record_failure(index: int, exc: Exception) -> None:
        if resilient:
            slot_errors[index] = exc
            return
        raise SlotError(
            f"slot {index} ({boards[index].device.spec.name}): "
            f"{type(exc).__name__}: {exc}",
            slot=index,
        ) from exc

    with telemetry.trace(
        "fleet.capture",
        devices=n_slots,
        n_captures=n_captures,
        off_seconds=off_seconds,
    ) as span:
        for index, board in enumerate(boards):
            try:
                bursts[index] = board.plan_fleet_capture(n_captures, off_seconds)
            except Exception as exc:
                record_failure(index, exc)

        vectorized = [burst is not None for burst in bursts]
        _engine.run_bursts([burst for burst in bursts if burst is not None])
        for i, burst in enumerate(bursts):
            if burst is not None:
                states[i] = burst.majority()
                if return_frames:
                    frames[i] = burst.frames()

        for i in range(n_slots):
            if vectorized[i] or slot_errors[i] is not None:
                continue
            attempts[i] = 0

            def one_loop(board=boards[i], i=i):
                attempts[i] += 1
                return board.capture_power_on_states(
                    n_captures, off_seconds=off_seconds
                )

            try:
                stack = retry.call(one_loop) if retry is not None else one_loop()
            except Exception as exc:
                record_failure(i, exc)
                continue
            states[i] = majority_vote(stack)
            if return_frames:
                frames[i] = stack

        per_device_ber = []
        for i in range(n_slots):
            if states[i] is not None and payloads is not None:
                recovered[i] = invert_bits(states[i])
                errors[i] = bit_error_rate(payloads[i], recovered[i])
                per_device_ber.append([boards[i].device.spec.name, errors[i]])

        span.set(
            vectorized=sum(vectorized),
            fallbacks=sum(
                1
                for i in range(n_slots)
                if not vectorized[i] and slot_errors[i] is None
            ),
            failed=sum(1 for e in slot_errors if e is not None),
        )
        if per_device_ber:
            span.set(ber=per_device_ber)
        # Fallback slots fold their own board.captures via the nested
        # board.capture span; count only the engine slots here.
        span.count("board.captures", n_captures * sum(vectorized))

    return FleetCapture(
        states=states,
        errors=errors if payloads is not None else None,
        frames=frames if return_frames else None,
        vectorized=tuple(vectorized),
        attempts=tuple(attempts),
        slot_errors=tuple(slot_errors),
        n_captures=n_captures,
        recovered=recovered if payloads is not None else None,
    )
