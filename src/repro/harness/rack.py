"""An encoding rack: many boards, one thermal chamber.

The paper points out that "devices can be encoded in parallel" (§5.3) — a
single thermal chamber holds a tray of boards, all stressed together.  The
rack owns one shared :class:`ThermalChamber` and per-slot
:class:`ControlBoard` instances (each device still needs its own supply)
and sequences the shared stress period once for the whole tray.

Per-slot work (staging, time advancement, measurement) fans out over a
thread pool: each board touches only its own device and its device's own
RNG stream, so results are identical for any worker count.  Anything that
touches the *shared* chamber — which pushes ambient temperature into every
inserted device — stays serialized between fan-outs.

Fleet resilience (docs/faults.md): a failing slot no longer kills the
whole tray anonymously.  Strict maps wrap per-slot exceptions in
:class:`~repro.errors.SlotError` carrying the slot index; resilient maps
(``resilient=True`` / :meth:`EncodingRack.run_slots`) return one
:class:`SlotResult` per slot instead of raising, retry transient device
faults under the rack's :class:`~repro.faults.RetryPolicy`, and a
:class:`~repro.faults.HealthLedger` quarantines slots after
``quarantine_after`` consecutive failures.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..device.device import Device
from ..errors import ConfigurationError, QuarantinedDeviceError, SlotError
from ..faults import FaultInjector, FaultPlan, HealthLedger, RetryPolicy
from ..units import hours, kelvin_to_celsius
from .controlboard import ControlBoard
from .thermal import ThermalChamber


@dataclass(frozen=True)
class SlotResult:
    """One slot's outcome from a resilient tray operation.

    ``status`` is ``"ok"`` (first try), ``"retried"`` (succeeded after
    transient-fault retries), ``"quarantined"`` (the health ledger had
    already pulled the slot — nothing ran) or ``"failed"`` (every attempt
    failed; ``error`` holds the last exception).
    """

    slot: int
    status: str
    value: "object" = None
    error: "Exception | None" = None
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "retried")


class EncodingRack:
    """A tray of devices sharing one chamber.

    ``max_workers`` caps the thread pool used for per-slot operations;
    ``None`` (default) uses one thread per available CPU, up to the tray
    size.  ``fault_plan`` gives every board its own deterministic
    :class:`~repro.faults.FaultInjector` (salted by slot index);
    ``retry`` guards resilient per-slot work; ``quarantine_after`` is the
    health ledger's consecutive-failure threshold.
    """

    def __init__(
        self,
        devices: "list[Device]",
        *,
        max_workers: "int | None" = None,
        fault_plan: "FaultPlan | None" = None,
        retry: "RetryPolicy | None" = None,
        quarantine_after: int = 3,
    ):
        if not devices:
            raise ConfigurationError("rack needs at least one device")
        if max_workers is not None and max_workers < 1:
            raise ConfigurationError(f"max_workers must be >= 1, got {max_workers}")
        self.max_workers = max_workers
        self.chamber = ThermalChamber()
        self.boards = [
            ControlBoard(
                device,
                chamber=self.chamber,
                fault_injector=(
                    FaultInjector(fault_plan, salt=index) if fault_plan else None
                ),
            )
            for index, device in enumerate(devices)
        ]
        self.retry = retry if retry is not None else RetryPolicy()
        self.health = HealthLedger(quarantine_after)
        # ControlBoard.__init__ inserts each device; nothing else to wire.

    def __len__(self) -> int:
        return len(self.boards)

    def _calls(self, items: "list | None") -> list:
        if items is None:
            return [(board,) for board in self.boards]
        return list(zip(self.boards, items))

    def _pool_width(self, n_calls: int) -> int:
        # Never spawn more threads than there are calls to run — a
        # max_workers larger than the tray is a cap, not a quota.
        width = self.max_workers or (os.cpu_count() or 1)
        return max(1, min(width, n_calls))

    def _map_slots(
        self, fn, items: "list | None" = None, *, slots: "list | None" = None
    ) -> list:
        """Apply ``fn(board[, item])`` to every slot, in slot order.

        Slots are independent (own device, own RNG stream), so the pool
        width only affects wall-clock time, never results.  A worker
        exception no longer kills the map anonymously: it surfaces as a
        :class:`~repro.errors.SlotError` naming the slot and device, with
        the original exception chained as ``__cause__``.

        ``slots`` restricts the map to a subset of ``(index, board)``
        pairs (e.g. only the live slots of a partially-staged tray);
        reported slot indices stay the tray positions.
        """
        pairs = list(enumerate(self.boards)) if slots is None else list(slots)
        if items is None:
            calls = [(index, (board,)) for index, board in pairs]
        else:
            calls = [
                (index, (board, item))
                for (index, board), item in zip(pairs, items)
            ]

        def run_one(indexed_call):
            index, call = indexed_call
            try:
                return fn(*call)
            except Exception as exc:
                raise SlotError(
                    f"slot {index} ({call[0].device.spec.name}): "
                    f"{type(exc).__name__}: {exc}",
                    slot=index,
                ) from exc

        workers = self._pool_width(len(calls))
        if workers <= 1 or len(calls) <= 1:
            return [run_one(pair) for pair in calls]
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_one, calls))

    def run_slots(
        self, fn, items: "list | None" = None, *, label: str = "rack.run"
    ) -> "list[SlotResult]":
        """Resilient tray map: every slot returns a :class:`SlotResult`.

        Quarantined slots are skipped outright; transient device faults
        are retried under the rack's policy; a slot that still fails is
        reported (``status="failed"``) without touching the other slots,
        and its failure streak counts toward quarantine.  Telemetry:
        ``slots.failed``, ``slots.quarantined``, ``retry.attempts``.
        """
        calls = self._calls(items)

        def run_one(indexed_call) -> SlotResult:
            index, call = indexed_call
            if self.health.is_quarantined(index):
                return SlotResult(
                    slot=index,
                    status="quarantined",
                    error=QuarantinedDeviceError(
                        f"slot {index} is quarantined", slot=index
                    ),
                    attempts=0,
                )
            attempts = [0]

            def attempt():
                attempts[0] += 1
                return fn(*call)

            try:
                value = self.retry.call(attempt)
            except Exception as exc:
                self.health.record_failure(index)
                telemetry.count("slots.failed")
                return SlotResult(
                    slot=index, status="failed", error=exc, attempts=attempts[0]
                )
            self.health.record_success(index)
            return SlotResult(
                slot=index,
                status="ok" if attempts[0] == 1 else "retried",
                value=value,
                attempts=attempts[0],
            )

        with telemetry.trace(label, slots=len(calls)) as span:
            workers = self._pool_width(len(calls))
            if workers <= 1 or len(calls) <= 1:
                results = [run_one(pair) for pair in enumerate(calls)]
            else:
                with ThreadPoolExecutor(max_workers=workers) as pool:
                    results = list(pool.map(run_one, enumerate(calls)))
            span.set(
                ok=sum(1 for r in results if r.ok),
                failed=sum(1 for r in results if r.status == "failed"),
                quarantined=sum(1 for r in results if r.status == "quarantined"),
            )
            return results

    def stage_payloads(
        self,
        payloads: "list[np.ndarray]",
        *,
        use_firmware: bool = False,
        resilient: bool = False,
    ) -> "list[SlotResult] | None":
        """Stage one payload per slot (Alg. 1 lines 3-4, tray-wide).

        ``resilient=True`` returns per-slot :class:`SlotResult` s instead
        of raising on the first bad slot.
        """
        if len(payloads) != len(self.boards):
            raise ConfigurationError(
                f"{len(payloads)} payloads for {len(self.boards)} slots"
            )

        def stage(board: ControlBoard, payload: np.ndarray) -> None:
            board.stage_payload(payload, use_firmware=use_firmware)

        if resilient:
            return self.run_slots(stage, payloads, label="rack.stage")
        with telemetry.trace("rack.stage", slots=len(self.boards)):
            self._map_slots(stage, payloads)
        return None

    def stress_all(
        self,
        *,
        stress_hours: float,
        temp_stress_c: float = 85.0,
        vdd_per_board: "list[float] | None" = None,
        skip_unpowered: bool = False,
    ) -> None:
        """One shared stress period: set the chamber once, elevate every
        slot's supply, let the time pass for all devices together.

        ``skip_unpowered=True`` lets a partially-staged tray (some slots
        failed or quarantined during a resilient stage) stress the
        powered slots instead of refusing the whole tray.
        """
        if stress_hours <= 0:
            raise ConfigurationError("stress time must be positive")
        if vdd_per_board is not None and len(vdd_per_board) != len(self.boards):
            # Validate before touching the chamber: an undersized list must
            # not die with an IndexError after the tray is already at 85 C.
            raise ConfigurationError(
                f"{len(vdd_per_board)} stress voltages for "
                f"{len(self.boards)} slots"
            )
        live = [
            (index, board)
            for index, board in enumerate(self.boards)
            if board.device.powered
        ]
        if len(live) < len(self.boards) and not skip_unpowered:
            raise ConfigurationError("stage payloads before stressing")
        if not live:
            raise ConfigurationError("no powered slots to stress")
        with telemetry.trace(
            "rack.stress",
            slots=len(live),
            stress_hours=stress_hours,
            temp_stress_c=temp_stress_c,
        ):
            self.chamber.set_temperature(temp_stress_c)
            for index, board in live:
                vdd = (
                    board.device.spec.recipe.vdd_stress
                    if vdd_per_board is None
                    else vdd_per_board[index]
                )
                if (
                    board.device.spec.has_regulator
                    and not board.device.regulator.bypassed
                ):
                    board.device.regulator.bypass()
                board.supply.set_voltage(vdd)
            self._map_slots(
                lambda board: board.device.advance(hours(stress_hours)),
                slots=live,
            )
            self.chamber.set_temperature(kelvin_to_celsius(self.chamber.ambient_k))
            self._map_slots(
                lambda board: board.power_off() if board.device.powered else None
            )

    def measure_errors(
        self,
        payloads: "list[np.ndarray]",
        *,
        n_captures: int = 5,
        resilient: bool = False,
    ) -> "list[float] | list[SlotResult]":
        """Per-slot channel error against the staged payloads.

        Measurement routes through
        :func:`repro.core.fleetcapture.capture_fleet`: eligible slots run
        in one call of the capture engine, bit-identical to measuring the
        boards one by one; slots the engine cannot plan (fault injector
        attached, remanence pending) are sequenced by their board's
        power-on/read/power-off loop instead.

        ``resilient=True`` returns :class:`SlotResult` s (``value`` is the
        error rate) so one dead slot yields a partial tray measurement
        instead of nothing: quarantined slots are skipped outright,
        fallback slots retry under the rack's policy, and failures feed
        the health ledger exactly as :meth:`run_slots` would.
        """
        from ..core.fleetcapture import capture_fleet

        if len(payloads) != len(self.boards):
            raise ConfigurationError("payload count mismatch")

        if not resilient:
            with telemetry.trace(
                "rack.measure", slots=len(self.boards), n_captures=n_captures
            ):
                fleet = capture_fleet(
                    self.boards, n_captures, payloads=list(payloads)
                )
                return list(fleet.errors)

        results: "list[SlotResult | None]" = [None] * len(self.boards)
        live: "list[int]" = []
        for index in range(len(self.boards)):
            if self.health.is_quarantined(index):
                results[index] = SlotResult(
                    slot=index,
                    status="quarantined",
                    error=QuarantinedDeviceError(
                        f"slot {index} is quarantined", slot=index
                    ),
                    attempts=0,
                )
            else:
                live.append(index)
        with telemetry.trace(
            "rack.measure", slots=len(self.boards), n_captures=n_captures
        ) as span:
            fleet = capture_fleet(
                [self.boards[i] for i in live],
                n_captures,
                payloads=[payloads[i] for i in live],
                resilient=True,
                retry=self.retry,
            )
            for pos, index in enumerate(live):
                exc = fleet.slot_errors[pos]
                if exc is not None:
                    self.health.record_failure(index)
                    telemetry.count("slots.failed")
                    results[index] = SlotResult(
                        slot=index,
                        status="failed",
                        error=exc,
                        attempts=max(1, fleet.attempts[pos]),
                    )
                    continue
                self.health.record_success(index)
                results[index] = SlotResult(
                    slot=index,
                    status="ok" if fleet.attempts[pos] <= 1 else "retried",
                    value=fleet.errors[pos],
                    attempts=max(1, fleet.attempts[pos]),
                )
            span.set(
                ok=sum(1 for r in results if r.ok),
                failed=sum(1 for r in results if r.status == "failed"),
                quarantined=sum(
                    1 for r in results if r.status == "quarantined"
                ),
            )
        return results
