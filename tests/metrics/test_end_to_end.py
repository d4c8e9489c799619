"""The acceptance path: a real send/stress/receive filling the registry."""

import pytest

from repro import InvisibleBits, metrics, paper_end_to_end_scheme, telemetry
from repro.device import make_device
from repro.harness import ControlBoard


@pytest.fixture
def traced_roundtrip():
    """Run one full send/receive with the bridge riding telemetry."""
    metrics.enable()
    bridge = metrics.TelemetryBridge()
    telemetry.add_sink(bridge)
    try:
        device = make_device("MSP432P401", rng=7, sram_kib=2)
        channel = InvisibleBits(
            ControlBoard(device),
            scheme=paper_end_to_end_scheme(b"0123456789abcdef"),
            use_firmware=False,
        )
        sent = channel.send(b"invisible")
        result = channel.receive(expected_payload=sent.payload_bits)
    finally:
        telemetry.remove_sink(bridge)
    assert result.message == b"invisible"
    return metrics.registry.expose()


def test_exposition_has_labelled_channel_series(traced_roundtrip):
    text = traced_roundtrip
    # Labelled BER histogram and vote-margin buckets.
    assert 'repro_capture_ber_bucket{device="MSP432P401",le="+Inf"}' in text
    assert 'repro_vote_margin_bucket{device="MSP432P401",le="1"}' in text
    assert 'repro_raw_ber{device="MSP432P401"}' in text
    # Retry and quarantine series must be present even when untouched.
    assert "repro_retry_attempts_total" in text
    assert "repro_slots_quarantined_total" in text


def test_exposition_has_direct_hot_path_series(traced_roundtrip):
    text = traced_roundtrip
    assert 'repro_captures_total{device="MSP432P401"}' in text
    assert 'repro_messages_total{phase="send",device="MSP432P401"} 1' in text
    assert 'repro_messages_total{phase="receive",device="MSP432P401"} 1' in text
    cells = metrics.registry.get("repro_capture_cells_total")
    assert cells.series()[()].value > 0


def test_direct_instruments_silent_while_disabled():
    device = make_device("MSP432P401", rng=8, sram_kib=1)
    board = ControlBoard(device)
    assert not metrics.enabled()
    board.capture_power_on_states(3)
    metrics.enable()
    captures = metrics.registry.get("repro_captures_total")
    assert ("MSP432P401",) not in captures.series()


def test_bridge_replays_offline_trace(tmp_path):
    """The same aggregates are reachable from a recorded JSONL trace."""
    trace = tmp_path / "run.jsonl"
    sink = telemetry.JsonlSink(trace)
    telemetry.add_sink(sink)
    try:
        device = make_device("MSP432P401", rng=9, sram_kib=1)
        channel = InvisibleBits(
            ControlBoard(device),
            scheme=paper_end_to_end_scheme(None, copies=3),
            use_firmware=False,
        )
        sent = channel.send(b"off")
        channel.receive(expected_payload=sent.payload_bits)
    finally:
        telemetry.remove_sink(sink)
        sink.close()

    registry = metrics.MetricsRegistry(enabled=True)
    bridge = metrics.TelemetryBridge(registry)
    for record in telemetry.load_records(trace):
        bridge.emit(record)
    text = registry.expose()
    assert 'repro_receives_total{device="MSP432P401",status="ok"} 1' in text
    assert 'repro_raw_ber{device="MSP432P401"}' in text


def _tray(n_devices, *, injector=False):
    """Aged 0.25 KiB boards; ``injector`` attaches a benign fault plan to
    the last one, which routes it to the board's sequenced loop."""
    from repro.faults import FaultInjector, FaultPlan
    from repro.units import hours

    boards = []
    for index in range(n_devices):
        device = make_device("MSP432P401", rng=60 + index, sram_kib=0.25)
        board = ControlBoard(device)
        board.stage_payload(bytes(board.device.sram.n_bytes), use_firmware=False)
        board.device.advance(hours(1))
        board.power_off()
        boards.append(board)
    if injector:
        boards[-1].fault_injector = FaultInjector(FaultPlan(seed=1))
    return boards


def _array_burst(n):
    array = make_device("MSP432P401", rng=70, sram_kib=0.25).sram
    return [array], lambda: array.capture_power_on_states(n), "sram.capture"


def _board_burst(n):
    (board,) = _tray(1)
    run = lambda: board.capture_power_on_states(n)  # noqa: E731
    return [board.device.sram], run, "board.capture"


def _fleet(n_devices, *, injector=False):
    from repro.core.fleetcapture import capture_fleet

    def entry(n):
        boards = _tray(n_devices, injector=injector)
        arrays = [board.device.sram for board in boards]
        return arrays, lambda: capture_fleet(boards, n), "fleet.capture"

    return entry


@pytest.mark.parametrize(
    "entry",
    [
        _array_burst,
        _board_burst,
        _fleet(1),
        _fleet(3),
        _fleet(2, injector=True),
    ],
    ids=[
        "array-burst",
        "board-burst",
        "fleet-one-slot",
        "fleet-multi-slot",
        "fleet-injector-fallback",
    ],
)
def test_capture_counters_tick_once_per_capture(entry, monkeypatch):
    """Every entry point into the capture engine ticks the capture
    counters exactly once per capture and reports the same count on its
    span — no path double-counts, none is missed."""
    monkeypatch.delenv("REPRO_FAULT_PLAN", raising=False)
    n_captures = 3
    arrays, run, span_name = entry(n_captures)
    metrics.enable()
    sink = telemetry.RingBufferSink()
    telemetry.add_sink(sink)
    try:
        run()
    finally:
        telemetry.remove_sink(sink)
    n_bits = sum(array.n_bits for array in arrays)
    cells = metrics.registry.get("repro_capture_cells_total")
    assert cells.series()[()].value == n_captures * n_bits
    captures = metrics.registry.get("repro_captures_total")
    assert captures.series()[("MSP432P401",)].value == n_captures * len(arrays)
    (span,) = sink.records(type="span", name=span_name)
    assert span["counters"]["sram.captures"] == n_captures * len(arrays)
