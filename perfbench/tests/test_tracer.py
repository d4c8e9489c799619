"""Wrapper install/remove, span parenting and the per-layer ledger."""

import asyncio
import json
import pathlib
import sys
import types

import pytest

from perfbench import tracer as tr

ROOT = pathlib.Path(__file__).resolve().parents[2]


def _fake_layers():
    """Two throwaway ``repro_fake_*`` modules: a class with sync and
    async methods, and a function bound by name in both modules."""
    lower = types.ModuleType("repro_fake_lower")
    upper = types.ModuleType("repro_fake_upper")

    def leaf(x):
        return x + 1

    class Layer:
        def outer(self, x):
            return upper.leaf(x) * 2

        async def serve(self, x):
            await asyncio.sleep(0)
            return self.outer(x)

    lower.leaf = leaf
    upper.leaf = leaf
    lower.Layer = Layer
    return lower, upper


@pytest.fixture
def fake_layers():
    lower, upper = _fake_layers()
    sys.modules[lower.__name__] = lower
    sys.modules[upper.__name__] = upper
    try:
        yield lower, upper
    finally:
        del sys.modules[lower.__name__]
        del sys.modules[upper.__name__]


FAKE_TARGETS = (
    ("fake.serve", "repro_fake_lower", "Layer.serve"),
    ("fake.outer", "repro_fake_lower", "Layer.outer"),
    ("fake.leaf", "repro_fake_lower", "leaf"),
)


def test_install_then_remove_restores_every_program_attribute():
    targets = tr.SERVICE_TARGETS + tr.CLIENT_TARGETS
    before = [(owner, attr, obj) for _, owner, attr, obj in tr.binding_sites(targets)]
    assert len(before) >= len(targets)
    t = tr.Tracer(targets).install()
    try:
        for owner, attr, original in before:
            wrapped = vars(owner)[attr]
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
    finally:
        t.remove()
    for owner, attr, original in before:
        assert vars(owner)[attr] is original, f"{owner!r}.{attr}"


def test_function_bound_in_two_modules_is_patched_and_restored(fake_layers):
    lower, upper = fake_layers
    original = lower.leaf
    with tr.Tracer(FAKE_TARGETS):
        assert lower.leaf is upper.leaf
        assert lower.leaf is not original
    assert lower.leaf is original and upper.leaf is original


def test_spans_nest_across_sync_and_async_calls(fake_layers):
    lower, _ = fake_layers
    with tr.Tracer(FAKE_TARGETS) as t:
        assert asyncio.run(lower.Layer().serve(3)) == 8
    by_name = {span[2]: span for span in t.spans}
    assert set(by_name) == {"fake.serve", "fake.outer", "fake.leaf"}
    serve, outer, leaf = (by_name[n] for n in ("fake.serve", "fake.outer", "fake.leaf"))
    assert serve[1] is None
    assert outer[1] == serve[0]
    assert leaf[1] == outer[0]
    assert serve[5] is None  # no thread CPU for an async span
    assert outer[5] is not None and outer[5] >= 0
    assert serve[3] <= outer[3] <= leaf[3] <= leaf[4] <= outer[4] <= serve[4]

    agg = tr.aggregate(t)
    layers = agg["layers"]
    assert layers["fake.leaf"]["self_s"] == pytest.approx(layers["fake.leaf"]["wall_s"])
    assert layers["fake.outer"]["self_s"] == pytest.approx(
        layers["fake.outer"]["wall_s"] - layers["fake.leaf"]["wall_s"]
    )


def test_dump_writes_one_json_line_per_span(fake_layers, tmp_path):
    lower, _ = fake_layers
    with tr.Tracer(FAKE_TARGETS) as t:
        lower.Layer().outer(1)
        lower.Layer().outer(2)
    path = tmp_path / "spans.jsonl"
    t.dump(path)
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(lines) == 4
    assert {line["name"] for line in lines} == {"fake.outer", "fake.leaf"}
    assert all(line["end"] >= line["start"] for line in lines)


def test_merge_sums_two_processes():
    a = {
        "layers": {"x": {"n": 1, "wall_s": 1.0, "cpu_s": 0.5, "self_s": 1.0}},
        "batches": 2,
        "monitor_sample_s": [0.1],
    }
    b = {
        "layers": {
            "x": {"n": 2, "wall_s": 2.0, "cpu_s": 1.0, "self_s": 1.5},
            "y": {"n": 1, "wall_s": 0.5, "cpu_s": 0.0, "self_s": 0.5},
        },
        "batches": 3,
    }
    merged = tr.merge(a, b)
    assert merged["layers"]["x"] == {"n": 3, "wall_s": 3.0, "cpu_s": 1.5, "self_s": 2.5}
    assert merged["layers"]["y"]["n"] == 1
    assert merged["batches"] == 5
    assert merged["monitor_sample_s"] == [0.1]


def test_layer_metrics_reports_every_declared_metric():
    empty = tr.layer_metrics({}, msgs=10, reqs=20, state={}, overhead_x=1.02)
    assert list(empty) == [name for name, _, _ in tr.PER_LAYER]
    assert empty["trace.overhead_x"]["value"] == 1.02
    assert all(
        entry["value"] == 0.0 for name, entry in empty.items() if name != "trace.overhead_x"
    )

    agg = {
        "layers": {
            "client.send": {"n": 10, "wall_s": 0.06, "cpu_s": 0.0, "self_s": 0.0},
            "client.receive": {"n": 10, "wall_s": 0.04, "cpu_s": 0.0, "self_s": 0.0},
            "client.connect": {"n": 20, "wall_s": 0.002, "cpu_s": 0.0, "self_s": 0.0},
            "server.submit": {"n": 20, "wall_s": 0.06, "cpu_s": 0.0, "self_s": 0.0},
            "shards.execute_batch": {"n": 4, "wall_s": 0.04, "cpu_s": 0.02, "self_s": 0.01},
            "monitor.sample": {"n": 4, "wall_s": 0.008, "cpu_s": 0.008, "self_s": 0.008},
            "sram.apply_power": {"n": 30, "wall_s": 0.003, "cpu_s": 0.003, "self_s": 0.003},
        },
        "queue_wait_s": 0.1,
        "queue_waits": 20,
        "batch_jobs": 20,
        "batches": 4,
        "capture_slots": 10,
        "capture_kernel_slots": 9,
        "capture_attempts": 11,
        "capture_calls": 2,
        "monitor_sample_s": [0.001, 0.001, 0.003, 0.003],
    }
    got = {
        k: v["value"]
        for k, v in tr.layer_metrics(
            agg, msgs=10, reqs=20, state={"resident_devices": 7, "lane_series": 9},
            overhead_x=1.0,
        ).items()
    }
    assert got["client.http_overhead_ms_per_req"] == pytest.approx(2.0)
    assert got["client.connects_per_req"] == pytest.approx(1.0)
    assert got["server.submit_ms_per_req"] == pytest.approx(3.0)
    assert got["queue.wait_ms_per_req"] == pytest.approx(5.0)
    assert got["queue.jobs_per_batch"] == pytest.approx(5.0)
    assert got["shards.execute_batch_ms_per_msg"] == pytest.approx(4.0)
    assert got["shards.execute_batch_cpu_ms_per_msg"] == pytest.approx(2.0)
    assert got["shards.execute_batch_self_ms_per_msg"] == pytest.approx(1.0)
    assert got["shards.execute_batch_child_share"] == pytest.approx(0.75)
    assert got["monitor.sample_ms_per_batch"] == pytest.approx(2.0)
    assert got["monitor.sample_growth_x"] == pytest.approx(3.0)
    assert got["sram.apply_power_per_msg"] == pytest.approx(3.0)
    assert got["fleetcapture.slots_per_call"] == pytest.approx(5.0)
    assert got["fleetcapture.kernel_slot_share"] == pytest.approx(0.9)
    assert got["fleetcapture.attempts_per_slot"] == pytest.approx(1.1)
    assert got["shards.resident_devices_end"] == 7
    assert got["metrics.lane_series_end"] == 9


def test_benchmark_json_declares_the_reported_metrics():
    from perfbench.workloads import END_TO_END, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _, _ in END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == [
        (n, u, b) for n, u, b in END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        tr.PER_LAYER
    )
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
