"""FleetService end to end: soak, drain, shed, sticky routing, metrics."""

from __future__ import annotations

import asyncio

import pytest

from repro import metrics
from repro.api import ReceiveRequest, SendRequest
from repro.errors import AdmissionError, ServiceError, ServiceStoppedError
from repro.service import (
    FleetService,
    LoadGenerator,
    ServiceConfig,
    ServiceClient,
)


def run(coro):
    return asyncio.run(coro)


def test_soak_round_trips_every_message_across_shards():
    async def scenario():
        service = FleetService(ServiceConfig(shards=4))
        await service.start()
        generator = LoadGenerator(seed=11, message_bytes=8)
        report = await generator.run(service, 60, concurrency=24)
        stats = service.stats()
        await service.stop()
        return report, stats

    report, stats = run(scenario())
    assert report.lost == 0
    assert report.completed == 60
    assert report.failed == 0 and report.shed == 0 and report.mismatched == 0
    # Work really spread over all four lanes.
    busy = [q for q in stats["queues"].values() if q["enqueued"] > 0]
    assert len(busy) == 4
    assert stats["devices"] == 60


def test_results_carry_shard_and_digests():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        sent = await service.submit(
            SendRequest(device_id="dev-a", message=b"payload")
        )
        received = await service.submit(ReceiveRequest(device_id="dev-a"))
        await service.stop()
        return sent, received

    sent, received = run(scenario())
    assert sent.shard in ("shard-0", "shard-1")
    # Sticky home: both legs of a device's life run on the same lane.
    assert received.shard == sent.shard
    assert received.message == b"payload"
    assert received.raw_ber is not None  # service knows the truth
    assert len(received.state_digest) == 16


def test_receive_before_send_fails_cleanly():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        try:
            with pytest.raises(ServiceError, match="no staged message"):
                await service.submit(ReceiveRequest(device_id="ghost"))
        finally:
            await service.stop()

    run(scenario())


def test_submit_after_drain_is_rejected():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        await service.submit(SendRequest(device_id="dev-b", message=b"x"))
        await service.drain()
        with pytest.raises(ServiceStoppedError):
            await service.submit(ReceiveRequest(device_id="dev-b"))
        await service.stop(drain=False)

    run(scenario())


def test_wait_false_sheds_on_full_queue():
    async def scenario():
        # One shard, tiny queue, and no workers started yet: the queue
        # genuinely backs up.
        service = FleetService(ServiceConfig(shards=1, queue_depth=2))
        await service.start()
        # Stall the single worker with a slow first job, then overfill.
        jobs = [
            asyncio.create_task(
                service.submit(
                    SendRequest(device_id=f"dev-{i}", message=b"x"),
                    wait=False,
                )
            )
            for i in range(12)
        ]
        done = await asyncio.gather(*jobs, return_exceptions=True)
        await service.stop()
        return done, service

    done, service = run(scenario())
    shed = [r for r in done if isinstance(r, AdmissionError)]
    succeeded = [r for r in done if not isinstance(r, BaseException)]
    assert len(shed) + len(succeeded) == 12
    assert shed, "a 2-deep queue must shed some of 12 instant submissions"
    assert service.admission.stats()["shed"] == len(shed)


def test_drain_completes_all_queued_jobs():
    async def scenario():
        service = FleetService(ServiceConfig(shards=3))
        await service.start()
        sends = [
            asyncio.create_task(
                service.submit(
                    SendRequest(device_id=f"dev-{i}", message=b"drain me")
                )
            )
            for i in range(12)
        ]
        await asyncio.sleep(0)  # jobs enqueued, most still unserved
        await service.drain()
        results = await asyncio.gather(*sends)
        await service.stop(drain=False)
        return results

    results = run(scenario())
    assert len(results) == 12
    assert all(r.payload_digest for r in results)


def test_service_metrics_flow_into_global_registry():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        generator = LoadGenerator(seed=13)
        await generator.run(service, 8, concurrency=4)
        exposition = metrics.registry.expose()
        await service.stop()
        return exposition

    exposition = run(scenario())
    assert "repro_service_jobs_total" in exposition
    assert 'status="ok"' in exposition
    assert "repro_service_queue_depth" in exposition


def test_stats_shape():
    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        await service.submit(SendRequest(device_id="dev-s", message=b"x"))
        stats = service.stats()
        await service.stop()
        return stats

    stats = run(scenario())
    assert stats["completed"] == 1
    assert set(stats["queues"]) == {"shard-0", "shard-1"}
    assert stats["admission"]["healthy"] == ["shard-0", "shard-1"]
    for shard_stats in stats["shards"].values():
        assert shard_stats["active_alerts"] == []


def test_lane_registry_series_do_not_grow_with_devices_served():
    def lane_series(service) -> int:
        return sum(
            len(instrument.series())
            for shard in service.shards.values()
            for instrument in shard.registry.instruments()
        )

    async def scenario():
        service = FleetService(ServiceConfig(shards=2))
        await service.start()
        counts = []
        try:
            for index in range(32):
                device_id = f"card-{index:02d}"
                await service.submit(
                    SendRequest(device_id=device_id, message=b"c")
                )
                await service.submit(ReceiveRequest(device_id=device_id))
                if index + 1 in (8, 32):
                    counts.append(lane_series(service))
        finally:
            await service.stop()
        return counts

    after_8, after_32 = run(scenario())
    assert after_8 == after_32


def test_client_rejects_bad_url():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        ServiceClient("http://")
