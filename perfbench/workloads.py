"""The benchmark's workloads, run against the public ``repro.service`` API.

Every workload is closed loop: each caller waits for its reply before it
sends again.  A run is a series of repetitions; each sets up a fresh
service with its own seed and pushes ``MESSAGES[workload]`` messages
through it.  Every repetition does the same work, so its outputs
(results digest, raw BER, captures) must repeat exactly, and its decay
and memory figures do not grow just because a faster program gets
through more messages.

- ``provision`` — in-process service, one asyncio thread with
  ``CONCURRENCY`` messages outstanding; every message is sent to a fresh
  device, received back and compared byte for byte.
- ``reread`` — in-process service; set-up provisions a pool of ``POOL``
  devices, the measured phase only receives from it (message ``j`` reads
  device ``j mod POOL``).
- ``http-journal`` — the service in a child process (``perfbench.launcher``)
  with a write-ahead journal, driven through ``ServiceClient`` over real
  sockets from ``HTTP_CLIENTS`` threads, one fresh device per message.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import json
import os
import pathlib
import queue
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time

from perfbench import stats
from perfbench.tracer import (
    CLIENT_TARGETS,
    SERVICE_TARGETS,
    Tracer,
    aggregate,
    layer_metrics,
    merge,
    service_state,
)

from repro.api import ReceiveRequest, SendRequest
from repro.errors import AdmissionError, ReproError
from repro.service import (
    FleetService,
    LoadGenerator,
    ServiceClient,
    ServiceConfig,
    results_digest,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
STATE_DIR = ROOT / ".perfbench"
#: Where a traced run writes its spans, one JSON object per line.
TRACE_DIR = STATE_DIR / "trace"

WORKLOADS = ("provision", "reread", "http-journal")
MESSAGE_BYTES = 8
#: 24 h instead of the 12 h recipe default: across thousands of varied
#: devices the 12 h raw-BER tail reaches the decode margin, and no
#: operation may fail in a benchmark workload.
STRESS_HOURS = 24.0
#: Requests outstanding from the single in-process load thread — enough
#: to fill ``MAX_BATCH`` on every lane.
CONCURRENCY = 64
MAX_BATCH = 16
QUEUE_DEPTH = 128
#: Lanes never exceed this (nor ``nproc``), so the workload is the same
#: on any machine with at least two cores.
MAX_LANES = 2
#: Closed-loop HTTP client threads.  One, so a message's latency is its
#: own service time: with two, each message also waited out the other
#: client's job, and that queueing swung the p95 by 30-50% run to run.
HTTP_CLIENTS = 1
#: Set by ``run.py`` to the lane count taken before it pins the run to
#: one CPU, so the pin does not change the service's configuration.
LANES_ENV = "PERFBENCH_LANES"
#: Devices in the ``reread`` pool: at least ``CONCURRENCY``, so a batch
#: holds distinct devices.
POOL = 256
#: Messages per repetition.  Every repetition does this fixed amount of
#: work on a fresh service, so its outputs must repeat exactly and its
#: decay and memory figures do not depend on how fast the program is.
MESSAGES = {"provision": 1024, "reread": 4096, "http-journal": 512}
#: Round trips that finish set-up on fresh devices before measuring.
WARMUP = 32
#: Added to the run seed for set-up traffic, so warm-up devices never
#: share an id with measured ones.
WARMUP_SEED_OFFSET = 1_000_000

END_TO_END = (
    ("verified_msgs_per_s", "msg/s", "higher"),
    ("message_p50_ms", "ms", "lower"),
    ("message_p95_ms", "ms", "lower"),
    ("throughput_decay_x", "x", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("cpu_ms_per_msg", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("raw_ber_mean", "ratio", "lower"),
    ("captures_per_msg", "captures", "lower"),
)


class BenchError(RuntimeError):
    """A set-up or protocol failure that makes the run unusable."""


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def lanes() -> int:
    if os.environ.get(LANES_ENV):
        return int(os.environ[LANES_ENV])
    return max(1, min(MAX_LANES, nproc()))


def service_config(workload: str, seed: int, journal_dir=None) -> ServiceConfig:
    extra = {}
    if workload == "http-journal":
        extra = {"journal_dir": str(journal_dir), "port": 0}
    return ServiceConfig(
        shards=lanes(),
        queue_depth=QUEUE_DEPTH,
        max_batch=MAX_BATCH,
        seed=seed,
        **extra,
    )


def config_record(config: ServiceConfig) -> dict:
    """The exact ``ServiceConfig`` as JSON-safe fields (paths elided, so
    the record is the same in every checkout)."""
    out = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        if field.name in ("journal_dir", "archive_dir") and value is not None:
            value = "<run dir>"
        elif not isinstance(value, (int, float, str, bool, type(None))):
            value = repr(value)
        out[field.name] = value
    return out


def usage() -> dict:
    """Peak RSS and user + system CPU of this process so far."""
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return {"maxrss_kib": ru.ru_maxrss, "cpu_s": ru.ru_utime + ru.ru_stime}


class Recorder:
    """Accounting for one repetition; thread-safe for the HTTP loop."""

    def __init__(self, total: int):
        self.total = total
        self.lock = threading.Lock()
        self.start = time.perf_counter()
        self.end = None
        self.attempted = self.completed = 0
        self.failed = self.shed = self.mismatched = 0
        self.send_ms: "list[float]" = []
        self.receive_ms: "list[float]" = []
        self.message_ms: "list[float]" = []
        self.done_at: "list[float]" = []
        self.results: "dict[int, tuple]" = {}
        self.errors: "list[str]" = []

    def issue(self) -> "int | None":
        """The next message index, or ``None`` once all are issued."""
        with self.lock:
            if self.attempted >= self.total:
                return None
            self.attempted += 1
            return self.attempted - 1

    def ok(self, index, expected, sent, got, t0, t_sent, t_end) -> None:
        with self.lock:
            self.completed += 1
            self.done_at.append(t_end)
            if sent is not None:
                self.send_ms.append((t_sent - t0) * 1e3)
            self.receive_ms.append((t_end - t_sent) * 1e3)
            self.message_ms.append((t_end - t0) * 1e3)
            if got.message != expected:
                self.mismatched += 1
                self._note(f"message {index} ({got.device_id}): payload mismatch")
            self.results[index] = (
                sent.to_dict() if sent is not None else None,
                got.to_dict(),
            )

    def fail(self, index: int, exc: Exception) -> None:
        with self.lock:
            if isinstance(exc, AdmissionError):
                self.shed += 1
            else:
                self.failed += 1
            self._note(f"message {index}: {type(exc).__name__}: {exc}")

    def _note(self, text: str) -> None:
        if len(self.errors) < 10:
            self.errors.append(text)

    # -- results -----------------------------------------------------------------

    @property
    def verified(self) -> int:
        return self.completed - self.mismatched

    @property
    def lost(self) -> int:
        return stats.lost(
            self.attempted,
            completed=self.completed,
            failed=self.failed,
            shed=self.shed,
        )

    def rate(self) -> float:
        return self.verified / (self.end - self.start)

    def outputs(self) -> "dict | None":
        """Digest, raw BER and captures over every message; ``None`` when
        some message did not complete or carried no raw BER."""
        if len(self.results) != self.total:
            return None
        dicts = []
        bers = []
        captures = []
        for index in range(self.total):
            sent, got = self.results[index]
            if sent is not None:
                dicts.append(sent)
            dicts.append(got)
            if got["raw_ber"] is None:
                return None
            bers.append(got["raw_ber"])
            captures.append(got["total_captures"])
        return {
            "results_digest": results_digest(dicts),
            "raw_ber_mean": statistics.fmean(bers),
            "captures_per_msg": statistics.fmean(captures),
        }


# -- in-process workloads -------------------------------------------------------


def _check_report(report, n: int, what: str) -> None:
    if report.lost or report.completed != n or report.mismatched:
        raise BenchError(f"{what} failed: {report.to_dict()}")


def _generators(seed: int):
    """The measured messages' generator and the set-up traffic's."""
    return (
        LoadGenerator(seed=seed, message_bytes=MESSAGE_BYTES, stress_hours=STRESS_HOURS),
        LoadGenerator(
            seed=seed + WARMUP_SEED_OFFSET,
            message_bytes=MESSAGE_BYTES,
            stress_hours=STRESS_HOURS,
        ),
    )


async def _inprocess_rep(workload: str, seed: int, *, traced: bool, label: str) -> dict:
    config = service_config(workload, seed)
    generator, warm = _generators(seed)
    gc.collect()
    t0 = time.perf_counter()
    service = FleetService(config)
    await service.start()
    if workload == "reread":
        report = await generator.run(service, POOL, concurrency=CONCURRENCY)
        _check_report(report, POOL, "reread pool provisioning")
    else:
        report = await warm.run(service, WARMUP, concurrency=WARMUP)
        _check_report(report, WARMUP, "warm-up")
    setup_s = time.perf_counter() - t0

    async def provision(index: int, rec: Recorder) -> None:
        device_id = generator.device_id(index)
        message = generator.message(index)
        t0 = time.perf_counter()
        try:
            sent = await service.submit(
                SendRequest(
                    device_id=device_id,
                    message=message,
                    stress_hours=STRESS_HOURS,
                )
            )
            t_sent = time.perf_counter()
            got = await service.submit(ReceiveRequest(device_id=device_id))
        except ReproError as exc:
            rec.fail(index, exc)
            return
        rec.ok(index, message, sent, got, t0, t_sent, time.perf_counter())

    async def reread(index: int, rec: Recorder) -> None:
        slot = index % POOL
        t0 = time.perf_counter()
        try:
            got = await service.submit(
                ReceiveRequest(device_id=generator.device_id(slot))
            )
        except ReproError as exc:
            rec.fail(index, exc)
            return
        rec.ok(index, generator.message(slot), None, got, t0, t0, time.perf_counter())

    one = provision if workload == "provision" else reread
    gc.collect()
    before = usage()
    tracer = Tracer(SERVICE_TARGETS).install() if traced else None
    try:
        rec = Recorder(MESSAGES[workload])

        async def caller():
            while (index := rec.issue()) is not None:
                await one(index, rec)

        await asyncio.gather(*(caller() for _ in range(CONCURRENCY)))
        rec.end = time.perf_counter()
    finally:
        if tracer is not None:
            tracer.remove()
    after = usage()
    state = service_state(service)
    await service.stop()
    if tracer is not None:
        TRACE_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(TRACE_DIR / f"{label}.jsonl")
    return record(
        rec,
        setup_s=setup_s,
        cpu_s=after["cpu_s"] - before["cpu_s"],
        rss_kib=after["maxrss_kib"],
        requests_per_msg=2 if workload == "provision" else 1,
        config=config_record(config),
        traced=traced,
        agg=aggregate(tracer) if tracer is not None else None,
        state=state,
    )


# -- http-journal ----------------------------------------------------------------


class Child:
    """The service process started through ``perfbench.launcher``.

    It answers one JSON line on stdout per command written to its stdin:
    ``usage``, ``trace-start``, ``trace-stop [summary, spans]`` and
    ``stop``.
    """

    def __init__(self, config_kwargs: dict, log_path: pathlib.Path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
        self._log = open(log_path, "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.launcher", json.dumps(config_kwargs)],
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
            bufsize=1,
        )
        self._lines: "queue.Queue[dict | None]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            if line.startswith("{"):
                self._lines.put(json.loads(line))
        self._lines.put(None)

    def expect(self, event: str, timeout: float) -> dict:
        try:
            message = self._lines.get(timeout=timeout)
        except queue.Empty:
            raise BenchError(f"service child sent no {event!r} in {timeout} s")
        if message is None or message.get("event") != event:
            raise BenchError(f"service child: expected {event!r}, got {message!r}")
        return message

    def command(self, text: str, event: str, timeout: float = 60.0) -> dict:
        self.proc.stdin.write(text + "\n")
        self.proc.stdin.flush()
        return self.expect(event, timeout)

    def stop(self, timeout: float = 150.0) -> dict:
        """Graceful drain and exit; returns the child's final usage."""
        final = self.command("stop", "exit", timeout)
        self.proc.wait(timeout=30)
        return final

    def close(self) -> None:
        """Kill the child if it still runs, and reap it."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            try:
                stream.close()
            except OSError:
                pass
        self._reader.join(timeout=5)
        self._log.close()


def _http_rep(seed: int, *, traced: bool, label: str, run_dir: pathlib.Path) -> dict:
    clients = HTTP_CLIENTS
    generator, warm = _generators(seed)
    journal = run_dir / f"journal-{label}"
    shutil.rmtree(journal, ignore_errors=True)
    config = service_config("http-journal", seed, journal)
    kwargs = {
        f.name: getattr(config, f.name)
        for f in dataclasses.fields(config)
        if getattr(config, f.name) is not None
    }
    t0 = time.perf_counter()
    child = Child(kwargs, run_dir / "service.log")
    try:
        url = f"http://127.0.0.1:{child.expect('ready', 120.0)['port']}"
        report = warm.run_remote(ServiceClient(url), WARMUP, concurrency=clients)
        _check_report(report, WARMUP, "warm-up")
        setup_s = time.perf_counter() - t0

        def caller() -> None:
            client = ServiceClient(url)
            while (index := rec.issue()) is not None:
                device_id = generator.device_id(index)
                message = generator.message(index)
                t0 = time.perf_counter()
                try:
                    sent = client.send(
                        SendRequest(
                            device_id=device_id,
                            message=message,
                            stress_hours=STRESS_HOURS,
                        )
                    )
                    t_sent = time.perf_counter()
                    got = client.receive(ReceiveRequest(device_id=device_id))
                except ReproError as exc:
                    rec.fail(index, exc)
                    continue
                rec.ok(index, message, sent, got, t0, t_sent, time.perf_counter())

        before = child.command("usage", "usage")
        tracer = None
        if traced:
            tracer = Tracer(CLIENT_TARGETS).install()
            child.command("trace-start", "traced")
        try:
            rec = Recorder(MESSAGES["http-journal"])
            threads = [
                threading.Thread(target=caller, name=f"perfbench-client-{i}")
                for i in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            rec.end = time.perf_counter()
        finally:
            if tracer is not None:
                tracer.remove()
        agg = state = None
        if traced:
            TRACE_DIR.mkdir(parents=True, exist_ok=True)
            tracer.dump(TRACE_DIR / f"{label}-client.jsonl")
            summary = run_dir / "service-trace.json"
            paths = [str(summary), str(TRACE_DIR / f"{label}-service.jsonl")]
            child.command(f"trace-stop {json.dumps(paths)}", "untraced")
            served = json.loads(summary.read_text())
            agg = merge(aggregate(tracer), served["aggregate"])
            state = served["state"]
        after = child.command("usage", "usage")
        child.stop()
    finally:
        child.close()
        shutil.rmtree(journal, ignore_errors=True)
    return record(
        rec,
        setup_s=setup_s,
        cpu_s=after["cpu_s"] - before["cpu_s"],
        rss_kib=after["maxrss_kib"],
        requests_per_msg=2,
        config=config_record(config),
        traced=traced,
        agg=agg,
        state=state,
    )


def record(
    rec: Recorder,
    *,
    setup_s: float,
    cpu_s: float,
    rss_kib: int,
    requests_per_msg: int,
    config: dict,
    traced: bool,
    agg: "dict | None",
    state: "dict | None",
) -> dict:
    """A repetition as JSON: counts, outputs, latencies, values, ledger."""
    values = None
    if rec.completed == rec.total:
        values = {
            "verified_msgs_per_s": rec.rate(),
            "message_p50_ms": stats.percentile(rec.message_ms, 50),
            "message_p95_ms": stats.percentile(rec.message_ms, 95),
            "throughput_decay_x": stats.decay_ratio(rec.done_at, rec.total),
            "peak_rss_mib": rss_kib / 1024.0,
            "cpu_ms_per_msg": cpu_s / rec.verified * 1e3,
            "setup_s": setup_s,
        }
    return {
        "traced": traced,
        "total": rec.total,
        "attempted": rec.attempted,
        "completed": rec.completed,
        "failed": rec.failed,
        "shed": rec.shed,
        "lost": rec.lost,
        "mismatched": rec.mismatched,
        "errors": rec.errors,
        "outputs": rec.outputs(),
        "values": values,
        "msgs": rec.verified,
        "reqs": rec.completed * requests_per_msg,
        "latency_ms": {
            "send": rec.send_ms,
            "receive": rec.receive_ms,
            "message": rec.message_ms,
        },
        "config": config,
        "agg": agg,
        "state": state,
    }


def spawn_rep(
    workload: str,
    seed: int,
    *,
    traced: bool,
    label: str,
    run_dir: pathlib.Path,
    timeout: float,
) -> dict:
    """Run one repetition and return its record.

    The service gets a fresh process every repetition, so its peak RSS
    and CPU are those of the fixed work alone: ``http-journal`` starts a
    service child anyway; the in-process workloads run in a fresh
    interpreter.
    """
    if workload == "http-journal":
        return _http_rep(seed, traced=traced, label=label, run_dir=run_dir)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT), str(ROOT / "src")])
    out_path = run_dir / f"{label}.json"
    with open(run_dir / "rep.log", "ab") as log:
        done = subprocess.run(
            [
                sys.executable, "-m", "perfbench.workloads",
                workload, str(seed), str(int(traced)), label, str(out_path),
            ],
            cwd=ROOT,
            env=env,
            stdout=log,
            stderr=log,
            timeout=timeout,
        )
    if done.returncode != 0:
        tail = (run_dir / "rep.log").read_text(errors="replace")[-2000:]
        raise BenchError(f"repetition {label} exited {done.returncode}:\n{tail}")
    return json.loads(out_path.read_text())


# -- metrics ---------------------------------------------------------------------


def end_to_end(records: "list[dict]", simulated_reps: int) -> dict:
    """The end-to-end metrics of a run.

    Every measured metric is the median over the repetitions, so one
    repetition that the machine slowed down does not move it.  The
    latency tail is p95, not p99: about 1% of ``http-journal`` messages
    stall for 70-170 ms, so its p99 sits on the edge of that stall
    population and swings by more than any usable bound from run to run.
    ``raw_ber_mean`` and ``captures_per_msg`` are simulated and repeat
    exactly for a rep seed; they are averaged over the first
    ``simulated_reps`` repetitions, which every run has.
    """
    values = {
        name: statistics.median(r["values"][name] for r in records)
        for name in records[0]["values"]
    }
    values.update(
        (name, statistics.fmean(r["outputs"][name] for r in records[:simulated_reps]))
        for name in ("raw_ber_mean", "captures_per_msg")
    )
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _ in END_TO_END
    }


def per_layer(records: "list[dict]") -> dict:
    """The per-layer ledger over the traced repetitions, with the
    untraced ÷ traced median throughput as ``trace.overhead_x``."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    agg = {}
    for r in traced:
        agg = merge(agg, r["agg"])

    def rate(rs):
        return statistics.median(r["values"]["verified_msgs_per_s"] for r in rs)

    return layer_metrics(
        agg,
        msgs=sum(r["msgs"] for r in traced),
        reqs=sum(r["reqs"] for r in traced),
        state=traced[-1]["state"],
        overhead_x=rate(plain) / rate(traced),
    )


if __name__ == "__main__":
    # python -m perfbench.workloads WORKLOAD SEED TRACED LABEL OUT
    _workload, _seed, _traced, _label, _out = sys.argv[1:]
    _record = asyncio.run(
        _inprocess_rep(_workload, int(_seed), traced=_traced == "1", label=_label)
    )
    pathlib.Path(_out).write_text(json.dumps(_record))
