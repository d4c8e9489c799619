"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the public calls into each layer of the fleet
service (see ``SERVICE_TARGETS`` / ``CLIENT_TARGETS``), records one span
per call — name, start, end, thread CPU, parent and thread — in memory,
and puts every original attribute back on :meth:`Tracer.remove`.  The
program's source is never touched; the wrappers live only for the
traced phase of a ``--trace 1`` run.

:func:`aggregate` folds one process's spans into per-layer sums (wall,
CPU, self time) that can be merged across the benchmark process and the
``http-journal`` service child; :func:`layer_metrics` turns the merged
sums into the per-layer ledger declared in ``PER_LAYER``.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

from perfbench.stats import self_time

#: (span name, module, attribute path) — the service-side layers, in
#: request order.  A bare function name is patched in every loaded
#: ``repro`` module that bound it by ``from ... import``.
SERVICE_TARGETS = (
    ("server.submit", "repro.service.server", "FleetService.submit"),
    ("journal.admit", "repro.service.journal", "Journal.admit"),
    ("journal.complete", "repro.service.journal", "Journal.complete"),
    ("shards.execute_batch", "repro.service.shards", "Shard.execute_batch"),
    ("shards.host_channel", "repro.service.shards", "FleetHost.channel"),
    ("device.build", "repro.experiments.common", "make_varied_device"),
    ("pipeline.send", "repro.core.pipeline", "InvisibleBits.send"),
    ("pipeline.decode_state", "repro.core.pipeline", "InvisibleBits.decode_state"),
    ("pipeline.receive", "repro.core.pipeline", "InvisibleBits.receive"),
    ("board.stage", "repro.harness.controlboard", "ControlBoard.stage_payload"),
    ("board.stress", "repro.harness.controlboard", "ControlBoard.encode"),
    ("board.camouflage", "repro.harness.controlboard", "ControlBoard.load_camouflage"),
    ("fleetcapture.capture", "repro.core.fleetcapture", "capture_fleet"),
    ("sram.apply_power", "repro.sram.array", "SRAMArray.apply_power"),
    ("monitor.sample", "repro.monitor.fleet", "FleetMonitor.sample"),
)

#: The HTTP client side, wrapped in the process that drives the load.
CLIENT_TARGETS = (
    ("client.send", "repro.service.client", "ServiceClient.send"),
    ("client.receive", "repro.service.client", "ServiceClient.receive"),
    ("client.connect", "http.client", "HTTPConnection.connect"),
)

#: Synchronous layers timed as wall, thread CPU and self time, with the
#: unit each is normalised by.
TIMED = (
    ("journal.admit", "req"),
    ("journal.complete", "req"),
    ("shards.execute_batch", "msg"),
    ("shards.host_channel", "msg"),
    ("device.build", "msg"),
    ("pipeline.send", "msg"),
    ("board.stage", "msg"),
    ("board.stress", "msg"),
    ("board.camouflage", "msg"),
    ("sram.apply_power", "msg"),
    ("fleetcapture.capture", "msg"),
    ("pipeline.decode_state", "msg"),
    ("pipeline.receive", "msg"),
    ("monitor.sample", "batch"),
)


def _per_layer_spec():
    spec = [
        ("client.http_overhead_ms_per_req", "ms/req", "lower"),
        ("client.connects_per_req", "count/req", "lower"),
        ("server.submit_ms_per_req", "ms/req", "lower"),
        ("queue.wait_ms_per_req", "ms/req", "lower"),
        ("queue.jobs_per_batch", "jobs", "higher"),
    ]
    for span, per in TIMED:
        for kind in ("", "_cpu", "_self"):
            spec.append((f"{span}{kind}_ms_per_{per}", f"ms/{per}", "lower"))
    spec += [
        ("shards.execute_batch_child_share", "ratio", "higher"),
        ("shards.resident_devices_end", "devices", "lower"),
        ("sram.apply_power_per_msg", "count/msg", "lower"),
        ("fleetcapture.slots_per_call", "slots", "higher"),
        ("fleetcapture.kernel_slot_share", "ratio", "higher"),
        ("fleetcapture.attempts_per_slot", "attempts", "lower"),
        ("pipeline.receive_fallbacks_per_msg", "count/msg", "lower"),
        ("monitor.sample_growth_x", "x", "lower"),
        ("metrics.lane_series_end", "series", "lower"),
        ("trace.overhead_x", "x", "lower"),
    ]
    return tuple(spec)


#: (name, unit, better) of every per-layer metric a traced run reports.
PER_LAYER = _per_layer_spec()

_CURRENT = contextvars.ContextVar("perfbench_span", default=None)


def _resolve(module_name: str, path: str):
    module = importlib.import_module(module_name)
    *owners, attr = path.split(".")
    owner = module
    for part in owners:
        owner = getattr(owner, part)
    return module, owner, attr, bool(owners)


def binding_sites(targets):
    """Every ``(span name, owner, attribute, object bound there)`` the
    targets resolve to — what :meth:`Tracer.remove` puts back."""
    sites = []
    for name, module_name, path in targets:
        module, owner, attr, is_method = _resolve(module_name, path)
        if is_method:
            sites.append((name, owner, attr, vars(owner)[attr]))
            continue
        original = getattr(module, attr)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "") or ""
            if mod is module or (
                mod_name.startswith("repro") and vars(mod).get(attr) is original
            ):
                sites.append((name, mod, attr, original))
    return sites


class Tracer:
    """Install span-recording wrappers; :meth:`remove` undoes them."""

    def __init__(self, targets):
        self.targets = tuple(targets)
        #: (span_id, parent_id, name, start, end, cpu_s|None, thread)
        self.spans: "list[tuple]" = []
        self._ids = itertools.count(1)
        self._patches: "list[tuple]" = []
        #: id(request) -> perf_counter at entry to FleetService.submit.
        self._submitted: "dict[int, float]" = {}
        #: Seconds from submit entry to the start of the job's batch.
        self.queue_waits: "list[float]" = []
        self.batch_sizes: "list[int]" = []
        #: (slots, kernel slots, attempts) per capture_fleet call.
        self.captures: "list[tuple[int, int, int]]" = []

    # -- hooks on specific layers ------------------------------------------------

    def _before(self, name: str, args, kwargs, t0: float) -> None:
        if name == "server.submit":
            request = args[1] if len(args) > 1 else kwargs["request"]
            self._submitted[id(request)] = t0
        elif name == "shards.execute_batch":
            jobs = args[1] if len(args) > 1 else kwargs["jobs"]
            self.batch_sizes.append(len(jobs))
            for job in jobs:
                entered = self._submitted.pop(id(job.request), None)
                if entered is not None:
                    self.queue_waits.append(t0 - entered)

    def _after(self, name: str, result) -> None:
        if name == "fleetcapture.capture":
            self.captures.append(
                (
                    len(result.vectorized),
                    result.kernel_slots,
                    sum(result.attempts),
                )
            )

    # -- wrappers ----------------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self
        spans = self.spans
        ids = self._ids

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                span_id = next(ids)
                parent = _CURRENT.get()
                token = _CURRENT.set(span_id)
                t0 = time.perf_counter()
                tracer._before(name, args, kwargs, t0)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    _CURRENT.reset(token)
                    spans.append(
                        (span_id, parent, name, t0, t1, None,
                         threading.get_ident())
                    )

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            parent = _CURRENT.get()
            token = _CURRENT.set(span_id)
            c0 = time.thread_time()
            t0 = time.perf_counter()
            tracer._before(name, args, kwargs, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                c1 = time.thread_time()
                _CURRENT.reset(token)
                spans.append(
                    (span_id, parent, name, t0, t1, c1 - c0,
                     threading.get_ident())
                )
            tracer._after(name, result)
            return result

        return wrapper

    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers: "dict[int, object]" = {}
        for name, owner, attr, original in binding_sites(self.targets):
            wrapper = wrappers.get(id(original))
            if wrapper is None:
                wrapper = wrappers[id(original)] = self._wrap(name, original)
            setattr(owner, attr, wrapper)
            self._patches.append((owner, attr, original))
        return self

    def remove(self) -> None:
        """Put back every original attribute, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            if vars(owner).get(attr) is not original:
                raise RuntimeError(f"could not restore {owner!r}.{attr}")

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    def dump(self, path) -> None:
        """Write the spans out, one JSON object per line."""
        with open(path, "w", encoding="utf-8") as out:
            for sid, parent, name, t0, t1, cpu, thread in self.spans:
                out.write(
                    json.dumps(
                        {
                            "id": sid,
                            "parent": parent,
                            "name": name,
                            "start": t0,
                            "end": t1,
                            "cpu_s": cpu,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def aggregate(tracer: Tracer) -> dict:
    """Fold one process's spans into mergeable per-layer sums."""
    children: "dict[int, list]" = {}
    for sid, parent, _name, t0, t1, _cpu, _thread in tracer.spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    layers: "dict[str, dict]" = {}
    samples = []
    for sid, _parent, name, t0, t1, cpu, _thread in tracer.spans:
        entry = layers.setdefault(
            name, {"n": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
        )
        entry["n"] += 1
        entry["wall_s"] += t1 - t0
        entry["cpu_s"] += cpu or 0.0
        entry["self_s"] += self_time(t0, t1, children.get(sid, ()))
        if name == "monitor.sample":
            samples.append((t0, t1 - t0))
    return {
        "layers": layers,
        "queue_wait_s": sum(tracer.queue_waits),
        "queue_waits": len(tracer.queue_waits),
        "batch_jobs": sum(tracer.batch_sizes),
        "batches": len(tracer.batch_sizes),
        "capture_slots": sum(c[0] for c in tracer.captures),
        "capture_kernel_slots": sum(c[1] for c in tracer.captures),
        "capture_attempts": sum(c[2] for c in tracer.captures),
        "capture_calls": len(tracer.captures),
        "monitor_sample_s": [wall for _, wall in sorted(samples)],
    }


def merge(a: dict, b: dict) -> dict:
    """Sum two :func:`aggregate` results (e.g. client and service side)."""
    out = {}
    for key in a.keys() | b.keys():
        if key == "layers":
            layers = {}
            for side in (a.get(key, {}), b.get(key, {})):
                for name, entry in side.items():
                    acc = layers.setdefault(
                        name, {"n": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0}
                    )
                    for field, value in entry.items():
                        acc[field] += value
            out[key] = layers
        elif key == "monitor_sample_s":
            out[key] = list(a.get(key, [])) + list(b.get(key, []))
        else:
            out[key] = a.get(key, 0) + b.get(key, 0)
    return out


def service_state(service) -> dict:
    """End-of-phase sizes the ledger reports: resident devices and the
    number of metric series held by the lane registries."""
    series = sum(
        len(instrument.series())
        for shard in service.shards.values()
        for instrument in shard.registry.instruments()
    )
    return {"resident_devices": service.host.n_resident, "lane_series": series}


def _growth(walls, parts: int = 4) -> float:
    width = len(walls) // parts
    if width < 1:
        return 0.0
    first = sum(walls[:width]) / width
    last = sum(walls[-width:]) / width
    return last / first if first > 0 else 0.0


def layer_metrics(
    agg: dict, *, msgs: int, reqs: int, state: dict, overhead_x: float
) -> dict:
    """The ``PER_LAYER`` ledger from merged sums; 0 where a layer did not run."""
    layers = agg.get("layers", {})

    def layer(name):
        return layers.get(name, {"n": 0, "wall_s": 0.0, "cpu_s": 0.0, "self_s": 0.0})

    def ratio(num, den):
        return num / den if den else 0.0

    per = {"msg": msgs, "req": reqs, "batch": layer("monitor.sample")["n"]}
    values = {}
    client = layer("client.send")["wall_s"] + layer("client.receive")["wall_s"]
    client_n = layer("client.send")["n"] + layer("client.receive")["n"]
    values["client.http_overhead_ms_per_req"] = (
        ratio(client - layer("server.submit")["wall_s"], client_n) * 1e3
        if client_n
        else 0.0
    )
    values["client.connects_per_req"] = ratio(layer("client.connect")["n"], client_n)
    values["server.submit_ms_per_req"] = ratio(layer("server.submit")["wall_s"], reqs) * 1e3
    values["queue.wait_ms_per_req"] = ratio(agg.get("queue_wait_s", 0.0), agg.get("queue_waits", 0)) * 1e3
    values["queue.jobs_per_batch"] = ratio(agg.get("batch_jobs", 0), agg.get("batches", 0))
    for span, unit in TIMED:
        entry = layer(span)
        for kind, field in (("", "wall_s"), ("_cpu", "cpu_s"), ("_self", "self_s")):
            values[f"{span}{kind}_ms_per_{unit}"] = ratio(entry[field], per[unit]) * 1e3
    batch = layer("shards.execute_batch")
    values["shards.execute_batch_child_share"] = ratio(
        batch["wall_s"] - batch["self_s"], batch["wall_s"]
    )
    values["shards.resident_devices_end"] = float(state.get("resident_devices", 0))
    values["sram.apply_power_per_msg"] = ratio(layer("sram.apply_power")["n"], msgs)
    values["fleetcapture.slots_per_call"] = ratio(
        agg.get("capture_slots", 0), agg.get("capture_calls", 0)
    )
    values["fleetcapture.kernel_slot_share"] = ratio(
        agg.get("capture_kernel_slots", 0), agg.get("capture_slots", 0)
    )
    values["fleetcapture.attempts_per_slot"] = ratio(
        agg.get("capture_attempts", 0), agg.get("capture_slots", 0)
    )
    values["pipeline.receive_fallbacks_per_msg"] = ratio(layer("pipeline.receive")["n"], msgs)
    values["monitor.sample_growth_x"] = _growth(agg.get("monitor_sample_s", []))
    values["metrics.lane_series_end"] = float(state.get("lane_series", 0))
    values["trace.overhead_x"] = overhead_x
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit, _ in PER_LAYER
    }
