"""Run the fleet service over HTTP the way ``repro serve`` does, for the
``http-journal`` workload.

Usage: ``python -m perfbench.launcher '<ServiceConfig kwargs as JSON>'``
with the repository root and its ``src`` on ``PYTHONPATH``.

The service runs in the main thread (``serve_forever``).  A control
thread reads one command per line from stdin and answers one JSON line
on stdout:

- ``usage`` -> ``{"event": "usage", "maxrss_kib", "cpu_s"}``;
- ``trace-start`` -> installs the service-side wrappers, ``{"event": "traced"}``;
- ``trace-stop ["SUMMARY", "SPANS"]`` -> removes them, writes the
  aggregated spans and the end-of-phase service state to SUMMARY as JSON
  and the spans to SPANS as JSON lines, ``{"event": "untraced"}``;
- ``stop`` (or end of input) -> graceful drain; the last line is
  ``{"event": "exit", "maxrss_kib", "cpu_s"}``.
"""

from __future__ import annotations

import asyncio
import json
import sys
import threading

from perfbench.tracer import SERVICE_TARGETS, Tracer, aggregate, service_state
from perfbench.workloads import usage

from repro.service import ServiceConfig, serve_forever

_emit_lock = threading.Lock()


def emit(event: str, **fields) -> None:
    with _emit_lock:
        sys.stdout.write(json.dumps({"event": event, **fields}) + "\n")
        sys.stdout.flush()


def control(service, loop) -> None:
    tracer = None
    for line in sys.stdin:
        command, _, arg = line.strip().partition(" ")
        if command == "usage":
            emit("usage", **usage())
        elif command == "trace-start":
            tracer = Tracer(SERVICE_TARGETS).install()
            emit("traced")
        elif command == "trace-stop":
            tracer.remove()
            summary, spans = json.loads(arg)
            with open(summary, "w", encoding="utf-8") as out:
                json.dump(
                    {"aggregate": aggregate(tracer), "state": service_state(service)},
                    out,
                )
            tracer.dump(spans)
            tracer = None
            emit("untraced")
        elif command == "stop":
            break
    if tracer is not None:
        tracer.remove()
    loop.call_soon_threadsafe(service.request_shutdown)


def main(argv) -> int:
    config = ServiceConfig(**json.loads(argv[0]))

    def on_ready(service) -> None:
        loop = asyncio.get_running_loop()
        threading.Thread(
            target=control, args=(service, loop), name="perfbench-control", daemon=True
        ).start()
        emit("ready", port=service.port)

    serve_forever(config, on_ready=on_ready)
    emit("exit", **usage())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
