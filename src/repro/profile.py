"""A low-overhead sampling profiler for soaks and services.

The PR-6 kernel made single-batch capture fast; finding the *next* hot
path needs whole-process visibility while a realistic soak runs.  This
module is a classic sampling profiler: a daemon thread wakes every
``interval_s`` seconds, snapshots every thread's Python stack via
:func:`sys._current_frames`, and counts identical stacks.  The output is
the **collapsed-stack** format flamegraph tooling consumes —

::

    repro.service.shards:execute_batch;repro.sram.array:capture 412

one line per unique stack, frames joined by ``;``, trailing sample
count — and is also readable by eye sorted by count.

Two clocks:

- ``mode="wall"`` (default) keeps every sample: blocked threads show
  their wait stacks, which is what you want for latency questions
  (where does a request *wait*?).
- ``mode="cpu"`` drops samples whose leaf frame is a known idle point
  (``time.sleep``, lock/queue waits, selector polls), approximating an
  on-CPU profile without platform timers.

Overhead is bounded by design: sampling does O(threads × depth) work per
tick and nothing at all between ticks; the service soak bench gates the
profiled/unprofiled throughput ratio at ≤ 1.25x
(``profiler_overhead_x`` in ``BENCH_substrate.json``).

Activation:

- in process — :class:`SamplingProfiler` or :func:`profiling`;
- CLI — the global ``--profile-out PATH`` flag profiles any ``repro``
  command;
- environment — ``REPRO_PROFILE=/path/to/profile.txt`` starts a global
  profiler at import and writes the collapsed stacks at exit
  (``REPRO_PROFILE_INTERVAL_MS`` tunes the tick, default 5 ms).
"""

from __future__ import annotations

import atexit
import os
import pathlib
import sys
import threading
import time
from contextlib import contextmanager

__all__ = [
    "SamplingProfiler",
    "profiling",
    "start_global_profiler",
    "stop_global_profiler",
]

#: Leaf frames that mean "this thread is parked", for mode="cpu".
_IDLE_LEAVES = {
    ("time", "sleep"),
    ("threading", "wait"),
    ("threading", "_wait_for_tstate_lock"),
    ("queue", "get"),
    ("selectors", "select"),
    ("ssl", "read"),
    ("socket", "accept"),
    ("socket", "recv"),
    ("socket", "recv_into"),
    # A parked executor worker blocks in the C-level SimpleQueue.get, so
    # its loop function is the leaf Python frame.
    ("concurrent.futures.thread", "_worker"),
}

_MAX_DEPTH = 64


def _frame_label(frame) -> str:
    module = frame.f_globals.get("__name__", "?")
    return f"{module}:{frame.f_code.co_name}"


class SamplingProfiler:
    """Count collapsed Python stacks at a fixed sampling interval."""

    def __init__(self, interval_s: float = 0.005, *, mode: str = "wall"):
        if interval_s <= 0:
            raise ValueError(f"interval_s must be positive, got {interval_s!r}")
        if mode not in ("wall", "cpu"):
            raise ValueError(f"mode must be 'wall' or 'cpu', got {mode!r}")
        self.interval_s = float(interval_s)
        self.mode = mode
        self.samples: "dict[tuple[str, ...], int]" = {}
        self.total_samples = 0
        self.dropped_idle = 0
        self.started_at: "float | None" = None
        self.duration_s = 0.0
        self._thread: "threading.Thread | None" = None
        self._stop = threading.Event()
        self._lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> "SamplingProfiler":
        if self.running:
            return self
        self._stop.clear()
        self.started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=5.0)
        self._thread = None
        if self.started_at is not None:
            self.duration_s += time.perf_counter() - self.started_at
            self.started_at = None
        return self

    def _run(self) -> None:
        own_id = threading.get_ident()
        while not self._stop.wait(self.interval_s):
            self._sample(own_id)

    # -- sampling ------------------------------------------------------------

    def _sample(self, own_id: int) -> None:
        frames = sys._current_frames()
        collected = []
        for thread_id, frame in frames.items():
            if thread_id == own_id:
                continue
            stack = []
            depth = 0
            leaf = frame
            while frame is not None and depth < _MAX_DEPTH:
                stack.append(_frame_label(frame))
                frame = frame.f_back
                depth += 1
            if not stack:
                continue
            if self.mode == "cpu":
                module = leaf.f_globals.get("__name__", "?")
                if (module, leaf.f_code.co_name) in _IDLE_LEAVES:
                    collected.append(None)
                    continue
            stack.reverse()
            collected.append(tuple(stack))
        del frames
        with self._lock:
            for stack in collected:
                if stack is None:
                    self.dropped_idle += 1
                    continue
                self.samples[stack] = self.samples.get(stack, 0) + 1
                self.total_samples += 1

    # -- output --------------------------------------------------------------

    def collapsed(self) -> str:
        """The samples in collapsed-stack format, heaviest stack first."""
        with self._lock:
            items = sorted(
                self.samples.items(), key=lambda kv: kv[1], reverse=True
            )
        return "\n".join(f"{';'.join(stack)} {count}" for stack, count in items)

    def write(self, path) -> pathlib.Path:
        """Write the collapsed stacks to ``path``; returns the path.

        The file always ends with a comment line carrying the sampling
        metadata, so an empty profile (a run too short to catch a single
        tick) is still distinguishable from a failed write.
        """
        path = pathlib.Path(path)
        body = self.collapsed()
        meta = (
            f"# repro-profile mode={self.mode} interval_s={self.interval_s:g} "
            f"samples={self.total_samples} dropped_idle={self.dropped_idle} "
            f"duration_s={self.duration_s:.3f}"
        )
        path.write_text(
            (body + "\n" if body else "") + meta + "\n", encoding="utf-8"
        )
        return path


@contextmanager
def profiling(path=None, *, interval_s: float = 0.005, mode: str = "wall"):
    """Profile the block; write collapsed stacks to ``path`` on exit.

    Yields the live :class:`SamplingProfiler` (so callers can also read
    ``collapsed()`` in memory when ``path`` is ``None``).
    """
    profiler = SamplingProfiler(interval_s, mode=mode).start()
    try:
        yield profiler
    finally:
        profiler.stop()
        if path is not None:
            profiler.write(path)


_global_profiler: "SamplingProfiler | None" = None
_global_path: "str | None" = None


def start_global_profiler(
    path, *, interval_s: float = 0.005, mode: str = "wall"
) -> SamplingProfiler:
    """Start (or return) the process-wide profiler writing to ``path``."""
    global _global_profiler, _global_path
    if _global_profiler is None:
        _global_profiler = SamplingProfiler(interval_s, mode=mode).start()
        _global_path = str(path)
        atexit.register(stop_global_profiler)
    return _global_profiler


def stop_global_profiler() -> "pathlib.Path | None":
    """Stop the process-wide profiler and flush its output file."""
    global _global_profiler, _global_path
    if _global_profiler is None:
        return None
    profiler, path = _global_profiler, _global_path
    _global_profiler = None
    _global_path = None
    profiler.stop()
    return profiler.write(path)


_env_profile = os.environ.get("REPRO_PROFILE")
if _env_profile:  # pragma: no cover - exercised via CI env, not unit tests
    _env_interval = float(os.environ.get("REPRO_PROFILE_INTERVAL_MS", "5"))
    start_global_profiler(_env_profile, interval_s=_env_interval / 1e3)
