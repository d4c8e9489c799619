"""The sampling profiler: stacks, clocks, output format."""

from __future__ import annotations

import re
import time

import pytest

from repro.profile import SamplingProfiler, profiling


def _spin(seconds: float) -> None:
    """Busy-wait so the sampler has a CPU-bound stack to catch."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(range(200))


class TestSamplingProfiler:
    def test_collects_samples_from_a_busy_thread(self):
        profiler = SamplingProfiler(interval_s=0.001).start()
        _spin(0.15)
        profiler.stop()
        assert profiler.total_samples > 0
        # The busy-wait helper must appear in at least one stack.
        assert any("_spin" in frame for stack in profiler.samples for frame in stack)

    def test_collapsed_format(self):
        profiler = SamplingProfiler(interval_s=0.001).start()
        _spin(0.1)
        profiler.stop()
        body = profiler.collapsed()
        assert body
        for line in body.splitlines():
            # module:func;module:func... <count>
            assert re.match(r"^\S+:\S.* \d+$", line), line
        counts = [int(line.rsplit(" ", 1)[1]) for line in body.splitlines()]
        assert counts == sorted(counts, reverse=True)

    def test_write_appends_meta_line(self, tmp_path):
        profiler = SamplingProfiler(interval_s=0.001).start()
        _spin(0.05)
        profiler.stop()
        out = profiler.write(tmp_path / "profile.txt")
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("# repro-profile mode=wall")
        assert f"samples={profiler.total_samples}" in lines[-1]

    def test_empty_profile_still_writes_meta(self, tmp_path):
        profiler = SamplingProfiler(interval_s=10.0)
        out = profiler.write(tmp_path / "empty.txt")
        text = out.read_text()
        # Distinguishable from a failed write: exactly the meta comment.
        assert text.startswith("# repro-profile")
        assert "samples=0" in text

    def test_stop_is_idempotent_and_accumulates_duration(self):
        profiler = SamplingProfiler(interval_s=0.001).start()
        _spin(0.02)
        profiler.stop()
        first = profiler.duration_s
        profiler.stop()
        assert profiler.duration_s == first
        assert first > 0

    def test_restart_resumes(self):
        profiler = SamplingProfiler(interval_s=0.001)
        profiler.start()
        _spin(0.03)
        profiler.stop()
        seen = profiler.total_samples
        profiler.start()
        _spin(0.03)
        profiler.stop()
        assert profiler.total_samples >= seen

    def test_invalid_args_rejected(self):
        with pytest.raises(ValueError):
            SamplingProfiler(0)
        with pytest.raises(ValueError):
            SamplingProfiler(0.01, mode="gpu")

    def test_cpu_mode_drops_idle_leaves(self):
        import threading
        from concurrent.futures import ThreadPoolExecutor

        # Park a thread at a Python-level idle leaf (Event.wait lands in
        # threading:wait; time.sleep is C-level and leaves no frame), and
        # an idle executor worker (blocked in C SimpleQueue.get, so its
        # leaf frame is the worker loop itself).
        release = threading.Event()
        parked = threading.Thread(target=release.wait, daemon=True)
        parked.start()
        with ThreadPoolExecutor(max_workers=1) as pool:
            pool.submit(int).result()
            profiler = SamplingProfiler(interval_s=0.001, mode="cpu").start()
            _spin(0.1)
            profiler.stop()
        release.set()
        parked.join()
        assert profiler.dropped_idle > 0
        assert not any(
            stack[-1] in ("threading:wait", "concurrent.futures.thread:_worker")
            for stack in profiler.samples
        )


class TestProfilingContextManager:
    def test_writes_on_exit(self, tmp_path):
        path = tmp_path / "p.txt"
        with profiling(path, interval_s=0.001) as profiler:
            _spin(0.05)
        assert not profiler.running
        assert path.exists()
        assert "# repro-profile" in path.read_text()

    def test_in_memory_when_no_path(self):
        with profiling(interval_s=0.001) as profiler:
            _spin(0.05)
        assert profiler.total_samples > 0
        assert profiler.collapsed()
