"""Bench snapshot format and the regression gate (no benches re-run)."""

import json

import pytest

from repro import bench


def _snap(metrics, sha=None, ts=1000.0):
    return bench.make_snapshot(metrics, ts=ts, git_sha=sha)


class TestSnapshots:
    def test_make_snapshot_normalizes_bare_numbers(self):
        snap = _snap({"wall_x": 12.5})
        entry = snap["metrics"]["wall_x"]
        assert entry == {"value": 12.5, "better": "lower", "unit": ""}
        assert snap["schema"] == bench.SCHEMA_VERSION
        assert snap["ts"] == 1000.0

    def test_make_snapshot_keeps_declared_direction(self):
        snap = _snap({"speedup": {"value": 7.0, "better": "higher",
                                  "unit": "x"}})
        assert snap["metrics"]["speedup"]["better"] == "higher"
        assert snap["metrics"]["speedup"]["unit"] == "x"

    def test_make_snapshot_rejects_bad_direction(self):
        with pytest.raises(ValueError):
            _snap({"x": {"value": 1.0, "better": "sideways"}})

    def test_write_and_load_roundtrip(self, tmp_path):
        path = tmp_path / "BENCH_substrate.json"
        snap = _snap({"wall_x": 1.0}, sha="abc1234")
        bench.write_snapshot(snap, path)
        assert bench.load_snapshot(path) == snap
        assert path.read_text().endswith("\n")

    def test_load_rejects_non_snapshot(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"hello": 1}')
        with pytest.raises(ValueError, match="not a bench snapshot"):
            bench.load_snapshot(path)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "x.json"
        path.write_text('{"schema": 99, "metrics": {}}')
        with pytest.raises(ValueError, match="schema"):
            bench.load_snapshot(path)

    def test_append_history_is_jsonl(self, tmp_path):
        path = tmp_path / "BENCH_history.jsonl"
        bench.append_history(_snap({"a": 1.0}), path)
        bench.append_history(_snap({"a": 2.0}), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[1])["metrics"]["a"]["value"] == 2.0


class TestCompare:
    def test_within_gate_is_ok(self):
        cmp = bench.compare_snapshots(
            _snap({"wall_x": 100.0}), _snap({"wall_x": 115.0}), gate_pct=20.0
        )
        assert cmp.ok
        assert cmp.deltas[0].status == "ok"
        assert cmp.deltas[0].pct == pytest.approx(15.0)

    def test_slowdown_past_gate_regresses(self):
        cmp = bench.compare_snapshots(
            _snap({"wall_x": 100.0}), _snap({"wall_x": 130.0}), gate_pct=20.0
        )
        assert not cmp.ok
        assert [d.name for d in cmp.regressions] == ["wall_x"]

    def test_direction_aware_for_higher_is_better(self):
        speedup = lambda v: _snap(
            {"speedup": {"value": v, "better": "higher", "unit": "x"}}
        )
        # A drop in a higher-is-better metric regresses...
        assert not bench.compare_snapshots(speedup(10.0), speedup(7.0)).ok
        # ...while the same-magnitude rise is an improvement.
        cmp = bench.compare_snapshots(speedup(10.0), speedup(13.0))
        assert cmp.ok
        assert cmp.deltas[0].status == "improved"

    def test_large_speedup_marked_improved_for_lower_is_better(self):
        cmp = bench.compare_snapshots(
            _snap({"wall_x": 100.0}), _snap({"wall_x": 50.0})
        )
        assert cmp.deltas[0].status == "improved"

    def test_added_and_removed_metrics_never_gate(self):
        cmp = bench.compare_snapshots(
            _snap({"old_only": 1.0}), _snap({"new_only": 1.0})
        )
        assert cmp.ok
        statuses = {d.name: d.status for d in cmp.deltas}
        assert statuses == {"new_only": "added", "old_only": "removed"}

    def test_zero_baseline_never_gates(self):
        cmp = bench.compare_snapshots(
            _snap({"wall_x": 0.0}), _snap({"wall_x": 5.0})
        )
        assert cmp.ok
        assert cmp.deltas[0].pct is None

    def test_negative_gate_rejected(self):
        with pytest.raises(ValueError):
            bench.compare_snapshots(_snap({}), _snap({}), gate_pct=-1.0)

    def test_shas_carried_through(self):
        cmp = bench.compare_snapshots(
            _snap({}, sha="aaa1111"), _snap({}, sha="bbb2222")
        )
        assert (cmp.old_sha, cmp.new_sha) == ("aaa1111", "bbb2222")


class TestRender:
    def test_table_and_ok_verdict(self):
        cmp = bench.compare_snapshots(
            _snap({"wall_x": 100.0}, sha="aaa1111"),
            _snap({"wall_x": 101.0}, sha="bbb2222"),
        )
        text = bench.render_comparison(cmp)
        assert "wall_x" in text
        assert "+1.0%" in text
        assert "no regressions beyond 20% gate (aaa1111 -> bbb2222)" in text

    def test_regression_named_in_verdict(self):
        cmp = bench.compare_snapshots(
            _snap({"wall_x": 100.0}), _snap({"wall_x": 200.0})
        )
        text = bench.render_comparison(cmp)
        assert "REGRESSED" in text
        assert text.rstrip().endswith("wall_x")


def test_current_git_sha_in_this_repo():
    sha = bench.current_git_sha()
    assert sha is None or (len(sha) >= 7 and sha.strip() == sha)


def test_current_git_sha_outside_a_repo(tmp_path):
    assert bench.current_git_sha(cwd=tmp_path) is None


class TestMachineMetadata:
    def test_snapshot_records_the_machine(self):
        import os
        import platform

        import numpy

        machine = _snap({"a": 1.0})["machine"]
        assert machine == {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        }

    def test_same_machine_does_not_warn(self):
        comparison = bench.compare_snapshots(_snap({"a": 1.0}), _snap({"a": 1.0}))
        assert comparison.machine_diffs == ()
        assert "warning" not in bench.render_comparison(comparison)

    def test_different_machine_warns_but_never_gates(self):
        old = _snap({"wall_x": 1.0})
        new = _snap({"wall_x": 1.5})
        new["machine"] = dict(old["machine"], cpu_count=64, numpy="9.9")
        comparison = bench.compare_snapshots(old, new, gate_pct=100.0)
        assert comparison.ok
        assert comparison.machine_diffs == (
            f"cpu_count: {old['machine']['cpu_count']} -> 64",
            f"numpy: {old['machine']['numpy']} -> 9.9",
        )
        text = bench.render_comparison(comparison)
        assert "warning: snapshots come from different machines" in text
        assert text.splitlines()[-1].startswith("no regressions")

    def test_snapshot_without_metadata_does_not_warn(self):
        old = _snap({"a": 1.0})
        del old["machine"]  # written before snapshots recorded it
        comparison = bench.compare_snapshots(old, _snap({"a": 1.0}))
        assert comparison.machine_diffs == ()
