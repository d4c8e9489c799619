"""Bench history: machine-readable benchmark records and regression gates.

The ``benchmarks/`` suite (pytest-benchmark) historically printed its
numbers and threw them away.  This module gives those numbers a paper
trail:

- ``BENCH_history.jsonl`` — one :func:`make_snapshot` record appended
  per bench run (metric values, wall times, git SHA, timestamp), an
  ever-growing machine-readable log;
- ``BENCH_substrate.json`` — the latest snapshot alone, committed at the
  repo root so CI has a baseline to diff against;
- ``repro bench compare OLD NEW [--gate PCT]`` — exits nonzero when any
  metric regressed past the gate, which is how CI turns a slowdown into
  a red build.

Snapshot schema (``"schema": 1``)::

    {"schema": 1, "ts": 1754000000.0, "git_sha": "2c63777",
     "machine": {"cpu_count": 2, "python": "3.11.7", "numpy": "2.4.6"},
     "metrics": {"batch_capture_speedup": {"value": 11.2,
                 "better": "higher", "unit": "x"}, ...}}

``better`` declares the metric's good direction so the gate can tell a
5x speedup from a 5x slowdown; wall-time metrics are ``"lower"``,
throughput/speedup metrics are ``"higher"``.  ``machine`` (absent from
older snapshots) says where the numbers were taken; a comparison across
different machines warns, since wall times and speedups do not transfer,
but never gates on it.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import subprocess
import time
from dataclasses import dataclass, field

__all__ = [
    "BenchComparison",
    "MetricDelta",
    "SCHEMA_VERSION",
    "append_history",
    "compare_snapshots",
    "current_git_sha",
    "load_snapshot",
    "machine_metadata",
    "make_snapshot",
    "render_comparison",
    "write_snapshot",
]

SCHEMA_VERSION = 1


def current_git_sha(cwd=None) -> "str | None":
    """The current short git SHA, or None outside a repo / without git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def machine_metadata() -> dict:
    """The core count and Python/numpy versions a snapshot was taken on."""
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def make_snapshot(
    metrics: dict, *, ts: "float | None" = None, git_sha: "str | None" = None
) -> dict:
    """Build a schema-1 snapshot from ``{name: {"value", "better", "unit"}}``.

    Metric entries may also be bare numbers, normalized to
    ``better="lower"`` (the safe default for wall times).  The snapshot
    records :func:`machine_metadata`.
    """
    normalized = {}
    for name, entry in metrics.items():
        if isinstance(entry, dict):
            value = float(entry["value"])
            better = entry.get("better", "lower")
            unit = entry.get("unit", "")
        else:
            value, better, unit = float(entry), "lower", ""
        if better not in ("lower", "higher"):
            raise ValueError(
                f"metric {name!r}: better must be 'lower' or 'higher', "
                f"got {better!r}"
            )
        normalized[name] = {"value": value, "better": better, "unit": unit}
    return {
        "schema": SCHEMA_VERSION,
        "ts": time.time() if ts is None else float(ts),
        "git_sha": git_sha if git_sha is not None else current_git_sha(),
        "machine": machine_metadata(),
        "metrics": normalized,
    }


def write_snapshot(snapshot: dict, path) -> None:
    """Write ``snapshot`` as pretty JSON (the committed-baseline format)."""
    pathlib.Path(path).write_text(
        json.dumps(snapshot, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def append_history(snapshot: dict, path) -> None:
    """Append ``snapshot`` as one JSONL line to the history log."""
    with pathlib.Path(path).open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(snapshot, separators=(",", ":")) + "\n")


def load_snapshot(path) -> dict:
    """Load a snapshot file, validating the schema version."""
    data = json.loads(pathlib.Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or "metrics" not in data:
        raise ValueError(f"{path}: not a bench snapshot (no 'metrics' key)")
    if data.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"{path}: unsupported bench snapshot schema "
            f"{data.get('schema')!r} (expected {SCHEMA_VERSION})"
        )
    return data


@dataclass(frozen=True)
class MetricDelta:
    """One metric's movement between two snapshots."""

    name: str
    old: "float | None"
    new: "float | None"
    better: str
    unit: str = ""
    #: Signed percent change new vs old; None when either side is missing
    #: or old is zero.
    pct: "float | None" = None
    #: "ok" | "regressed" | "improved" | "added" | "removed"
    status: str = "ok"


@dataclass(frozen=True)
class BenchComparison:
    """Result of :func:`compare_snapshots`; ``ok`` gates CI."""

    deltas: "tuple[MetricDelta, ...]"
    gate_pct: float
    old_sha: "str | None" = None
    new_sha: "str | None" = None
    regressions: "tuple[MetricDelta, ...]" = field(default=())
    #: Machine metadata both snapshots record but disagree on, as
    #: ``"key: old -> new"``; informational, never gates.
    machine_diffs: "tuple[str, ...]" = ()

    @property
    def ok(self) -> bool:
        return not self.regressions


def compare_snapshots(old: dict, new: dict, *, gate_pct: float = 20.0) -> BenchComparison:
    """Diff two snapshots; a metric regresses when it moves against its
    declared good direction by more than ``gate_pct`` percent.

    Metrics present on only one side are reported as added/removed but
    never gate — a new benchmark must not fail the build that adds it.
    """
    if gate_pct < 0:
        raise ValueError(f"gate_pct must be >= 0, got {gate_pct}")
    old_metrics = old.get("metrics", {})
    new_metrics = new.get("metrics", {})
    deltas = []
    regressions = []
    for name in sorted(set(old_metrics) | set(new_metrics)):
        o, n = old_metrics.get(name), new_metrics.get(name)
        if o is None or n is None:
            entry = n if n is not None else o
            deltas.append(
                MetricDelta(
                    name=name,
                    old=None if o is None else float(o["value"]),
                    new=None if n is None else float(n["value"]),
                    better=entry.get("better", "lower"),
                    unit=entry.get("unit", ""),
                    status="added" if o is None else "removed",
                )
            )
            continue
        old_value, new_value = float(o["value"]), float(n["value"])
        better = n.get("better", o.get("better", "lower"))
        unit = n.get("unit", o.get("unit", ""))
        pct = (
            (new_value - old_value) / abs(old_value) * 100.0
            if old_value
            else None
        )
        status = "ok"
        if pct is not None:
            worse = pct > gate_pct if better == "lower" else pct < -gate_pct
            if worse:
                status = "regressed"
            elif (pct < 0) == (better == "lower") and abs(pct) > gate_pct:
                status = "improved"
        delta = MetricDelta(
            name=name,
            old=old_value,
            new=new_value,
            better=better,
            unit=unit,
            pct=pct,
            status=status,
        )
        deltas.append(delta)
        if status == "regressed":
            regressions.append(delta)
    old_machine, new_machine = old.get("machine") or {}, new.get("machine") or {}
    return BenchComparison(
        deltas=tuple(deltas),
        gate_pct=float(gate_pct),
        old_sha=old.get("git_sha"),
        new_sha=new.get("git_sha"),
        regressions=tuple(regressions),
        machine_diffs=tuple(
            f"{key}: {old_machine[key]} -> {new_machine[key]}"
            for key in sorted(set(old_machine) & set(new_machine))
            if old_machine[key] != new_machine[key]
        ),
    )


def _fmt(value: "float | None", unit: str = "") -> str:
    if value is None:
        return "-"
    text = f"{value:.4g}"
    return f"{text}{unit}" if unit else text


def render_comparison(comparison: BenchComparison) -> str:
    """Human-readable comparison table plus the verdict line."""
    header = ("metric", "old", "new", "change", "direction", "status")
    rows = []
    for d in comparison.deltas:
        pct_text = f"{d.pct:+.1f}%" if d.pct is not None else "-"
        rows.append(
            (
                d.name,
                _fmt(d.old, d.unit),
                _fmt(d.new, d.unit),
                pct_text,
                d.better,
                d.status.upper() if d.status == "regressed" else d.status,
            )
        )
    widths = [
        max(len(str(row[i])) for row in [header, *rows]) for i in range(len(header))
    ]
    lines = [
        "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(header)),
        "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row)))
    if comparison.machine_diffs:
        lines.append(
            "warning: snapshots come from different machines ("
            + "; ".join(comparison.machine_diffs)
            + "); wall times and speedups may not compare"
        )
    shas = ""
    if comparison.old_sha or comparison.new_sha:
        shas = f" ({comparison.old_sha or '?'} -> {comparison.new_sha or '?'})"
    if comparison.ok:
        lines.append(
            f"no regressions beyond {comparison.gate_pct:g}% gate{shas}"
        )
    else:
        names = ", ".join(d.name for d in comparison.regressions)
        lines.append(
            f"REGRESSED beyond {comparison.gate_pct:g}% gate{shas}: {names}"
        )
    return "\n".join(lines)
