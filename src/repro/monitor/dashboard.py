"""Render a FleetMonitor as terminal text, markdown, or HTML.

The live dashboard (``repro monitor watch``) is deliberately plain
ASCII — no curses, no unicode, no dependencies — so it works over a
serial console next to the actual thermal chamber.  Trends are drawn as
sparklines on the ramp ``" .:-=+*#%@"``, scaled per metric.
"""

from __future__ import annotations

import html as _html
import time

__all__ = ["render_dashboard", "render_report", "sparkline"]

_RAMP = " .:-=+*#%@"


def sparkline(values, width: int = 24) -> str:
    """Scale ``values`` into an ASCII trend strip of at most ``width``."""
    values = [float(v) for v in values][-width:]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi == lo:
        return _RAMP[1] * len(values)
    span = hi - lo
    out = []
    for value in values:
        index = int((value - lo) / span * (len(_RAMP) - 1))
        out.append(_RAMP[max(1, index)])  # keep flat-zero visually present
    return "".join(out)


def _fmt(value) -> str:
    if value is None:
        return "-"
    value = float(value)
    if value and abs(value) < 1e-3:
        return f"{value:.3g}"
    if value.is_integer() and abs(value) < 1e12:
        return str(int(value))
    return f"{value:.4g}"


def _metric_rows(monitor) -> "list[tuple[str, str, str]]":
    rows = []
    for (metric, reduce), values in monitor.series.items():
        rows.append(
            (f"{metric} ({reduce})", _fmt(values[-1]), sparkline(values))
        )
    return rows


def _device_rows(monitor) -> "list[tuple[str, str, str, str]]":
    rows = []
    for device, info in monitor.device_health().items():
        rows.append(
            (
                device,
                _fmt(info["raw_ber"]),
                sparkline(info["history"]),
                "ALERTING" if info["status"] == "alerting" else "ok",
            )
        )
    return rows


def _latency_rows(monitor) -> "list[tuple[str, str, str, str]]":
    rows = []
    breakdown = getattr(monitor, "latency_breakdown", lambda: {})()
    for span, info in sorted(
        breakdown.items(), key=lambda kv: -kv[1]["mean_ms"]
    ):
        exemplar = info.get("exemplar") or "-"
        rows.append(
            (
                span,
                str(info["count"]),
                f"{info['mean_ms']:.2f}",
                exemplar[:16],
            )
        )
    return rows


def _rule_rows(monitor) -> "list[tuple[str, str, str, str, str]]":
    rows = []
    for rule, value, active in monitor.rule_states():
        rows.append(
            (
                rule.name,
                f"{rule.metric} ({rule.reduce}{', delta' if rule.delta else ''})",
                _fmt(value),
                rule.severity,
                "FIRING" if active else "ok",
            )
        )
    return rows


def _sections(monitor) -> list:
    """(dashboard title, report title, header, rows) per table."""
    return [
        ("metrics", "Metrics", ("metric", "last", "trend"), _metric_rows(monitor)),
        (
            "devices",
            "Device health",
            ("device", "raw BER", "trend", "status"),
            _device_rows(monitor),
        ),
        (
            "request latency (slowest span first)",
            "Request latency",
            ("span", "count", "mean ms", "slow trace"),
            _latency_rows(monitor),
        ),
        (
            "slo rules",
            "SLO rules",
            ("rule", "signal", "value", "severity", "state"),
            _rule_rows(monitor),
        ),
    ]


def _table(rows, header, *, indent: str = "  ") -> "list[str]":
    widths = [
        max(len(str(row[i])) for row in [header, *rows])
        for i in range(len(header))
    ]
    lines = [
        indent + "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(header)),
        indent + "  ".join("-" * widths[i] for i in range(len(header))),
    ]
    for row in rows:
        lines.append(
            indent + "  ".join(str(c).ljust(widths[i]) for i, c in enumerate(row))
        )
    return lines


def render_dashboard(monitor, width: int = 78) -> str:
    """The live terminal view: metrics, devices, rules, recent alerts."""
    active = monitor.active_alerts()
    title = (
        f"repro fleet monitor - sample {monitor.samples}, "
        f"{len(monitor.health)} device(s), "
        f"{len(active)} firing / {len(monitor.alerts)} fired"
    )
    lines = [title[:width], "=" * min(width, len(title))]

    for heading, _, header, rows in _sections(monitor):
        if rows:
            lines += ["", heading, *_table(rows, header)]

    if monitor.alerts:
        lines.append("")
        lines.append("alerts (most recent last)")
        for alert in monitor.alerts[-8:]:
            lines.append(
                f"  [{alert.severity}] sample {alert.sample}: {alert.message}"
            )

    if monitor.samples == 0:
        lines.append("")
        lines.append("  (no samples yet — call sample() or wait for the next poll)")
    return "\n".join(lines)


def _markdown_table(rows, header) -> "list[str]":
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    for row in rows:
        lines.append("| " + " | ".join(map(str, row)) + " |")
    return lines


def render_report(monitor, fmt: str = "markdown") -> str:
    """A static after-the-run report (markdown, or a standalone HTML page)."""
    if fmt not in ("markdown", "html"):
        raise ValueError(f"fmt must be 'markdown' or 'html', got {fmt!r}")

    stamp = time.strftime("%Y-%m-%d %H:%M:%S")
    sections = [
        (title, header, rows) for _, title, header, rows in _sections(monitor)
    ]
    sections.append(
        (
            "Alerts",
            ("severity", "sample", "message"),
            [(a.severity, str(a.sample), a.message) for a in monitor.alerts],
        )
    )
    summary = (
        f"{monitor.samples} sample(s), {len(monitor.health)} device(s), "
        f"{len(monitor.active_alerts())} rule(s) firing, "
        f"{len(monitor.alerts)} alert(s) fired."
    )

    if fmt == "markdown":
        lines = [
            "# Fleet monitor report",
            "",
            f"Generated {stamp}.  {summary}",
        ]
        for title, header, rows in sections:
            if not rows:
                continue
            lines.append("")
            lines.append(f"## {title}")
            lines.append("")
            lines.extend(_markdown_table(rows, header))
        return "\n".join(lines) + "\n"

    parts = [
        "<!DOCTYPE html>",
        "<html><head><meta charset='utf-8'>",
        "<title>Fleet monitor report</title>",
        "<style>",
        "body{font-family:monospace;margin:2em;background:#fafafa}",
        "table{border-collapse:collapse;margin:1em 0}",
        "td,th{border:1px solid #999;padding:0.3em 0.7em;text-align:left}",
        "th{background:#eee}",
        ".sev-page{color:#b00020;font-weight:bold}",
        ".sev-warn{color:#8a6d00}",
        "</style></head><body>",
        "<h1>Fleet monitor report</h1>",
        f"<p>Generated {_html.escape(stamp)}. {_html.escape(summary)}</p>",
    ]
    for title, header, rows in sections:
        if not rows:
            continue
        parts.append(f"<h2>{_html.escape(title)}</h2>")
        parts.append("<table><tr>")
        parts.extend(f"<th>{_html.escape(h)}</th>" for h in header)
        parts.append("</tr>")
        for row in rows:
            cls = (
                f" class='sev-{row[0]}'"
                if title == "Alerts" and row and row[0] in ("page", "warn")
                else ""
            )
            parts.append(f"<tr{cls}>")
            parts.extend(f"<td>{_html.escape(str(c))}</td>" for c in row)
            parts.append("</tr>")
        parts.append("</table>")
    parts.append("</body></html>")
    return "\n".join(parts) + "\n"
