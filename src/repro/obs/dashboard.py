"""Self-contained HTML dashboard rendered from one event trace.

``repro dashboard events.jsonl -o dash.html`` turns a saved trace into a
single HTML file: reputation-timeline charts per behaviour class, the
fake-download fraction over time, the alert stream, and a final-state peer
table.  Everything is inline — hand-rolled SVG polylines and embedded CSS,
no JavaScript frameworks, no network fetches — so the file can be archived
as a CI artifact and opened anywhere.

Rendering is deterministic: same trace bytes in, same HTML bytes out.

The trace is consumed in a **single streaming pass**: one loop feeds the
monitor replay, the summariser, the timeline builder and the fake-fraction
windows simultaneously, so the dashboard never materialises the event list
and renders million-event binary traces in bounded memory (timelines keep
one sample per reputation snapshot — sparse by construction).
"""

from __future__ import annotations

import html
from typing import Iterable, List, Mapping, Sequence, Tuple

from .alerts import Alert
from .monitor import Monitor, MonitorResult
from .report import TraceSummarizer, TraceSummary
from .timeline import (FakeFractionAccumulator, PeerTimeline,
                       TimelineBuilder, class_mean_series)

__all__ = ["render_dashboard"]

#: Fixed palette; classes are assigned colours in sorted order so the
#: mapping is stable across runs.
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_SEVERITY_COLOURS = {"info": "#1f77b4", "warning": "#ff7f0e",
                     "critical": "#d62728"}

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Helvetica, Arial, sans-serif;
       margin: 2rem auto; max-width: 70rem; color: #222; }
h1 { font-size: 1.5rem; } h2 { font-size: 1.15rem; margin-top: 2rem; }
table { border-collapse: collapse; font-size: 0.85rem; }
th, td { border: 1px solid #ccc; padding: 0.25rem 0.6rem; text-align: left; }
th { background: #f2f2f2; }
.sev-critical { color: #d62728; font-weight: bold; }
.sev-warning { color: #b35900; }
.sev-info { color: #1f77b4; }
.legend span { margin-right: 1rem; }
.swatch { display: inline-block; width: 0.8rem; height: 0.8rem;
          margin-right: 0.3rem; vertical-align: middle; }
.muted { color: #777; }
svg { background: #fafafa; border: 1px solid #ddd; }
"""


def _fmt_t(seconds: float) -> str:
    """Simulation time as hours, compact."""
    return f"{seconds / 3600.0:.1f}h"


def _polyline(points: Sequence[Tuple[float, float]],
              t_range: Tuple[float, float], v_range: Tuple[float, float],
              width: int, height: int, pad: int) -> str:
    """Scale ``(t, value)`` points into SVG pixel space."""
    t_lo, t_hi = t_range
    v_lo, v_hi = v_range
    t_span = (t_hi - t_lo) or 1.0
    v_span = (v_hi - v_lo) or 1.0
    coords = []
    for t, value in points:
        x = pad + (t - t_lo) / t_span * (width - 2 * pad)
        y = height - pad - (value - v_lo) / v_span * (height - 2 * pad)
        coords.append(f"{x:.1f},{y:.1f}")
    return " ".join(coords)


def _line_chart(series: Mapping[str, List[Tuple[float, float]]],
                title: str, v_label: str,
                width: int = 640, height: int = 260,
                v_max: float = 1.0) -> str:
    """One SVG line chart with a legend; one line per series key."""
    pad = 34
    all_points = [p for points in series.values() for p in points]
    if not all_points:
        return (f"<h2>{html.escape(title)}</h2>"
                "<p class='muted'>no data in trace</p>")
    t_lo = min(t for t, _ in all_points)
    t_hi = max(t for t, _ in all_points)
    v_hi = max(v_max, max(v for _, v in all_points))
    parts = [f"<h2>{html.escape(title)}</h2>",
             f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="{html.escape(title)}">']
    # Axes + gridlines at quarter marks of the value range.
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = height - pad - frac * (height - 2 * pad)
        parts.append(f'<line x1="{pad}" y1="{y:.1f}" x2="{width - pad}" '
                     f'y2="{y:.1f}" stroke="#ddd"/>')
        parts.append(f'<text x="4" y="{y + 4:.1f}" font-size="10" '
                     f'fill="#777">{frac * v_hi:.2f}</text>')
    parts.append(f'<text x="{pad}" y="{height - 6}" font-size="10" '
                 f'fill="#777">{_fmt_t(t_lo)}</text>')
    parts.append(f'<text x="{width - pad - 30}" y="{height - 6}" '
                 f'font-size="10" fill="#777">{_fmt_t(t_hi)}</text>')
    parts.append(f'<text x="4" y="14" font-size="10" fill="#777">'
                 f'{html.escape(v_label)}</text>')
    legend = ["<p class='legend'>"]
    for index, name in enumerate(sorted(series)):
        points = series[name]
        if not points:
            continue
        colour = _PALETTE[index % len(_PALETTE)]
        parts.append(f'<polyline fill="none" stroke="{colour}" '
                     f'stroke-width="1.5" points="'
                     f'{_polyline(points, (t_lo, t_hi), (0.0, v_hi), width, height, pad)}"/>')
        legend.append(f'<span><span class="swatch" style="background:'
                      f'{colour}"></span>{html.escape(name)}</span>')
    legend.append("</p>")
    parts.append("</svg>")
    parts.extend(legend)
    return "".join(parts)


def _summary_section(summary: TraceSummary,
                     result: MonitorResult) -> str:
    by_severity = result.counts_by_severity()
    alerts = " · ".join(f"{count} {severity}"
                        for severity, count in by_severity.items()) or "none"
    repro = ("reproduced recorded alert stream" if result.recorded_alerts
             else "trace carries no recorded alerts")
    if result.recorded_alerts and not result.reproduces_recorded:
        repro = "<b class='sev-critical'>DIVERGES from recorded alerts</b>"
    return (
        "<table>"
        f"<tr><th>events</th><td>{summary.total_events}</td></tr>"
        f"<tr><th>time span</th><td>{_fmt_t(summary.start_time)} – "
        f"{_fmt_t(summary.end_time)}</td></tr>"
        f"<tr><th>alerts</th><td>{alerts}</td></tr>"
        f"<tr><th>replay check</th><td>{repro}</td></tr>"
        "</table>")


def _alerts_section(result: MonitorResult) -> str:
    if not result.alerts:
        return "<h2>Alerts</h2><p class='muted'>no alerts raised</p>"
    rows = ["<h2>Alerts</h2>", "<table>",
            "<tr><th>t</th><th>severity</th><th>detector</th>"
            "<th>message</th></tr>"]
    for alert in result.alerts:
        rows.append(
            f"<tr><td>{_fmt_t(alert.t)}</td>"
            f"<td class='sev-{html.escape(alert.severity)}'>"
            f"{html.escape(alert.severity)}</td>"
            f"<td>{html.escape(alert.detector)}</td>"
            f"<td>{html.escape(alert.message)}</td></tr>")
    rows.append("</table>")
    return "".join(rows)


def _peer_table(timelines: Mapping[str, PeerTimeline],
                max_rows: int = 40) -> str:
    if not timelines:
        return ("<h2>Peers (final refresh)</h2>"
                "<p class='muted'>no reputation snapshots in trace</p>")
    ranked = sorted(timelines.values(),
                    key=lambda tl: (-tl.last.norm, tl.peer))
    rows = ["<h2>Peers (final refresh)</h2>", "<table>",
            "<tr><th>peer</th><th>class</th><th>reputation</th>"
            "<th>service</th><th>up / down MiB</th><th>fakes served</th>"
            "<th>online</th></tr>"]
    for timeline in ranked[:max_rows]:
        last = timeline.last
        mib = 1024.0 * 1024.0
        rows.append(
            f"<tr><td>{html.escape(timeline.peer)}</td>"
            f"<td>{html.escape(timeline.cls)}</td>"
            f"<td>{last.norm:.3f}</td><td>{last.service_class}</td>"
            f"<td>{last.bytes_up / mib:.1f} / {last.bytes_down / mib:.1f}</td>"
            f"<td>{last.fakes_served}</td>"
            f"<td>{'yes' if last.online else 'no'}</td></tr>")
    rows.append("</table>")
    if len(ranked) > max_rows:
        rows.append(f"<p class='muted'>… and {len(ranked) - max_rows} more "
                    "peers (truncated)</p>")
    return "".join(rows)


def render_dashboard(events: Iterable[Mapping],
                     title: str = "repro reputation dashboard") -> str:
    """The whole dashboard as one self-contained HTML document.

    ``events`` may be any iterable — including the lazy trace readers —
    and is consumed exactly once.
    """
    monitor = Monitor()
    result = MonitorResult()
    summarizer = TraceSummarizer()
    timeline_builder = TimelineBuilder()
    fake_windows = FakeFractionAccumulator()
    for event in events:
        result.events_seen += 1
        if event.get("event") == "alert":
            result.recorded_alerts.append(Alert.from_event(event))
        else:
            result.alerts.extend(monitor.feed(event))
        summarizer.feed(event)
        timeline_builder.feed(event)
        fake_windows.feed(event)
    result.alerts.extend(monitor.finish())
    summary = summarizer.finish()
    timelines = timeline_builder.finish()
    fake_series = fake_windows.finish()
    sections = [
        "<!DOCTYPE html>",
        "<html lang='en'><head><meta charset='utf-8'>",
        f"<title>{html.escape(title)}</title>",
        f"<style>{_CSS}</style></head><body>",
        f"<h1>{html.escape(title)}</h1>",
        _summary_section(summary, result),
        _line_chart(class_mean_series(timelines, "norm"),
                    "Mean normalised reputation by behaviour class",
                    "reputation"),
        _line_chart({"fake fraction": [(t, frac)
                                       for t, frac, _ in fake_series]},
                    "Fake-download fraction (6h windows)", "fraction"),
        _line_chart(class_mean_series(timelines, "service_class"),
                    "Mean service class by behaviour class",
                    "class (0-3)", v_max=3.0),
        _alerts_section(result),
        _peer_table(timelines),
        "</body></html>",
    ]
    return "\n".join(sections) + "\n"
