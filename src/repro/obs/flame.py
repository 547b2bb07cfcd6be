"""Flamegraph export for span traces: folded stacks + self-contained SVG.

Consumes the span trees reconstructed by :mod:`repro.obs.spans` and
aggregates them into classic *folded stacks* — one line per unique call
path, ``root;child;leaf <value>`` — where the value is the path's **busy**
cost (cost attributed directly to that span, excluding children) in
integer microseconds of simulated time.  Folding over busy cost makes the
widths sum correctly: a frame's rendered width (inclusive cost) is its own
busy plus its descendants', exactly like sampled flamegraphs.

The SVG is rendered in the same style as the PR 3 dashboard: hand-rolled,
dependency-free, fixed palette, embedded CSS, fully deterministic — the
same trace always produces byte-identical output.
"""

from __future__ import annotations

import zlib
from typing import Dict, Iterable, List, Tuple

from .spans import SpanNode
from .stats import ordered_sum

__all__ = ["FoldedStacks", "folded_from_trees", "render_flamegraph"]

#: Microseconds of simulated busy cost per folded-stack unit.
_UNITS_PER_SECOND = 1_000_000

# Same palette as repro.obs.dashboard; frames are coloured by a stable
# hash of their name so one operation keeps its colour everywhere.
_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
            "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")

_CSS = """\
text { font-family: Menlo, Consolas, monospace; font-size: 11px; }
.title { font-size: 15px; font-weight: bold; fill: #222; }
.subtitle { font-size: 11px; fill: #555; }
.frame-label { fill: #fff; pointer-events: none; }
.frame rect { stroke: #fff; stroke-width: 0.5; }
.frame rect:hover { stroke: #222; stroke-width: 1; }
"""


def _escape(text: str) -> str:
    return (text.replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;").replace('"', "&quot;"))


def _frame_color(name: str) -> str:
    return _PALETTE[zlib.crc32(name.encode("utf-8")) % len(_PALETTE)]


class FoldedStacks:
    """Aggregate span trees into folded stack lines.

    Feed completed trees with :meth:`add_tree`; every node contributes its
    busy cost to its full ancestry path.  Paths with zero accumulated cost
    are dropped (they would render zero-width anyway), so a trace whose
    spans carry no simulated cost folds to nothing.
    """

    def __init__(self) -> None:
        self._stacks: Dict[Tuple[str, ...], float] = {}
        self.trees = 0

    def add_tree(self, root: SpanNode) -> None:
        self.trees += 1
        pending: List[Tuple[Tuple[str, ...], SpanNode]] = [((root.name,), root)]
        while pending:
            path, node = pending.pop()
            if node.busy > 0.0:
                self._stacks[path] = self._stacks.get(path, 0.0) + node.busy
            for child in node.children:
                pending.append((path + (child.name,), child))

    def __len__(self) -> int:
        return len(self._stacks)

    @property
    def total(self) -> float:
        """Total folded cost in (simulated) seconds."""
        return ordered_sum(self._stacks.values())

    def items(self) -> List[Tuple[Tuple[str, ...], float]]:
        """(path, seconds) pairs, sorted by path for determinism."""
        return sorted(self._stacks.items())

    def lines(self) -> List[str]:
        """Classic folded format: ``a;b;c <integer microseconds>``.

        Paths whose cost rounds to zero microseconds are omitted — folded
        values are integral by convention.
        """
        out: List[str] = []
        for path, seconds in self.items():
            units = int(round(seconds * _UNITS_PER_SECOND))
            if units > 0:
                out.append(";".join(path) + f" {units}")
        return out


class _Frame:
    """One rendered flamegraph frame (merged by path prefix)."""

    __slots__ = ("name", "self_value", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.self_value = 0.0
        self.children: Dict[str, "_Frame"] = {}

    @property
    def value(self) -> float:
        return self.self_value + ordered_sum(child.value for child in
                                             self.children.values())

    def depth(self) -> int:
        if not self.children:
            return 1
        return 1 + max(child.depth() for child in self.children.values())


def _build_frame_tree(folded: FoldedStacks) -> _Frame:
    root = _Frame("all spans")
    for path, seconds in folded.items():
        frame = root
        for name in path:
            child = frame.children.get(name)
            if child is None:
                child = frame.children[name] = _Frame(name)
            frame = child
        frame.self_value += seconds
    return root


def render_flamegraph(folded: FoldedStacks,
                      title: str = "repro span flamegraph",
                      width: int = 1200) -> str:
    """Render folded stacks as a self-contained SVG (icicle layout).

    Deterministic: frames are laid out in sorted-name order, widths are
    proportional to inclusive busy cost, colours come from a stable hash
    of the frame name.  Tooltips (``<title>``) carry exact seconds and
    percentages, so the SVG needs no scripting.
    """
    root = _build_frame_tree(folded)
    total = root.value
    row_h = 19
    header_h = 46
    depth = root.depth()
    height = header_h + depth * row_h + 8
    parts: List[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">')
    parts.append(f"<style>{_CSS}</style>")
    parts.append(f'<rect x="0" y="0" width="{width}" height="{height}" '
                 'fill="#fafafa"/>')
    parts.append(f'<text x="12" y="22" class="title">{_escape(title)}</text>')
    parts.append(
        f'<text x="12" y="38" class="subtitle">{folded.trees} trees · '
        f'{len(folded)} stacks · total busy {total:.6f}s '
        "(simulated)</text>")

    min_px = 0.5   # frames narrower than this are not worth a rect

    def _emit(frame: _Frame, x: float, level: int, span_width: float) -> None:
        y = header_h + level * row_h
        label_budget = int(span_width // 7)
        label = frame.name if len(frame.name) <= label_budget else (
            frame.name[:label_budget - 1] + "…" if label_budget > 1 else "")
        pct = 100.0 * frame.value / total if total else 0.0
        parts.append('<g class="frame">')
        parts.append(
            f'<rect x="{x:.2f}" y="{y}" width="{span_width:.2f}" '
            f'height="{row_h - 1}" fill="{_frame_color(frame.name)}">'
            f"<title>{_escape(frame.name)} — {frame.value:.6f}s "
            f"({pct:.2f}%)</title></rect>")
        if label:
            parts.append(
                f'<text x="{x + 3:.2f}" y="{y + row_h - 6}" '
                f'class="frame-label">{_escape(label)}</text>')
        parts.append("</g>")
        child_x = x
        for name in sorted(frame.children):
            child = frame.children[name]
            child_width = span_width * (child.value / frame.value)
            if child_width >= min_px:
                _emit(child, child_x, level + 1, child_width)
            child_x += child_width

    if total > 0.0:
        _emit(root, 8.0, 0, float(width - 16))
    else:
        parts.append(f'<text x="12" y="{header_h + 14}" class="subtitle">'
                     "no span cost recorded</text>")
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def folded_from_trees(trees: Iterable[SpanNode]) -> FoldedStacks:
    """Convenience: fold an iterable of completed span trees."""
    folded = FoldedStacks()
    for tree in trees:
        folded.add_tree(tree)
    return folded
