"""Tests for repro.obs.flame: folded stacks and SVG rendering."""

import pytest

from repro.obs import Recorder
from repro.obs.flame import (FoldedStacks, folded_from_trees,
                             render_flamegraph)
from repro.obs.spans import SpanNode, SpanTreeBuilder


def node(name, busy=0.0, children=()):
    return SpanNode(name=name, span_id=1, trace_id=1, parent_id=None,
                    link_id=None, t_begin=0.0, t_end=0.0,
                    dur=busy + sum(child.dur for child in children),
                    busy=busy, children=list(children))


class TestFoldedStacks:
    def test_folds_busy_cost_by_path(self):
        tree = node("root", busy=1.0, children=[
            node("a", busy=0.5),
            node("b", busy=0.25, children=[node("c", busy=0.125)]),
        ])
        folded = FoldedStacks()
        folded.add_tree(tree)
        assert folded.trees == 1
        assert dict(folded.items()) == {
            ("root",): 1.0,
            ("root", "a"): 0.5,
            ("root", "b"): 0.25,
            ("root", "b", "c"): 0.125,
        }
        assert folded.total == pytest.approx(1.875)

    def test_merges_identical_paths_across_trees(self):
        folded = folded_from_trees([node("op", busy=1.0),
                                    node("op", busy=2.0)])
        assert folded.trees == 2
        assert dict(folded.items()) == {("op",): 3.0}

    def test_zero_cost_paths_dropped(self):
        folded = folded_from_trees([node("free", busy=0.0)])
        assert len(folded) == 0
        assert folded.lines() == []

    def test_lines_are_integer_microseconds(self):
        folded = folded_from_trees([
            node("root", busy=0.5, children=[node("leaf", busy=1.5e-6)])])
        assert folded.lines() == ["root 500000", "root;leaf 2"]

    def test_sub_microsecond_lines_omitted(self):
        folded = folded_from_trees([node("tiny", busy=4e-7)])
        assert folded.lines() == []


class TestRenderFlamegraph:
    def _folded(self):
        return folded_from_trees([
            node("root", busy=1.0, children=[node("child", busy=3.0)])])

    def test_self_contained_svg(self):
        document = render_flamegraph(self._folded())
        assert document.startswith("<svg ")
        assert document.rstrip().endswith("</svg>")
        assert "http" not in document.replace(
            "http://www.w3.org/2000/svg", "")
        assert "root" in document and "child" in document
        assert "total busy 4.000000s" in document

    def test_deterministic(self):
        assert (render_flamegraph(self._folded())
                == render_flamegraph(self._folded()))

    def test_escapes_markup_in_names(self):
        folded = folded_from_trees([node('a<b>&"c', busy=1.0)])
        document = render_flamegraph(folded)
        assert "a<b>" not in document
        assert "a&lt;b&gt;&amp;&quot;c" in document

    def test_empty_folded_renders_placeholder(self):
        document = render_flamegraph(FoldedStacks())
        assert "no span cost recorded" in document
        assert document.rstrip().endswith("</svg>")

    def test_title_and_width_respected(self):
        document = render_flamegraph(self._folded(), title="my graph",
                                     width=800)
        assert "my graph" in document
        assert 'width="800"' in document


class TestEndToEnd:
    def test_recorder_trace_to_svg(self):
        recorder = Recorder(trace_sink=[], span_seed=3, span_sample=1)
        clock = [0.0]
        recorder.bind_clock(lambda: clock[0])
        with recorder.span("request") as outer:
            outer.add_cost(0.25)
            with recorder.span("lookup") as inner:
                inner.add_cost(0.75)
        builder = SpanTreeBuilder()
        folded = FoldedStacks()
        for event in recorder.trace_sink:
            root = builder.feed(event)
            if root is not None:
                folded.add_tree(root)
        assert folded.lines() == ["request 250000", "request;lookup 750000"]
        document = render_flamegraph(folded)
        assert "request" in document and "lookup" in document
