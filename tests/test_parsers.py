"""Differential and fuzz tests of the text parsers.

parse_graph reads a canonical document in one bulk pass and hands every
other document to the line parser `_parse_lines`, which is the reference
here: both must give the same Graph, or the same error and line, on any
input. The other parsers must either parse a damaged document or raise
GraphParseError.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from vclab.errors import GraphParseError
from vclab.graphs import (
    EdgeSet,
    Graph,
    LabeledInstance,
    _parse_canonical,
    _parse_lines,
    emit_graph,
    emit_labeled,
    parse_graph,
    parse_labeled,
)
from vclab.reductions import build_h, build_j, emit_hard_instance, parse_hard_instance
from vclab.solvers import ConnectivityMatrix, apvc_naive

# characters a damaged document may gain: separators the line parser accepts,
# section and sign characters, a letter, and a non-ASCII digit int() accepts
NOISE = "0123456789 \n\t\r\x0c%-x٣"


@st.composite
def graphs(draw, min_n=0, max_n=10):
    n = draw(st.integers(min_n, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return Graph.from_edges(n, chosen)


def damaged(data, text: str, max_edits: int = 1) -> str:
    """`text` with up to `max_edits` characters replaced, inserted or deleted."""
    for _ in range(data.draw(st.integers(1, max_edits))):
        pos = data.draw(st.integers(0, len(text)))
        edit = data.draw(st.sampled_from(("replace", "insert", "delete")))
        ch = data.draw(st.sampled_from(NOISE))
        tail = text[pos + 1 :] if edit != "insert" else text[pos:]
        text = text[:pos] + ("" if edit == "delete" else ch) + tail
    return text


def outcome(parse, text: str):
    """What a parser makes of `text`: its result, or its error and line."""
    try:
        return parse(text)
    except GraphParseError as exc:
        return ("error", str(exc), exc.line)


def _edge_lines(doc: str, edit) -> str:
    header, *lines = doc.splitlines()
    return "\n".join([header] + [edit(line) for line in lines]) + "\n"


VARIANTS = {
    "canonical": lambda doc: doc,
    "blank lines": lambda doc: doc.replace("\n", "\n\n"),
    "tabs": lambda doc: doc.replace(" ", "\t"),
    "reversed orientation": lambda doc: _edge_lines(doc, lambda line: " ".join(reversed(line.split()))),
    "crlf": lambda doc: doc.replace("\n", "\r\n"),
    "leading spaces": lambda doc: _edge_lines(doc, lambda line: "  " + line),
    "no final newline": lambda doc: doc.rstrip("\n"),
    "labels section": lambda doc: doc + "%labels\ngroup X: 0\n",
}


@given(graphs(), st.sampled_from(sorted(VARIANTS)))
@settings(max_examples=200)
def test_variants_parse_like_the_line_parser(g, variant):
    doc = VARIANTS[variant](emit_graph(g))
    assert parse_graph(doc) == _parse_lines(doc) == g


@given(graphs())
@settings(max_examples=60)
def test_canonical_documents_take_the_bulk_path(g):
    assert _parse_canonical(emit_graph(g)) == g
    assert _parse_canonical(emit_labeled(LabeledInstance.build(g, {}))) == g


@given(graphs(), st.booleans(), st.data())
@settings(max_examples=400)
def test_damaged_documents_parse_like_the_line_parser(g, labeled, data):
    doc = emit_labeled(LabeledInstance.build(g, {})) if labeled else emit_graph(g)
    doc = damaged(data, doc)
    assert outcome(parse_graph, doc) == outcome(_parse_lines, doc)


@given(graphs(), st.data())
@settings(max_examples=200)
def test_damaged_labeled_documents_parse_or_raise(g, data):
    half = range(g.n // 2)
    doc = damaged(data, emit_labeled(LabeledInstance.build(g, {"X": half})), max_edits=3)
    outcome(parse_labeled, doc)


@given(graphs(min_n=1, max_n=3), st.booleans(), st.data())
@settings(max_examples=100, deadline=None)
def test_damaged_hard_instances_parse_or_raise(g, steiner, data):
    hard = build_j(g, EdgeSet.of(g.edges()[:1])) if steiner else build_h(g)
    outcome(parse_hard_instance, damaged(data, emit_hard_instance(hard), max_edits=3))


@given(graphs(max_n=5), st.data())
@settings(max_examples=200, deadline=None)
def test_damaged_matrices_parse_or_raise(g, data):
    text = apvc_naive(g).to_tsv()
    assert ConnectivityMatrix.from_tsv(text) == apvc_naive(g)
    outcome(ConnectivityMatrix.from_tsv, damaged(data, text, max_edits=3))
