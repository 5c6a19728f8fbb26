import json

import pytest

import graphiso
from parorbits import strata
from parorbits.decomp import (
    build_decomposition,
    decomposition_report,
    emit,
    emit_plain,
    phi_map,
)
from parorbits.fixtures import Fixture

from conftest import load_golden

FIXTURES = [
    Fixture("A", 3, 2, 2),
    Fixture("A", 4, 3, 2),
    Fixture("B", 3, 2, 1),
    Fixture("B", 4, 3, 1),
    Fixture("B", 4, 4, 1),
    Fixture("C", 4, 2, 4),
    Fixture("C", 4, 4, 4),
    Fixture("D", 4, 2, 4),
    Fixture("D", 4, 4, 1),
    Fixture("D", 5, 5, 5),
]


def computed_graph(fix):
    dec = build_decomposition(fix)
    vertices = tuple(
        (w.length, dec.strata[dec.vertex_stratum[k]].delta)
        for k, w in enumerate(dec.pq.elements)
    )
    edges = tuple((e.u, e.w, e.mult) for e in dec.diagram.edges)
    return graphiso.ColoredGraph(vertices, edges)


def test_phi_endpoints_and_bijection():
    for fix in FIXTURES:
        pq, sts = strata.stratify(fix)
        for st in sts:
            fq, images = phi_map(st)
            assert images[0] == pq.index_of(st.dc.w_min)
            assert images[-1] == pq.index_of(st.dc.w_max)
            for u, image_idx in zip(fq.elements, images):
                assert pq.elements[image_idx].length == u.length + st.dc.w_min.length
            assert sorted(images) == list(st.dc.members)


def test_verify_ig28():
    report = decomposition_report(build_decomposition(Fixture("C", 4, 2, 4)))
    assert report["all_pass"]
    assert [(s["flag"], s["scale"], s["pass"]) for s in report["strata"]] == [
        ("G(2,4)", 1, True),
        ("F(1,3;4)", 1, True),
        ("G(2,4)", 1, True),
    ]
    assert report["cross_edges"] == 6


def test_verify_og39():
    report = decomposition_report(build_decomposition(Fixture("B", 4, 3, 1)))
    assert report["all_pass"]
    assert [(s["flag"], s["scale"]) for s in report["strata"]] == [
        ("OG(2,7)", 1),
        ("OG(3,7)", 2),
        ("OG(2,7)", 1),
    ]


def test_verify_og29():
    report = decomposition_report(build_decomposition(Fixture("B", 4, 2, 1)))
    assert report["all_pass"]
    assert [s["scale"] for s in report["strata"]] == [1, 1, 1]


def test_all_fixtures_decompose(sweep_reports):
    for label, report in sweep_reports.items():
        assert report["decomposition"]["all_pass"], label


def test_scale_two_exactly_on_odd_orthogonal_middles(sweep_reports):
    expected = {("B2/P1+P1", 1), ("B3/P2+P1", 1), ("B4/P3+P1", 1), ("B5/P4+P1", 1)}
    seen = set()
    for label, report in sweep_reports.items():
        for s in report["decomposition"]["strata"]:
            if s["scale"] == 2:
                seen.add((label, s["delta"]))
    assert seen == expected


def test_cross_edges_increase_delta():
    for fix in FIXTURES:
        dec = build_decomposition(fix)
        for e in dec.cross_edges:
            du = dec.strata[dec.vertex_stratum[e.u]].delta
            dw = dec.strata[dec.vertex_stratum[e.w]].delta
            assert dw > du


def test_h_prime_matches_bottom_edges():
    # the first layer of edges out of w_min recovers the h' coefficients
    for fix in FIXTURES:
        dec = build_decomposition(fix)
        for comp in dec.comparisons:
            st = comp.stratum
            weight, _ = strata.h_prime_of(st)
            scale = comp.scale
            if not weight:
                continue
            base = dec.pq.index_of(st.dc.w_min)
            x_out = {
                e.w: e.mult
                for e in dec.diagram.edges
                if e.u == base and dec.vertex_stratum[e.w] == dec.vertex_stratum[base]
            }
            fq = comp.flag_quotient
            derived = {}
            for e in comp.flag_diagram.edges:
                if e.u == 0:
                    root_support = fq.rs.root_support[e.root]
                    (node,) = tuple(root_support)
                    derived[node] = x_out[comp.phi[e.w]] // scale
            assert derived == weight


def test_figure1_reproduction():
    golden = graphiso.ColoredGraph.from_json(load_golden("figure1.json"))
    got = computed_graph(Fixture("C", 4, 2, 4))
    assert graphiso.isomorphic(got, golden, cross_mult_exact=True)


def test_figure2_reproduction():
    golden = graphiso.ColoredGraph.from_json(load_golden("figure2.json"))
    got = computed_graph(Fixture("B", 4, 3, 1))
    assert graphiso.isomorphic(got, golden, cross_mult_exact=False)


def test_figure_negative_controls():
    golden = graphiso.ColoredGraph.from_json(load_golden("figure1.json"))
    got = computed_graph(Fixture("C", 4, 2, 4))
    recolored = graphiso.ColoredGraph(
        golden.vertices[:-1] + ((golden.vertices[-1][0], 0),), golden.edges
    )
    assert not graphiso.isomorphic(got, recolored)
    dropped = graphiso.ColoredGraph(golden.vertices, golden.edges[1:])
    assert not graphiso.isomorphic(got, dropped)
    within = next(
        e for e in golden.edges if golden.vertices[e[0]][1] == golden.vertices[e[1]][1]
    )
    remulted = tuple(
        e if e != within else (e[0], e[1], e[2] + 1) for e in golden.edges
    )
    assert not graphiso.isomorphic(got, graphiso.ColoredGraph(golden.vertices, remulted))


def test_emission_deterministic():
    fix = Fixture("C", 4, 2, 4)
    for fmt in ("dot", "tikz", "json"):
        first = emit(build_decomposition(fix), fmt)
        second = emit(build_decomposition(fix), fmt)
        assert first == second


def test_dot_output_content():
    fix = Fixture("C", 4, 2, 4)
    text = emit(build_decomposition(fix), "dot")
    assert text.count("n0 [") == 1
    assert text.count("fillcolor=") == 24
    assert text.count("penwidth=2") == 3  # the three doubled middle-stratum edges
    assert 'class="stratum0"' in text and 'class="stratum2"' in text


def test_tikz_output_content():
    fix = Fixture("B", 4, 3, 1)
    text = emit(build_decomposition(fix), "tikz")
    assert text.startswith("\\documentclass[tikz]{standalone}")
    assert text.count("\\node[") == 32
    assert text.count("double") == 24  # 20 doubled strata edges + 4 doubled cross edges
    # y is centred within each degree in exact half-units
    plain = emit_plain(Fixture("A", 3, 2, 2), "tikz")
    assert "(n2) at (2, -0.5)" in plain and "(n3) at (2, 0.5)" in plain
    assert "(n4) at (3, 0.0)" in plain


def test_json_output_schema():
    fix = Fixture("B", 4, 3, 1)
    payload = json.loads(emit(build_decomposition(fix), "json"))
    assert payload["space"] == "OG(3,9)"
    assert len(payload["vertices"]) == 32
    assert sum(1 for e in payload["edges"] if e["cross"]) == 18
    assert len(payload["strata"]) == 3


def test_emit_plain():
    text = emit_plain(Fixture("A", 3, 1, 1), "dot")
    assert "fillcolor" not in text
    assert text.count("->") == 3


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit(build_decomposition(Fixture("A", 3, 2, 2)), "svg")
