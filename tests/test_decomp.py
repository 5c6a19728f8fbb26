import json

import pytest

import graphiso
from parorbits import cli, decomp, hasse, strata, weyl
from parorbits.decomp import (
    build_decomposition,
    decomposition_report,
    emit,
    emit_plain,
    phi_map,
)
from parorbits.fixtures import Fixture, parse_fixture

from conftest import load_golden
from covers import cover_triples, with_covers
from roots import supports
from weights import h_prime_weight

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


def edges(pq, mult):
    """The edges of the diagram `mult` of `pq` as (u, w, mult): each cover
    of the quotient, with the multiplicity of its witness root."""
    return tuple((u, w, mult[r]) for u, w, r in cover_triples(pq))


def computed_graph(fix):
    dec = build_decomposition(fix)
    sts, vs = dec.strat.strata, dec.strat.stratum_of
    vertices = tuple((length, sts[vs[k]].delta) for k, length in enumerate(dec.strat.pq.lengths))
    return graphiso.ColoredGraph(vertices, edges(dec.strat.pq, dec.mult))


def test_phi_endpoints_and_bijection():
    for fix in FIXTURES:
        strat = strata.stratify(fix)
        pq = strat.pq
        for st in strat.strata:
            fq, images = phi_map(st)
            # the identity goes to w_min and the top to w_max, the first and
            # last member
            assert images[0] == st.members[0]
            assert images[-1] == st.members[-1]
            shift = weyl._length(fix.rs, pq.elements[st.members[0]])
            for u, image_idx in zip(fq.elements, images):
                assert weyl._length(fix.rs, pq.elements[image_idx]) == weyl._length(fix.rs, u) + shift
            assert sorted(images) == list(st.members)


def test_cell_map_errors_name_the_class_in_full(monkeypatch):
    # the source class is named with its group, WC4(...); first the closed
    # stratum's flag quotient listing the middle stratum's first windows:
    # the closed stratum's w_min is the identity, so each image is its own
    # source, outside the stratum
    sts = strata.stratify(Fixture("C", 4, 2, 4)).strata
    closed, middle = sts[:2]
    real = decomp.flag_quotient

    def foreign(stratum):
        fq = real(stratum)
        windows = stratum.pq.elements
        return fq._replace(elements=tuple(windows[k] for k in middle.members[: len(fq.elements)]))

    monkeypatch.setattr(decomp, "flag_quotient", foreign)
    with pytest.raises(decomp.DecompositionError) as refused:
        phi_map(closed)
    assert str(refused.value) == (
        "cell map leaves the stratum at WC4(1,-4,2,3) (stratum delta=0 of C4/P2+P4)"
    )
    monkeypatch.undo()
    # every flag length one too long: the identity already breaks additivity
    monkeypatch.setattr(
        decomp, "flag_quotient", lambda st: real(st)._replace(lengths=tuple(x + 1 for x in real(st).lengths))
    )
    with pytest.raises(decomp.DecompositionError) as refused:
        phi_map(middle)
    assert str(refused.value) == (
        "cell map is not length-additive at WC4(1,2,3,4) (stratum delta=1 of C4/P2+P4)"
    )


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
        sts, vs, pq = dec.strat.strata, dec.strat.stratum_of, dec.strat.pq
        for c in dec.cross_edges:
            u, w = pq.sources[c], pq.targets[c]
            assert sts[vs[w]].delta > sts[vs[u]].delta


def test_h_prime_matches_bottom_edges():
    # the first layer of edges out of w_min recovers the h' weight
    for fix in FIXTURES:
        dec = build_decomposition(fix)
        vs, x_edges = dec.strat.stratum_of, edges(dec.strat.pq, dec.mult)
        for st in dec.strat.strata:
            weight = h_prime_weight(st)
            scale = st.scale
            if not weight:
                continue
            base = st.members[0]
            x_out = {w: mult for u, w, mult in x_edges if u == base and vs[w] == vs[base]}
            fq, phi_images = phi_map(st)
            derived = {}
            for u, w, r in cover_triples(fq):
                if u == 0:
                    (node,) = supports(fq.rs)[r]
                    derived[node] = x_out[phi_images[w]] // scale
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


def rescan_mismatches(dec, si):
    """Oracle for the mismatch report of stratum si: X's within-stratum
    edges found by a scan of all of X's edges, and every key of either side
    compared in sorted order, the path `build_decomposition` replaced; each
    edge is named by the windows of its ends."""
    st, vs, windows = dec.strat.strata[si], dec.strat.stratum_of, dec.strat.pq.elements
    x_edges = {(u, w): mult for u, w, mult in edges(dec.strat.pq, dec.mult) if vs[u] == si and vs[w] == si}
    factor = strata.h_prime_of(st) * st.scale
    fq, phi_images = phi_map(st)
    flag_edges = {
        (phi_images[u], phi_images[w]): mult * factor
        for u, w, mult in edges(fq, hasse.build_hasse(fq))
    }
    out = []
    for key in sorted(set(flag_edges) | set(x_edges)):
        got, want = x_edges.get(key), flag_edges.get(key)
        if got != want:
            u, w = (weyl.window_str(windows[k]) for k in key)
            out.append("edge %s->%s: diagram mult %s, flag mult (scaled) %s" % (u, w, got, want))
    return tuple(out)


def _assert_matches_rescan(dec):
    vs = dec.strat.stratum_of
    covers = cover_triples(dec.strat.pq)
    assert dec.cross_edges == tuple(c for c, (u, w, _) in enumerate(covers) if vs[u] != vs[w])
    assert len(dec.mismatches) == len(dec.strat.strata)
    for si, found in enumerate(dec.mismatches):
        assert found == rescan_mismatches(dec, si), (dec.fixture.label, si)


def test_edge_buckets_match_rescan_oracle(monkeypatch):
    for fix in FIXTURES:
        _assert_matches_rescan(build_decomposition(fix))
    for label in ("C4/P2+P4", "B4/P3+P1"):
        with monkeypatch.context() as m:
            _assert_matches_rescan(_corrupted_decomposition(m, parse_fixture(label))[0])


def _corrupted_decomposition(monkeypatch, fix):
    """The decomposition of `fix` with X's own diagram corrupted inside
    `build_decomposition`: in the middle stratum, the last within-stratum
    edge gets multiplicity + 1 and the first is dropped, and the first
    cross-stratum edge gets multiplicity + 1.  The edges are the covers of
    X's quotient, so `strata.stratify` hands `build_decomposition` a copy
    of the quotient without the dropped cover, in which each raised cover
    has a witness index of its own past the positive roots, and
    `hasse.build_hasse` gives that copy the true multiplicities with one
    more for each such index.
    Returns the decomposition, and the three covers as they were, as
    (source, target, witness), with the true multiplicities.  `build_decomposition` reads X's quotient through
    `strata.stratify` and its multiplicities through `hasse.build_hasse`
    on every build, so no cache hides the patch."""
    strat = strata.stratify(fix)
    pq, stratum_of = strat.pq, strat.stratum_of
    true_mult = hasse.build_hasse(pq)
    covers, mult = list(cover_triples(pq)), list(true_mult)
    si = len(strat.strata) // 2
    within = [c for c in covers if stratum_of[c[0]] == stratum_of[c[1]] == si]
    dropped, raised = within[0], within[-1]
    crossed = next(c for c in covers if stratum_of[c[0]] != stratum_of[c[1]])
    covers.remove(dropped)
    for u, w, r in (raised, crossed):
        covers[covers.index((u, w, r))] = (u, w, len(mult))
        mult.append(true_mult[r] + 1)
    bad = strat._replace(pq=with_covers(pq, covers))
    real_stratify, real_hasse = strata.stratify, hasse.build_hasse
    # X's copy, and its multiplicities; every other fixture and quotient as it was
    monkeypatch.setattr(strata, "stratify", lambda f: bad if f == fix else real_stratify(f))
    monkeypatch.setattr(hasse, "build_hasse", lambda q: tuple(mult) if q is bad.pq else real_hasse(q))
    dec = build_decomposition(fix)
    picked = dict(si=si, dropped=dropped, raised=raised, crossed=crossed, mult=true_mult)
    return dec, picked


@pytest.mark.parametrize("label", ["C4/P2+P4", "B4/P3+P1"])
def test_mismatch_report_names_each_corrupted_edge(monkeypatch, capsys, label):
    fix = parse_fixture(label)
    dec, picked = _corrupted_decomposition(monkeypatch, fix)
    si, dropped, raised, crossed = (picked[k] for k in ("si", "dropped", "raised", "crossed"))
    mult = picked["mult"]
    assert dropped < raised
    if label == "B4/P3+P1":
        assert dec.strat.strata[si].scale == 2  # the doubled middle stratum
    # the dropped edge sorts first; the cross-stratum edge is in no stratum;
    # both ends of each are named by window
    name = {k: weyl.window_str(x) for k, x in enumerate(dec.strat.pq.elements)}
    expected = (
        "edge %s->%s: diagram mult None, flag mult (scaled) %d"
        % (name[dropped[0]], name[dropped[1]], mult[dropped[2]]),
        "edge %s->%s: diagram mult %d, flag mult (scaled) %d"
        % (name[raised[0]], name[raised[1]], mult[raised[2]] + 1, mult[raised[2]]),
    )
    for sj, found in enumerate(dec.mismatches):
        assert found == (expected if sj == si else ())
    pq = dec.strat.pq
    assert dec.strat.stratum_of[crossed[0]] != dec.strat.stratum_of[crossed[1]]
    assert crossed[:2] in [(pq.sources[c], pq.targets[c]) for c in dec.cross_edges]
    report = decomposition_report(dec)
    assert not report["all_pass"]
    assert [s["pass"] for s in report["strata"]] == [sj != si for sj in range(len(dec.mismatches))]
    # the witness is the first mismatch of the first failing stratum, and
    # `parorbits diagram` names it on its one error line
    witness = "stratum delta=%d, %s" % (dec.strat.strata[si].delta, expected[0])
    assert dec.witness() == witness
    argv = ["diagram", "--type", fix.type_label, "--rank", str(fix.rank)]
    argv += ["--grassmannian", str(fix.q_node), "--cominuscule", str(fix.p_node)]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stratum/flag diagram mismatch in %s: %s\n" % (label, witness)
