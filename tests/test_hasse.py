import json
import re
from fractions import Fraction
from math import factorial

import pytest

from parorbits import cosets, decomp, hasse, strata, weyl
from parorbits import fixtures as fixtures_module
from parorbits.cosets import build_quotient
from parorbits.decomp import emit_plain
from parorbits.fixtures import Fixture, parse_fixture, sweep_fixtures
from parorbits.hasse import HasseError, build_hasse
from parorbits.rootsys import build

from covers import cover_triples
from roots import roots_inside, supports
from weights import h_prime_weight, weighted_mult

FIXTURES = [
    Fixture("A", 3, 1, 1),
    Fixture("A", 3, 2, 2),
    Fixture("A", 4, 2, 2),
    Fixture("B", 3, 2, 1),
    Fixture("B", 4, 3, 1),
    Fixture("C", 4, 2, 4),
    Fixture("C", 4, 4, 4),
    Fixture("D", 4, 2, 4),
    Fixture("D", 5, 5, 5),
]


def _diagram(fix):
    pq = build_quotient(fix.rs, fix.j_q)
    return pq, build_hasse(pq)


def edges(pq, mult):
    """The edges of the diagram `mult` of `pq` as (u, w, mult, root): each
    cover of the quotient, with the multiplicity of its witness root."""
    return [(u, w, mult[r], r) for u, w, r in cover_triples(pq)]


def total_multiplicity(pq, mult):
    return sum(m for _, _, m, _ in edges(pq, mult))


def weighted_path_count(pq, mult, reverse=False):
    """Sum over maximal chains of the product of edge multiplicities.

    Computed bottom-to-top, or top-to-bottom on the transposed diagram when
    `reverse` is set; the two agree for these self-dual diagrams.
    """
    n = len(pq.elements)
    counts = [0] * n
    if not reverse:
        counts[0] = 1
        incoming = {}
        for u, w, m, _ in edges(pq, mult):
            incoming.setdefault(w, []).append((u, m))
        for k in range(n):
            for u, m in incoming.get(k, []):
                counts[k] += counts[u] * m
        return counts[n - 1]
    counts[n - 1] = 1
    outgoing = {}
    for u, w, m, _ in edges(pq, mult):
        outgoing.setdefault(u, []).append((w, m))
    for k in range(n - 1, -1, -1):
        for w, m in outgoing.get(k, []):
            counts[k] += counts[w] * m
    return counts[0]


def test_projective_space_chain():
    pq, hd = _diagram(Fixture("A", 3, 1, 1))
    assert len(pq.elements) == 4
    assert [mult for _, _, mult, _ in edges(pq, hd)] == [1, 1, 1]
    assert [(u, w) for u, w, _, _ in edges(pq, hd)] == [(0, 1), (1, 2), (2, 3)]


def test_g24_diagram():
    pq, hd = _diagram(Fixture("A", 3, 2, 2))
    assert len(edges(pq, hd)) == 6
    assert all(mult == 1 for _, _, mult, _ in edges(pq, hd))


def test_ig28_edge_profile():
    pq, hd = _diagram(Fixture("C", 4, 2, 4))
    assert len(pq.elements) == 24
    assert len(edges(pq, hd)) == 37 and total_multiplicity(pq, hd) == 40
    doubles = [(pq.lengths[u], pq.lengths[w]) for u, w, mult, _ in edges(pq, hd) if mult == 2]
    assert doubles == [(5, 6)] * 3


def test_og39_edge_profile():
    pq, hd = _diagram(Fixture("B", 4, 3, 1))
    assert len(pq.elements) == 32
    assert len(edges(pq, hd)) == 58 and total_multiplicity(pq, hd) == 82


def test_poincare_polys():
    g24 = build_quotient(build("A", 3), frozenset({1, 3}))
    assert g24.rank_counts() == (1, 1, 2, 1, 1)
    p3 = build_quotient(build("A", 3), frozenset({2, 3}))
    assert p3.rank_counts() == (1, 1, 1, 1)
    ig = build_quotient(build("C", 4), frozenset({1, 3, 4}))
    counts = ig.rank_counts()
    assert sum(counts) == 24 and counts == counts[::-1]


def test_chevalley_edges_single_vertex():
    pq = build_quotient(build("A", 3), frozenset({1, 3}))
    hd = build_hasse(pq)
    assert [(w, mult) for u, w, mult, _ in edges(pq, hd) if u == 0] == [(1, 1)]


def test_weight_validation():
    # the oracle's support rule: a weight on a node of Delta(Q) vanishes on
    # the quotient, and in A3 with J_Q = {1}, weight on node 2 alone leaves
    # the cover e -> s_3 without an edge
    pq = build_quotient(build("A", 3), frozenset({1, 3}))
    with pytest.raises(ValueError, match=re.escape("[1] is not the node set less Delta(Q), [2]")):
        weighted_mult(pq, {1: 1})
    p3 = build_quotient(build("A", 3), frozenset({1}))
    with pytest.raises(ValueError, match=re.escape("[2] is not the node set less Delta(Q), [2, 3]")):
        weighted_mult(p3, {2: 1})
    hd = build_hasse(p3)
    assert hd == weighted_mult(p3, {2: 1, 3: 1})
    assert all(mult > 0 for _, _, mult, _ in edges(p3, hd))
    # a point quotient has no cover, so nothing to refuse
    point = build_quotient(build("A", 3), frozenset({1, 2}), frozenset({1, 2}))
    assert len(point.elements) == 1 and not point.sources
    assert build_hasse(point) == (0,) * len(point.rs.positive_roots)


def test_cover_with_witness_inside_phi_q_is_refused():
    # negative control for the positivity certificate: a cover whose witness
    # is moved to a root of Phi_Q pairs to 0 with the weight
    pq = build_quotient(build("C", 4), frozenset({1, 3, 4}))
    inside = roots_inside(pq.rs, pq.j_q)[0]
    k = len(pq.witnesses) // 2
    u, w = pq.sources[k], pq.targets[k]
    corrupted = pq._replace(witnesses=pq.witnesses[:k] + (inside,) + pq.witnesses[k + 1 :])
    assert build_hasse(pq)[pq.witnesses[k]] > 0
    names = (weyl.window_str(pq.elements[u]), weyl.window_str(pq.elements[w]))
    with pytest.raises(HasseError, match=re.escape("cover %s -> %s has multiplicity 0" % names)):
        build_hasse(corrupted)


def test_multiplicity_recomputation_from_witnesses():
    for fix in FIXTURES:
        pq, hd = _diagram(fix)
        for u, w, mult, r in edges(pq, hd):
            s = cosets.reflection_by_index(pq.rs, r)
            assert weyl.multiply(pq.elements[u], s) == pq.elements[w]
            assert hasse.pairing_with_coroot(pq, r) == mult


def _per_root_edges(pq, mults):
    """The edges by the path `build_hasse` replaced: the covers of
    positive multiplicity under `mults`, one per positive root, then a
    sort; as (u, w, mult) triples."""
    return sorted((u, w, mults[r]) for u, w, r in cover_triples(pq) if mults[r] > 0)


def _check_every_diagram(fix):
    """X's diagram and every flag diagram of the fixture: edges strictly
    increasing in (u, w), and equal to the oracle's, the weighted build
    `weighted_mult`.  X's edges are the oracle's under {q: 1}; a flag's,
    each times h', are the oracle's under the h' weight, on every cover.
    Returns the number of flag diagrams."""
    dec = decomp.build_decomposition(fix)
    pq = dec.strat.pq
    assert dec.mult is build_hasse(pq), fix.label
    checks = [(pq, dec.mult, 1, weighted_mult(pq, {fix.q_node: 1}))]
    for st in dec.strat.strata:
        fq = decomp.flag_quotient(st)
        checks.append((fq, build_hasse(fq), strata.h_prime_of(st), weighted_mult(fq, h_prime_weight(st))))
    for quotient, hd, coeff, want in checks:
        triples = [(u, w, coeff * mult) for u, w, mult, _ in edges(quotient, hd)]
        assert all(a[:2] < b[:2] for a, b in zip(triples, triples[1:])), fix.label
        assert triples == _per_root_edges(quotient, want), (fix.label, quotient)
    return len(checks) - 1


def test_edges_keep_cover_order_and_per_root_multiplicities():
    # build_hasse keeps the order of the covers, with no sort, and sums
    # coroot columns; both are checked on every fixture of rank <= 6 and A7,
    # which hold the Lagrangian C4/P4+P4 and the doubling B4/P3+P1
    fixtures = sweep_fixtures(7, 6, 6, 6)
    assert {"C4/P4+P4", "B4/P3+P1"} <= {fix.label for fix in fixtures}
    flags = sum(_check_every_diagram(fix) for fix in fixtures)
    assert flags > 0


@pytest.mark.parametrize("label", ["C8/P4+P8", "D8/P4+P8", "B8/P7+P1"])
def test_edges_keep_cover_order_at_rank_8(monkeypatch, label):
    monkeypatch.setattr(fixtures_module, "MAX_GROUP_ORDER", 2**8 * factorial(8))
    assert _check_every_diagram(parse_fixture(label)) > 0


def test_type_a_diagrams_are_multiplicity_free():
    for n in range(1, 5):
        rs = build("A", n)
        for q in range(1, n + 1):
            pq = build_quotient(rs, frozenset(rs.nodes) - {q})
            hd = build_hasse(pq)
            assert all(mult == 1 for _, _, mult, _ in edges(pq, hd))


def test_path_count_self_duality():
    for fix in FIXTURES:
        pq, hd = _diagram(fix)
        assert weighted_path_count(pq, hd) == weighted_path_count(pq, hd, reverse=True)


def _borel_hirzebruch_degree(fix):
    """Independent degree oracle from root data alone."""
    rs = fix.rs
    value = Fraction(1)
    dim = 0
    for k, support in enumerate(supports(rs)):
        if support <= fix.j_q:
            continue
        dim += 1
        value *= Fraction(
            rs.coroot_coords[k][fix.q_node - 1], sum(rs.coroot_coords[k])
        )
    return factorial(dim) * value


def test_path_count_matches_degree_oracle():
    for fix in FIXTURES:
        pq, hd = _diagram(fix)
        assert weighted_path_count(pq, hd) == _borel_hirzebruch_degree(fix)


def test_levi_flag_diagram():
    # F(1,3;4) inside the Levi of C_4 with weight 1 on each marked node
    c4 = build("C", 4)
    fq = build_quotient(c4, frozenset({2}), frozenset({1, 2, 3}))
    hd = build_hasse(fq)
    assert hd == weighted_mult(fq, {1: 1, 3: 1})
    doubles = [(fq.lengths[u], fq.lengths[w]) for u, w, mult, _ in edges(fq, hd) if mult == 2]
    assert doubles == [(2, 3)] * 3
    assert weighted_path_count(fq, hd) == weighted_path_count(fq, hd, reverse=True)


def test_diagram_json_shape():
    payload = json.loads(emit_plain(Fixture("A", 3, 2, 2), "json"))
    assert payload["fixture"] == "A3/P2+P2" and payload["space"] == "G(2,4)"
    assert len(payload["vertices"]) == 6
    assert payload["vertices"][0] == {"window": "(1,2,3,4)", "length": 0}
    lengths = [v["length"] for v in payload["vertices"]]
    assert lengths == sorted(lengths)
    assert payload["edges"][0] == {"from": 0, "to": 1, "mult": 1}
    assert all(set(e) == {"from", "to", "mult"} for e in payload["edges"])
