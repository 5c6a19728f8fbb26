import dataclasses
import json

import pytest

from parorbits import cosets, weyl
from parorbits.cosets import (
    CosetError,
    build_quotient,
    certify_interval,
    double_cosets,
    enumerate_WQ,
)
from parorbits.decomp import emit_plain
from parorbits.fixtures import Fixture
from parorbits.rootsys import build

FIXTURES = [
    Fixture("A", 3, 2, 2),
    Fixture("A", 4, 2, 3),
    Fixture("B", 3, 2, 1),
    Fixture("C", 4, 2, 4),
    Fixture("B", 4, 3, 1),
    Fixture("D", 4, 2, 4),
    Fixture("D", 4, 4, 1),
    Fixture("C", 3, 3, 3),
]


def test_enumerate_wq_examples():
    g24 = enumerate_WQ(build("A", 3), frozenset({1, 3}))
    assert len(g24.elements) == 6
    assert g24.rank_counts() == (1, 1, 2, 1, 1)
    ig = enumerate_WQ(build("C", 4), frozenset({1, 3, 4}))
    assert len(ig.elements) == 24
    og = enumerate_WQ(build("B", 4), frozenset({1, 2, 4}))
    assert len(og.elements) == 32


def test_quotient_grading_and_duality():
    for fix in FIXTURES:
        pq = enumerate_WQ(fix.rs, fix.j_q)
        counts = pq.rank_counts()
        assert counts[0] == 1 and counts[-1] == 1
        assert counts == counts[::-1]  # Poincare duality of the quotient
        top = len(fix.rs.positive_roots) - len(fix.rs.positive_roots_of(fix.j_q))
        assert pq.top_degree() == top
        for w in pq.elements:
            assert weyl.min_rep(w, fix.j_q) == w


def test_cover_witnesses():
    for fix in FIXTURES[:5]:
        pq = enumerate_WQ(fix.rs, fix.j_q)
        for c in pq.covers:
            u, w = pq.elements[c.u], pq.elements[c.w]
            s = cosets.reflection_by_index(pq.rs, c.root)
            assert weyl.multiply(u, s) == w
            assert w.length == u.length + 1


def test_double_coset_examples():
    g24 = enumerate_WQ(build("A", 3), frozenset({1, 3}))
    sizes = [dc.size for dc in double_cosets(g24, frozenset({1, 3}))]
    assert sizes == [1, 4, 1]
    ig = enumerate_WQ(build("C", 4), frozenset({1, 3, 4}))
    assert [dc.size for dc in double_cosets(ig, frozenset({1, 2, 3}))] == [6, 12, 6]
    og = enumerate_WQ(build("B", 4), frozenset({1, 2, 4}))
    assert [dc.size for dc in double_cosets(og, frozenset({2, 3, 4}))] == [12, 8, 12]


def test_double_cosets_partition():
    for fix in FIXTURES:
        pq = enumerate_WQ(fix.rs, fix.j_q)
        dcs = double_cosets(pq, fix.j_p)
        seen = [k for dc in dcs for k in dc.members]
        assert sorted(seen) == list(range(len(pq.elements)))
        assert len(seen) == len(set(seen))


def test_certify_interval():
    g24 = enumerate_WQ(build("A", 3), frozenset({1, 3}))
    dcs = double_cosets(g24, frozenset({1, 3}))
    assert dcs[0].size == 1 and certify_interval(dcs[0])
    for fix in FIXTURES:
        pq = enumerate_WQ(fix.rs, fix.j_q)
        for dc in double_cosets(pq, fix.j_p):
            assert certify_interval(dc)


def test_certify_interval_negative_control():
    g24 = enumerate_WQ(build("A", 3), frozenset({1, 3}))
    middle = double_cosets(g24, frozenset({1, 3}))[1]
    extremes = {g24.index_of(middle.w_min), g24.index_of(middle.w_max)}
    interior = [k for k in middle.members if k not in extremes]
    corrupted = dataclasses.replace(
        middle, members=tuple(k for k in middle.members if k != interior[0])
    )
    assert not certify_interval(corrupted)


def test_type_d_picard_two_rejected():
    d4 = build("D", 4)
    with pytest.raises(CosetError):
        enumerate_WQ(d4, frozenset({1, 2, 4}))  # omits node 3 = n-1


def test_quotient_json_schema():
    # the quotient's JSON form is the public plain emission of its diagram
    fix = Fixture("A", 3, 2, 2)
    pq = enumerate_WQ(fix.rs, fix.j_q)
    payload = json.loads(emit_plain(fix, "json"))
    assert payload["fixture"] == "A3/P2+P2"
    assert payload["vertices"][0] == {"window": "(1,2,3,4)", "length": 0}
    assert payload["vertices"] == [
        {"window": weyl.window_str(w.window), "length": w.length} for w in pq.elements
    ]
    lengths = [v["length"] for v in payload["vertices"]]
    assert lengths == sorted(lengths)
    for e in payload["edges"]:
        assert set(e) == {"from", "to", "mult"}
    # on the Grassmannian G(2,4) every Bruhat cover carries multiplicity 1
    assert [(e["from"], e["to"]) for e in payload["edges"]] == [(c.u, c.w) for c in pq.covers]


def test_levi_subsystem_quotient():
    # flags inside a Levi reuse the machinery: A_3 Levi inside C_4
    c4 = build("C", 4)
    fq = build_quotient(c4, frozenset({2}), frozenset({1, 2, 3}))
    assert len(fq.elements) == 12  # two-step flags of C^4
    assert fq.rank_counts() == (1, 2, 3, 3, 2, 1)
