import hashlib
import json
from math import factorial

import pytest

from parorbits import cosets, rootsys, strata, weyl
from parorbits import fixtures as fixtures_module
from parorbits.fixtures import MAX_GROUP_ORDER, Fixture, FixtureError, group_order, sweep_fixtures
from parorbits.strata import (
    K_of,
    StrataError,
    d_geometric,
    delta,
    flag_descriptor,
    h_prime_of,
    orbit_table,
    stratify,
    stratum_json,
)

from cases import d_of, expected_fiber_dim, ladder_table, stratum_count
from exponents import d_geometric as oracle_statistic
from exponents import delta as oracle_delta
from exponents import eta, offset_coweight_table
from dynkin import flag_components, subsets
from roots import roots_inside
from windows import enc, identity, inverse, k_by_root_scan


def _deltas(fix):
    """Every class's delta from the pass, by window."""
    pq = cosets.build_quotient(fix.rs, fix.j_q)
    return dict(zip(pq.elements, delta(fix, pq)))


def test_delta_examples():
    g24 = Fixture("A", 3, 2, 2)
    assert _deltas(g24)[enc((1, 2, 3, 4))] == 0
    assert _deltas(g24)[enc((3, 4, 1, 2))] == 2
    ig = Fixture("C", 4, 2, 4)
    assert set(_deltas(ig).values()) == {0, 1, 2}


def test_delta_rejects_odd_doubled_exponent(monkeypatch):
    # eta of the doubled coweight move is 2 delta; an odd value is no
    # exponent.  The pass's input 2 omega_p^vee is moved so that the
    # identity, its first class, gets 3, then -2
    ig = Fixture("C", 4, 2, 4)
    pq = cosets.build_quotient(ig.rs, ig.j_q)
    monkeypatch.setattr(strata, "_coweight_table", offset_coweight_table(ig, 3))
    with pytest.raises(StrataError, match=r"3/2 at WC4\(1,2,3,4\)") as refused:
        delta(ig, pq)
    assert str(refused.value) == "stratum exponent 3/2 at WC4(1,2,3,4) is not a non-negative integer"
    monkeypatch.undo()
    monkeypatch.setattr(strata, "_coweight_table", offset_coweight_table(ig, -2))
    with pytest.raises(StrataError, match="-2/2 at .* not a non-negative integer"):
        delta(ig, pq)


def test_delta_rejects_moves_off_the_coroot_lattice_and_span(monkeypatch):
    # the per-class checks that eta made: with 2 omega_p^vee shifted by 1,
    # the move pairs to a half-integer coefficient on alpha_4^vee = 2 e_4
    # of B4, and in type A it leaves the sum-zero span of the coroots
    og = Fixture("B", 4, 4, 1)
    real = strata._coweight_table

    def shifted(rs, node):
        omega2, signed = real(rs, node)
        return (omega2[0] + 1,) + omega2[1:], signed

    monkeypatch.setattr(strata, "_coweight_table", shifted)
    with pytest.raises(StrataError, match=r"WB4\(1,2,3,4\) is outside the coroot lattice at node 4"):
        delta(og, cosets.build_quotient(og.rs, og.j_q))
    g24 = Fixture("A", 3, 2, 2)
    with pytest.raises(StrataError, match=r"WA3\(1,2,3,4\) is not in the span of the coroots"):
        delta(g24, cosets.build_quotient(g24.rs, g24.j_q))


def test_d_of_matches_delta_orientation():
    # d_of is the stratum label: 0 on the closed stratum through the base
    # point, maximal on the open stratum
    g24 = Fixture("A", 3, 2, 2)
    assert d_of(g24, enc((3, 4, 1, 2))) == 2
    assert d_of(g24, identity(g24.rs)) == 0
    ig = Fixture("C", 4, 2, 4)
    assert d_geometric(ig, [enc((1, 2, 3, 4))]) == [2]  # window count #{j<=m: w(j)>0}
    assert d_of(ig, identity(ig.rs)) == 0
    og = Fixture("B", 4, 3, 1)
    w = enc((-1, 2, 3, 4))
    assert d_geometric(og, [w]) == [0]  # some w(j) = -1 among the first m entries
    assert d_of(og, w) == 2


def test_d_equals_delta_everywhere_small():
    for fix in sweep_fixtures(4, 4, 4, 4):
        pq = cosets.build_quotient(fix.rs, fix.j_q)
        assert list(delta(fix, pq)) == [d_of(fix, w) for w in pq.elements], fix.label


def test_d_range_counts():
    assert stratum_count(Fixture("A", 5, 3, 2)) == 3  # min(3,2)-max(0,3+2-6)+1
    assert stratum_count(Fixture("C", 4, 2, 4)) == 3
    assert stratum_count(Fixture("B", 4, 3, 1)) == 3
    assert stratum_count(Fixture("B", 4, 4, 1)) == 2
    assert stratum_count(Fixture("D", 4, 4, 4)) == 3  # intersections 0, 2, 4
    assert stratum_count(Fixture("D", 4, 4, 3)) == 2  # odd-parity intersections 1, 3
    assert stratum_count(Fixture("D", 5, 5, 5)) == 3
    assert stratum_count(Fixture("A", 3, 2, 2)) == 3


def test_stratum_count_matches_strata():
    for fix in sweep_fixtures(4, 4, 4, 4):
        strat = stratify(fix)
        pq, sts = strat.pq, strat.strata
        assert len(sts) == stratum_count(fix)
        assert sorted(st.delta for st in sts) == list(range(len(sts)))



def test_orbit_table_matches_case_ladders_up_to_rank_12(monkeypatch):
    # every (type, n, q, p) of the family up to rank 12, with the bound on
    # |W| lifted: the table needs no quotient, so it is checked far past
    # the ranks that the sweep enumerates
    monkeypatch.setattr(fixtures_module, "MAX_GROUP_ORDER", 2**12 * factorial(12))  # |W(B12)|
    fixtures = sweep_fixtures(12, 12, 12, 12)
    assert len(fixtures) == 993
    for fix in fixtures:
        table = orbit_table(fix)
        assert list(table.items()) == list(ladder_table(fix).items()), fix.label
        assert stratum_count(fix) == len(table)
        for d, fiber in table.items():
            assert expected_fiber_dim(fix, d) == fiber
        for d in (min(table) - 1, max(table) + 1):
            with pytest.raises(StrataError):
                expected_fiber_dim(fix, d)


def test_case_analysis_at_rank_6_and_A7():
    # the 112 fixtures past the default sweep: the stratum count and each
    # stratum's fiber dimension from the table, and the window label d_of
    # against delta on every class
    fixtures = [fix for fix in sweep_fixtures(7, 6, 6, 6) if fix.rank > 5]
    assert len(fixtures) == 112
    for fix in fixtures:
        strat = stratify(fix)
        pq, sts = strat.pq, strat.strata
        assert len(sts) == stratum_count(fix), fix.label
        for st in sts:
            assert st.fiber_dim == expected_fiber_dim(fix, st.d_geom), (fix.label, st.delta)
            for k in st.members:
                assert d_of(fix, pq.elements[k]) == st.delta, (fix.label, k)

def test_expected_fiber_dims():
    assert expected_fiber_dim(Fixture("A", 3, 2, 2), 2) == 0
    assert expected_fiber_dim(Fixture("A", 3, 2, 2), 1) == 1
    assert expected_fiber_dim(Fixture("A", 3, 2, 2), 0) == 4
    assert expected_fiber_dim(Fixture("C", 4, 2, 4), 0) == 7
    assert expected_fiber_dim(Fixture("B", 4, 3, 1), 0) == 5  # 2n - m
    assert expected_fiber_dim(Fixture("B", 4, 3, 1), 1) == 3
    assert expected_fiber_dim(Fixture("B", 4, 4, 1), 0) == 4
    assert expected_fiber_dim(Fixture("D", 4, 4, 4), 0) == 6  # open cell of the spinor
    with pytest.raises(StrataError):
        expected_fiber_dim(Fixture("C", 4, 2, 4), 5)


def test_dimension_ledger_small():
    for fix in sweep_fixtures(4, 4, 4, 4):
        strat = stratify(fix)
        pq, sts = strat.pq, strat.strata
        ends = []  # the lengths of each stratum's w_min and w_max
        for st in sts:
            low, high = (weyl._length(fix.rs, pq.elements[k]) for k in (st.members[0], st.members[-1]))
            ends.append((low, high))
            assert st.fiber_dim == low
            assert st.fiber_dim == expected_fiber_dim(fix, st.d_geom)
            assert high - low == st.flag.dim
            fq = cosets.build_quotient(fix.rs, st.K, fix.j_p)
            assert len(fq.elements) == st.size
        # the open stratum reaches the top cell, the closed one starts at 0
        assert ends[-1][1] == pq.top_degree()
        assert ends[0][0] == 0


def test_K_and_flag_examples():
    g24 = Fixture("A", 3, 2, 2)
    sts = stratify(g24).strata
    assert sorted(sts[0].K) == [1, 3] and sts[0].flag.label == "pt"
    ig = Fixture("C", 4, 2, 4)
    ig_sts = stratify(ig).strata
    assert [st.flag.label for st in ig_sts] == ["G(2,4)", "F(1,3;4)", "G(2,4)"]
    # the two-step flag F(1,3;4) carries the middle stratum (the middle
    # color class of the reference diagram); its marked Levi nodes are 1 and 3
    middle = ig_sts[1]
    assert sorted(middle.K) == [2] and middle.flag.marked_ambient == (1, 3)
    og = Fixture("B", 4, 3, 1)
    og_sts = stratify(og).strata
    assert [st.flag.label for st in og_sts] == ["OG(2,7)", "OG(3,7)", "OG(2,7)"]
    assert og_sts[1].flag.components[0].type_label == "B"


def test_K_and_delta_match_root_vector_scans():
    # K off the left-action table against w_min^-1 acting on the simple
    # roots, and delta's signed-table read of w^-1 against w^-1 acting on
    # the doubled coweight
    for fix in sweep_fixtures(5, 5, 5, 5) + [Fixture("D", 6, 3, 6), Fixture("B", 6, 5, 1)]:
        strat = stratify(fix)
        pq, sts = strat.pq, strat.strata
        deltas = delta(fix, pq)
        omega2 = fix.rs.double_coweight(fix.p_node)
        for st in sts:
            w_min = st.members[0]
            assert st.K == K_of(pq, fix.j_p, w_min) == k_by_root_scan(pq, fix.j_p, w_min), (fix.label, st.delta)
            for k in st.members:
                w = pq.elements[k]
                moved = weyl.act(inverse(w), omega2)
                twice = eta(fix.rs, tuple(a - b for a, b in zip(omega2, moved)), fix.q_node)
                assert 2 * deltas[k] == twice, (fix.label, w)


def test_stratification_labels_match_the_loops_they_replace():
    # every fixture of rank <= 6 and A7: each class's stratum index against
    # the member-to-stratum fill that `build_decomposition` and
    # `seidel_table` ran, its delta against the per-class oracle, and the
    # delta of its stratum against its own
    for fix in sweep_fixtures(7, 6, 6, 6):
        strat = stratify(fix)
        pq, sts = strat.pq, strat.strata
        fill = [-1] * len(pq.elements)
        for si, st in enumerate(sts):
            for k in st.members:
                fill[k] = si
        assert strat.stratum_of == tuple(fill), fix.label
        assert strat.delta == tuple(oracle_delta(fix, w) for w in pq.elements), fix.label
        assert all(sts[si].delta == d for si, d in zip(strat.stratum_of, strat.delta)), fix.label


def test_delta_constant_and_monotone_small():
    for fix in sweep_fixtures(4, 4, 4, 4):
        strat = stratify(fix)
        pq, sts = strat.pq, strat.strata
        deltas = delta(fix, pq)
        label = {}
        for st in sts:
            for k in st.members:
                label[k] = st.delta
            assert {deltas[k] for k in st.members} == {st.delta}
        for u, w in zip(pq.sources, pq.targets):
            if label[u] != label[w]:
                assert label[w] > label[u]


def test_h_prime():
    # h' is its coefficient on the flag's hyperplane class, 1 on each
    # marked node; the doubling flag is the stratum's own field
    ig = Fixture("C", 4, 2, 4)
    ig_sts = stratify(ig).strata
    assert h_prime_of(ig_sts[1]) == 1 and ig_sts[1].flag.marked_ambient == (1, 3)
    assert not ig_sts[1].doubling
    assert h_prime_of(ig_sts[2]) == 1 and ig_sts[2].flag.marked_ambient == (2,)
    og = Fixture("B", 4, 3, 1)
    og_sts = stratify(og).strata
    # the spinor node of the B3 Levi
    assert h_prime_of(og_sts[1]) == 1 and og_sts[1].flag.marked_ambient == (4,)
    assert og_sts[1].doubling
    g24 = Fixture("A", 3, 2, 2)
    g_sts = stratify(g24).strata
    assert g_sts[0].flag.marked_ambient == () and not g_sts[0].doubling
    # Lagrangian degeneration: both flag steps coincide, coefficient 2
    lg = Fixture("C", 4, 4, 4)
    lg_sts = stratify(lg).strata
    assert h_prime_of(lg_sts[1]) == 2 and lg_sts[1].flag.marked_ambient
    assert not lg_sts[1].doubling


def test_doubling_flag_localized():
    seen = []
    for fix in sweep_fixtures(4, 4, 4, 4):
        sts = stratify(fix).strata
        for st in sts:
            if st.doubling:
                seen.append((fix.label, st.delta))
    assert seen == [("B2/P1+P1", 1), ("B3/P2+P1", 1), ("B4/P3+P1", 1)]


def test_stratum_json_schema():
    ig = Fixture("C", 4, 2, 4)
    sts = stratify(ig).strata
    payload = stratum_json(sts[1])
    assert set(payload) == {
        "delta", "w_min", "w_max", "size", "K", "flag", "fiber_dim", "doubling",
    }
    assert set(payload["flag"]) == {"components", "marked", "dim"}
    assert payload["delta"] == 1 and payload["size"] == 12


def _check_flag_against_graph_search(rs, j_p, marked):
    flag = flag_descriptor(rs, j_p, j_p - marked)
    assert flag.components == flag_components(rs, j_p, marked), (rs, sorted(j_p), sorted(marked))
    assert flag.marked_ambient == tuple(sorted(marked))
    # dim G_L/P_K = |Phi+_L| - |Phi+_K|, counted by root supports
    dim = len(roots_inside(rs, j_p)) - len(roots_inside(rs, j_p - marked))
    assert flag.dim == dim, (rs, sorted(j_p), sorted(marked))


def test_flag_descriptor_matches_graph_search_up_to_rank_6():
    # every J_P with every marked subset of it, A1-A6, B/C2-6, D4-6
    systems = [("A", n) for n in range(1, 7)] + [
        (t, n) for t in "BC" for n in range(2, 7)
    ] + [("D", n) for n in range(4, 7)]
    checked = 0
    for t, n in systems:
        rs = rootsys.build(t, n)
        for j_p in subsets(rs.nodes):
            for marked in subsets(j_p):
                _check_flag_against_graph_search(rs, j_p, marked)
                checked += 1
    assert checked == 4323


def test_flag_descriptor_matches_graph_search_on_maximal_j_at_ranks_7_and_8():
    # ranks <= 6 are exhaustive above; every J at rank 8 takes seconds, so
    # here each J that omits one node, with every marked subset of it
    checked = 0
    for t in "ABCD":
        for n in (7, 8):
            rs = rootsys.build(t, n)
            for cut in rs.nodes:
                j_p = frozenset(rs.nodes) - {cut}
                for marked in subsets(j_p):
                    _check_flag_against_graph_search(rs, j_p, marked)
                    checked += 1
    assert checked == 4 * (7 * 2**6 + 8 * 2**7)


def test_shared_flag_descriptors_match_fresh_ones():
    # every stratum of the rank <= 5 sweep, D6/P3+P6 and B6/P5+P1: the
    # stratum holds the one cached descriptor of its (rs, J_P, K), equal to
    # one built afresh
    fixtures = sweep_fixtures(5, 5, 5, 5) + [Fixture("D", 6, 3, 6), Fixture("B", 6, 5, 1)]
    for fix in fixtures:
        for st in stratify(fix).strata:
            assert st.flag is flag_descriptor(fix.rs, fix.j_p, st.K), (fix.label, st.delta)
            assert st.flag == flag_descriptor.__wrapped__(fix.rs, fix.j_p, st.K), (fix.label, st.delta)


def test_flag_names_golden():
    # the flag of every stratum up to A7/B6/C6/D6, as `strata --format json`
    # and `verify` print it; the digest is that of the graph search in
    # tests/dynkin.py
    digest = hashlib.sha256()
    fixtures = sweep_fixtures(7, 6, 6, 6)
    count = 0
    for fix in fixtures:
        for st in stratify(fix).strata:
            digest.update(json.dumps(stratum_json(st)["flag"], sort_keys=True).encode() + b"\n")
            count += 1
    assert (len(fixtures), count) == (216, 587)
    assert digest.hexdigest() == "d5b23d766ef5e85edeb34ad797ec86349f1f091cbb275aa161886e32155e0185"


def test_invalid_fixtures_rejected():
    with pytest.raises(FixtureError):
        Fixture("D", 4, 3, 1)  # Picard rank two
    with pytest.raises(FixtureError):
        Fixture("B", 4, 2, 2)  # not cominuscule
    with pytest.raises(FixtureError):
        Fixture("C", 4, 5, 4)  # q_node out of range


def test_group_order_bound():
    for t, n in (("A", 1), ("A", 4), ("B", 2), ("B", 4), ("C", 3), ("D", 4)):
        rs = rootsys.build(t, n)
        assert group_order(t, n) == len(weyl.enumerate_group(rs, frozenset(rs.nodes), frozenset()))
    assert max(group_order(t, 6) for t in "BCD") == group_order("C", 6) == MAX_GROUP_ORDER
    assert group_order("A", 7) == 40320
    sweep_fixtures(7, 6, 6, 6)  # every fixture of rank <= 6 and of A7 is admitted
    for args in (("A", 8, 4, 4), ("B", 7, 3, 1), ("C", 7, 3, 7), ("D", 7, 3, 7)):
        with pytest.raises(FixtureError):
            Fixture(*args)


def test_delta_and_statistic_passes_match_per_class_oracles(monkeypatch):
    # every fixture of the rank <= 6 sweep with A7 (216), and three past
    # rank 7 with the bound on |W| lifted to |W(B8)|: the pass's delta and
    # window statistic of every class against the per-class paths they
    # replaced, which expand eta and read the case once per element
    fixtures = sweep_fixtures(7, 6, 6, 6)
    assert len(fixtures) == 216
    monkeypatch.setattr(fixtures_module, "MAX_GROUP_ORDER", 2**8 * factorial(8))
    fixtures += [fixtures_module.parse_fixture(label) for label in ("C8/P4+P8", "D8/P4+P8", "B8/P7+P1")]
    classes = 0
    for fix in fixtures:
        pq = cosets.build_quotient(fix.rs, fix.j_q)
        group = pq.elements
        assert list(delta(fix, pq)) == [oracle_delta(fix, w) for w in group], fix.label
        assert d_geometric(fix, pq.elements) == [oracle_statistic(fix, w) for w in group], fix.label
        classes += len(group)
    assert classes == 10522
