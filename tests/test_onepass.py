"""The one breadth-first pass of `weyl.enumerate_group` and the quotients
`cosets.build_quotient` reads off it, against the test-only oracles of
`onepass.py`; and the parts of the enumerator's result that the
benchmark relies on."""

import pytest

from parorbits import cosets, strata, weyl
from parorbits.cosets import build_quotient
from parorbits.fixtures import sweep_fixtures
from parorbits.rootsys import RANK_BOUNDS, build

from caches import clear_caches
from onepass import check_quotient
from windows import enc


@pytest.mark.parametrize("t", "ABCD")
def test_one_pass_matches_oracle_on_maximal_quotients(t):
    # A1-A8, B2-B8, C2-C8 and D4-D8, every q (D_n/P_(n-1) included); built
    # through rootsys.build, not a Fixture, so the bound on |W| that
    # fixtures apply does not stop rank 7 or 8
    for n in range(RANK_BOUNDS[t], 9):
        rs = build(t, n)
        nodes = frozenset(rs.nodes)
        for q in rs.nodes:
            check_quotient(build_quotient(rs, nodes - {q}))


def test_one_pass_matches_oracle_on_flag_quotients_of_the_sweep():
    # every flag quotient (rs, K, J_P) of the fixtures of rank <= 5
    keys = {
        (fix.rs, frozenset(st.K), fix.j_p)
        for fix in sweep_fixtures(5, 5, 5, 5)
        for st in strata.stratify(fix).strata
    }
    assert len(keys) > 100
    for rs, k_set, j_p in keys:
        check_quotient(build_quotient(rs, k_set, j_p))


def test_one_pass_on_the_whole_group():
    # J empty: every step goes up or down, and the first left descent of
    # w is the least k with l(s_k w) < l(w), read off the rows
    rs = build("B", 3)
    group = weyl.enumerate_group(rs, frozenset(rs.nodes), frozenset())
    assert len(group) == 48 and group.descent[0] == 0
    lengths = group.lengths
    assert lengths == tuple(weyl._length(rs, x) for x in group)
    for i, x in enumerate(group):
        assert group.index[x] == i
        for k, row in group.left.items():
            s_w = weyl.multiply(weyl.simple_reflection(rs, k), x)
            assert group[row[i]] == s_w and row[i] != i
        if i:
            k = group.descent[i]
            assert lengths[group.left[k][i]] == lengths[i] - 1
            assert all(lengths[group.left[j][i]] > lengths[i] for j in rs.nodes if j < k)


def test_unresolved_placeholder_names_node_and_window(monkeypatch):
    # negative control: s_1 replaced by the 3-cycle (2,3,1), which is not an
    # involution; its step up from (2,3,1) is never stepped back down
    rs = build("A", 2)
    real = weyl.generator_tables(rs)
    cycle = real[1]._replace(table=weyl.signed_table(enc((2, 3, 1))))
    monkeypatch.setattr(weyl, "generator_tables", lambda rs: {**real, 1: cycle})
    with pytest.raises(weyl.WeylError, match=r"^left row of node 1 left unresolved at \(2,3,1\)$"):
        weyl.enumerate_group.__wrapped__(rs, frozenset(rs.nodes), frozenset())
    monkeypatch.undo()
    assert len(weyl.enumerate_group.__wrapped__(rs, frozenset(rs.nodes), frozenset())) == 6


@pytest.mark.parametrize(
    "t, n, a, b, nodes, j_set",
    [
        # s_1 reads alpha_2: Deodhar's test keeps 4 windows where W^J has 2
        ("A", 3, 1, 2, {1, 3}, {1}),
        # s_3 of B3 reads alpha_2: the windows are right, the witnesses not
        ("B", 3, 2, 3, {1, 3}, {1}),
    ],
    ids=["deodhar", "witnesses"],
)
def test_swapped_simple_roots_fail_the_oracle(monkeypatch, t, n, a, b, nodes, j_set):
    # negative control: nodes a and b trade their simple roots in
    # generator_tables; the tuple build, whose Deodhar test reads the root
    # directions of the simple reflections, refuses the quotient
    rs = build(t, n)
    real = weyl.generator_tables(rs)

    def trade(k, other):
        return real[k]._replace(root=real[other].root, root_table=real[other].root_table)

    swapped = {**real, a: trade(a, b), b: trade(b, a)}
    clear_caches()
    monkeypatch.setattr(weyl, "generator_tables", lambda rs: swapped)
    with pytest.raises((AssertionError, weyl.WeylError)):
        check_quotient(build_quotient(rs, frozenset(j_set), frozenset(nodes)))
    monkeypatch.undo()
    clear_caches()
    check_quotient(build_quotient(rs, frozenset(j_set), frozenset(nodes)))


def test_enumeration_is_the_tuple_of_its_elements():
    rs = build("C", 3)
    nodes = frozenset(rs.nodes)
    enumeration = weyl.enumerate_group(rs, nodes, frozenset({1, 2}))
    windows = tuple(enumeration)
    assert isinstance(enumeration, tuple) and enumeration == windows
    assert len(enumeration) == 8 and list(enumeration) == list(windows)
    assert enumeration[1:] == windows[1:]
    assert all(type(x) is bytes and len(x) == rs.dim for x in windows)
    pq = build_quotient(rs, frozenset({1, 2}))
    assert pq.elements == windows
    # `index` is the window index, shadowing the tuple method, and the
    # quotient shares it and the left rows with the cached enumeration
    x = windows[5]
    assert enumeration.index[x] == tuple.index(enumeration, x) == 5
    assert not callable(enumeration.index)
    assert pq.index is enumeration.index and pq.left is enumeration.left


def test_benchmark_contract_sizes_and_caches():
    # the benchmark's tracer sizes a cache miss of the enumerator by len()
    # and of the quotient build by its element count, and clears and
    # inspects both caches by these names
    for fix in sweep_fixtures(3, 3, 3, 3):
        for nodes, j_set in [(None, fix.j_q)] + [
            (fix.j_p, frozenset(st.K)) for st in strata.stratify(fix).strata
        ]:
            pq = build_quotient(fix.rs, j_set, nodes)
            assert len(weyl.enumerate_group(fix.rs, pq.nodes, j_set)) == len(pq.elements)
    for cached in (weyl.enumerate_group, cosets.build_quotient):
        assert callable(cached.cache_info) and callable(cached.cache_clear)
        assert cached.cache_info().currsize > 0
