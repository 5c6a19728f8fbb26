from collections import Counter
from math import factorial, lcm

import pytest

from parorbits import cli, cosets, rootsys, seidel, strata, verify, weyl
from parorbits import fixtures as fixtures_module
from parorbits.fixtures import Fixture, parse_fixture, sweep_fixtures
from parorbits.rootsys import build
from parorbits.seidel import (
    SeidelError,
    orbits,
    quantum_q_degree,
    seidel_table,
    v_elt,
)

from cases import stratum_count
from exponents import delta
from weights import q_degree_by_fixture
from windows import enc, identity, strip_descents
from words import from_word, reduced_word, table_by_rows

FIXTURES = [
    Fixture("A", 3, 1, 3),
    Fixture("A", 3, 2, 2),
    Fixture("A", 4, 2, 3),
    Fixture("B", 3, 2, 1),
    Fixture("B", 4, 3, 1),
    Fixture("C", 4, 2, 4),
    Fixture("C", 3, 3, 3),
    Fixture("D", 4, 2, 4),
    Fixture("D", 4, 4, 1),
    Fixture("D", 5, 5, 4),
]


def _table(fix):
    """Quotient of the fixture with its Seidel table perm and the
    q-exponents, each class's delta from the stratification."""
    strat = strata.stratify(fix)
    return strat.pq, seidel_table(strat, v_elt(fix.rs, fix.p_node)), strat.delta


def test_v_elt_examples():
    a1 = build("A", 1)
    assert v_elt(a1, 1) == from_word(a1, [1])
    a3 = build("A", 3)
    assert v_elt(a3, 1) == enc((4, 1, 2, 3))
    # type C: the minimal all-negating element is the sign-reversing
    # involution composed with the order reversal, of length 10
    c4 = build("C", 4)
    v4 = v_elt(c4, 4)
    assert v4 == enc((-4, -3, -2, -1))
    assert weyl._length(c4, v4) == 10
    omega = c4.double_coweight(4)
    w0 = weyl.longest(c4, c4.nodes)
    assert weyl.act(v4, omega) == weyl.act(w0, omega)


def test_v_elt_rejects_non_cominuscule():
    with pytest.raises(SeidelError):
        v_elt(build("B", 4), 2)


def test_v_elt_not_minimal_names_the_element(monkeypatch, cold):
    # min_rep's block pass skipped leaves v = w_0, which still solves the
    # coweight equation but has right descents in J; the error names it
    # with its group
    real = weyl._block_pass
    monkeypatch.setattr(
        weyl,
        "_block_pass",
        lambda rs, window, nodes, longest: real(rs, window, nodes, longest) if longest else window,
    )
    for (t, n, i), name in (
        (("C", 4, 4), "WC4(-1,-2,-3,-4)"),
        (("A", 3, 1), "WA3(4,3,2,1)"),
        (("D", 5, 1), "WD5(-1,-2,-3,-4,5)"),
    ):
        with pytest.raises(SeidelError) as refused:
            v_elt(build(t, n), i)
        assert str(refused.value) == "Seidel element %s of node %d is not minimal in w_0 W_J" % (name, i)


def test_seidel_element_built_once_per_node(monkeypatch, cold):
    # the type-A report asks for the 10 Seidel elements of A1-A4: each is
    # built once, w_0 by one block pass, and runs its own certificate, two
    # coweight images and one descent search; asked again, it is cached
    calls = Counter()

    def spy(name):
        real = getattr(weyl, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in ("longest", "act", "first_descent"):
        monkeypatch.setattr(weyl, name, spy(name))
    assert verify.type_a_composition_report(4)["pass"]
    assert calls == {"longest": 10, "act": 20, "first_descent": 10}, calls
    assert verify.type_a_composition_report(4)["pass"]
    assert calls == {"longest": 10, "act": 20, "first_descent": 10}, calls
    # a second root system of the same rank gets its own
    assert v_elt(build("C", 4), 4) == enc((-4, -3, -2, -1))
    assert calls == {"longest": 11, "act": 22, "first_descent": 11}, calls


def _brute_force_seidel_element(rs, i):
    """Test-only oracle: the shortest solution of the coweight equation,
    found by scanning the whole group, with the number of such solutions."""
    omega = rs.double_coweight(i)
    target = weyl.act(weyl.longest(rs, rs.nodes), omega)
    group = weyl.enumerate_group(rs, frozenset(rs.nodes), frozenset())
    solutions = [u for u in group if weyl.act(u, omega) == target]
    shortest = min(weyl._length(rs, u) for u in solutions)
    return [u for u in solutions if weyl._length(rs, u) == shortest]


def test_v_elt_matches_brute_force_oracle():
    cases = 0
    for t, ranks in (("A", range(1, 6)), ("B", range(2, 6)), ("C", range(2, 6)), ("D", range(4, 6))):
        for n in ranks:
            rs = build(t, n)
            for i in sorted(rootsys.cominuscule_nodes(rs.type_label, rs.rank)):
                assert _brute_force_seidel_element(rs, i) == [v_elt(rs, i)], (t, n, i)
                cases += 1
    assert cases == 29


def test_v_elt_exact_beyond_rank_five():
    c7 = build("C", 7)
    assert v_elt(c7, 7) == enc((-7, -6, -5, -4, -3, -2, -1))
    d7 = build("D", 7)
    assert weyl._length(d7, v_elt(d7, 1)) == len(d7.positive_roots) - len(build("D", 6).positive_roots)


def test_v_elt_certified_at_rank_five():
    v5 = v_elt(build("C", 5), 5)
    assert v5 == enc((-5, -4, -3, -2, -1))
    d5 = v_elt(build("D", 5), 1)
    assert weyl._length(build("D", 5), d5) == len(build("D", 5).positive_roots) - len(
        build("D", 4).positive_roots
    )


def test_type_a_seidel_elements_are_rotations():
    for n in range(1, 5):
        rs = build("A", n)
        for i in range(1, n + 1):
            v = v_elt(rs, i)
            expected = enc([(k - i - 1) % (n + 1) + 1 for k in range(1, n + 2)])
            assert v == expected


def test_seidel_apply_examples():
    fix = Fixture("A", 3, 2, 2)
    v = v_elt(fix.rs, 2)
    pq, perm, qexp = _table(fix)
    k = pq.index[identity(fix.rs)]
    assert qexp[k] == 0
    assert pq.elements[perm[k]] == weyl.min_rep(fix.rs, v, fix.j_q)
    top = pq.index[enc((3, 4, 1, 2))]
    assert qexp[top] == 2 and pq.elements[perm[top]] == identity(fix.rs)


def test_bijection_on_classes():
    for fix in FIXTURES:
        _, perm, _ = _table(fix)
        assert sorted(perm) == list(range(len(perm)))


def test_projective_space_table_is_cyclic():
    # dual hyperplane fixture: q shows up exactly once, at the top class
    fix = Fixture("A", 3, 1, 3)
    pq, perm, qexp = _table(fix)
    qs = list(qexp)
    assert qs == [0, 0, 0, 1]
    images = [pq.lengths[j] for j in perm]
    assert images == [1, 2, 3, 0]


def test_g24_q_exponents():
    fix = Fixture("A", 3, 2, 2)
    _, _, qexp = _table(fix)
    qs = list(qexp)
    assert qs == [0, 1, 1, 1, 1, 2]


def _seidel_apply_oracle(v, w, fix):
    """Test-only oracle: the per-class quantum product, with delta computed
    afresh from coweights instead of read from the stratum, and the class
    reduced by descent stripping instead of `weyl.min_rep`."""
    return delta(fix, w), strip_descents(fix.rs, weyl.multiply(v, w), fix.j_q)


def test_seidel_table_matches_per_class_oracle(monkeypatch):
    fixtures = sweep_fixtures(5, 5, 5, 5) + [parse_fixture("D6/P3+P6"), parse_fixture("B6/P5+P1")]
    assert len(fixtures) == 106
    # past rank 6, with the bound on |W| lifted: the head rule is checked
    # where the sweep does not reach
    monkeypatch.setattr(fixtures_module, "MAX_GROUP_ORDER", 2**8 * factorial(8))  # |W(B8)|
    fixtures += [parse_fixture(label) for label in ("C7/P3+P7", "D7/P3+P7", "B8/P7+P1")]
    for fix in fixtures:
        v = v_elt(fix.rs, fix.p_node)
        pq, perm, qexp = _table(fix)
        for k, w in enumerate(pq.elements):
            q, image = _seidel_apply_oracle(v, w, fix)
            assert qexp[k] == q, (fix.label, w)
            assert pq.elements[perm[k]] == image, (fix.label, w)


def test_seidel_table_strips_no_descents(monkeypatch, cold):
    # cold C5/P2+P5: min_rep, the per-class path that the table replaced,
    # reads each class's representative off the window by block sorts,
    # with no descent search and no simple reflection
    fix = Fixture("C", 5, 2, 5)
    strat = strata.stratify(fix)
    pq = strat.pq
    v = v_elt(fix.rs, fix.p_node)
    calls = []
    for name in ("simple_reflection", "first_descent", "min_rep", "multiply"):
        real = getattr(weyl, name)
        monkeypatch.setattr(
            weyl, name, lambda *args, _real=real, _name=name: calls.append(_name) or _real(*args)
        )
    images = [pq.index[weyl.min_rep(fix.rs, weyl.multiply(v, w), fix.j_q)] for w in pq.elements]
    assert sorted(images) == list(range(len(images)))
    # the spies are live: that path calls both products, and the
    # stripping oracle both descent helpers
    strip_descents(fix.rs, weyl.longest(fix.rs, fix.rs.nodes), fix.j_q)
    assert set(calls) == {"simple_reflection", "first_descent", "min_rep", "multiply"}
    calls.clear()
    # the table names each image by its head: no window product, block
    # sort, descent search or simple reflection, and no left row, as the
    # quotient it reads has none
    blind = strat._replace(pq=pq._replace(left=None))
    assert list(seidel_table(blind, v)) == images and calls == []


def test_shared_seidel_elements_and_words_match_fresh_ones(monkeypatch):
    # every fixture of the caps-8 sweep, with the bound on |W| lifted: the
    # cached Seidel element is the one built afresh, and the table read
    # off the heads is the one composed from the left rows along a reduced
    # word of it
    monkeypatch.setattr(fixtures_module, "MAX_GROUP_ORDER", 2**8 * factorial(8))  # |W(B8)|
    fixtures = sweep_fixtures(8, 8, 8, 8)
    assert len(fixtures) == 349
    for fix in fixtures:
        rs = fix.rs
        v = v_elt(rs, fix.p_node)
        assert v == v_elt.__wrapped__(rs, fix.p_node), fix.label
        word = reduced_word(rs, v)
        assert from_word(rs, word) == v and len(word) == weyl._length(rs, v), fix.label
        strat = strata.stratify(fix)
        assert seidel_table(strat, v) == table_by_rows(strat.pq, v), fix.label


def _head_fault(pq, fault):
    """X's quotient with a fault in its heads: "shared" gives the last
    window the head of the one before it, "missing" drops the last class,
    so the images that land on it name no class."""
    (m,) = set(pq.rs.nodes) - pq.j_q
    windows = list(pq.elements)
    if fault == "shared":
        windows[-1] = windows[-2][:m] + windows[-1][m:]
    else:
        del windows[-1]
    return pq._replace(elements=tuple(windows))


HEAD_FAULTS = {"shared": "shares its head", "missing": "names no class"}


@pytest.mark.parametrize("fault", sorted(HEAD_FAULTS))
def test_head_faults_raise_seidel_error(monkeypatch, capsys, fault):
    # a head lookup that fails is a SeidelError naming the window, never a
    # bare KeyError, and the CLI reports it as one `error:` line, exit 2
    fix = Fixture("C", 4, 2, 4)
    strat = strata.stratify(fix)
    v = v_elt(fix.rs, fix.p_node)
    with pytest.raises(SeidelError, match=HEAD_FAULTS[fault]) as refused:
        seidel_table(strat._replace(pq=_head_fault(strat.pq, fault)), v)
    assert "WC4(" in str(refused.value)
    real = seidel.seidel_table
    monkeypatch.setattr(
        seidel, "seidel_table", lambda strat, v: real(strat._replace(pq=_head_fault(strat.pq, fault)), v)
    )
    for argv in (
        ["quantum", "--type", "C", "--rank", "4", "--grassmannian", "2"],
        ["verify", "--fixture", "C4/P2+P4"],
    ):
        code = cli.main(argv)
        out, err = capsys.readouterr()
        assert (code, out) == (2, ""), argv
        assert err == "error: %s\n" % refused.value, argv


def test_top_class_q_exresponse():
    for fix in FIXTURES:
        pq = cosets.build_quotient(fix.rs, fix.j_q)
        assert strata.delta(fix, pq)[-1] == stratum_count(fix) - 1


def test_composition_path_independence():
    for fix in FIXTURES:
        v = v_elt(fix.rs, fix.p_node)
        pq, perm, _ = _table(fix)
        vv = weyl.multiply(v, v)
        for k, w in enumerate(pq.elements):
            direct = strip_descents(fix.rs, weyl.multiply(vv, w), fix.j_q)
            assert pq.elements[perm[perm[k]]] == direct


def _return_time(perm, start):
    """Steps of k -> perm[k] from `start` back to it, walked one at a time."""
    k, n = perm[start], 1
    while k != start:
        assert n < len(perm), "the walk from %d never returns" % start
        k, n = perm[k], n + 1
    return n


def test_finite_order_and_orbit_q_constant():
    # the walk from every class is the oracle for `orbits` and for the two
    # laws that `verify` reads off them
    for fix in FIXTURES:
        _, perm, qexp = _table(fix)
        cycles = orbits(perm)
        order = lcm(*(_return_time(perm, k) for k in range(len(perm))))
        assert order == lcm(*map(len, cycles))
        assert order <= len(weyl.enumerate_group(fix.rs, frozenset(fix.rs.nodes), frozenset()))
        totals = set()
        for start in range(len(perm)):
            k, total = start, 0
            for _ in range(order):
                total += qexp[k]
                k = perm[k]
            assert k == start
            totals.add(total)
        assert len(totals) == 1
        assert totals == {order // len(c) * sum(qexp[k] for k in c) for c in cycles}
        for c in cycles:
            assert perm[c[-1]] == c[0] and len(c) == _return_time(perm, c[0])
            assert [perm[k] for k in c[:-1]] == c[1:]
        assert sorted(k for c in cycles for k in c) == list(range(len(perm)))


def test_orbits_close_exactly_on_a_bijection():
    assert orbits((1, 2, 0, 4, 3)) == [[0, 1, 2], [3, 4]]
    assert orbits(()) == []
    # 0 -> 1 -> 2 -> 1: the walk stops at a seen index without closing
    cycles = orbits((1, 2, 1))
    assert cycles == [[0, 1, 2]]
    assert (1, 2, 1)[cycles[0][-1]] != cycles[0][0]
    # a fixed point reached from outside is walked once, from the least index
    assert orbits((1, 1, 0)) == [[0, 1], [2]]


def test_type_a_cyclic_composition_law():
    for n in range(1, 5):
        rs = build("A", n)
        velems = {0: identity(rs)}
        for i in range(1, n + 1):
            velems[i] = v_elt(rs, i)
        for i in range(1, n + 1):
            for k in range(1, n + 1):
                assert weyl.multiply(velems[i], velems[k]) == velems[(i + k) % (n + 1)]


def test_type_a_orders_commute_on_quantum_terms():
    fix = Fixture("A", 3, 2, 1)
    other = Fixture("A", 3, 2, 3)
    pq, perm1, q1 = _table(fix)
    pq3, perm3, q3 = _table(other)
    assert pq3.elements == pq.elements
    for k in range(len(pq.elements)):
        a1, b3 = perm1[k], perm3[k]
        a13, b31 = perm3[a1], perm1[b3]
        assert a13 == b31
        assert q1[k] + q3[a1] == q3[k] + q1[b3]


def test_quantum_degree_values():
    assert quantum_q_degree(build("A", 3), 1) == 4  # projective 3-space
    assert quantum_q_degree(build("A", 3), 2) == 4
    assert quantum_q_degree(build("C", 4), 2) == 7  # 2n - m + 1 on IG(m,2n)


def test_quantum_degree_per_node_matches_the_per_fixture_sum():
    # the degree read once per (rs, q_node) is the per-fixture sum over the
    # roots outside Phi_Q, on every fixture of the caps-5 sweep
    for fix in sweep_fixtures(5, 5, 5, 5):
        assert quantum_q_degree(fix.rs, fix.q_node) == q_degree_by_fixture(fix), fix.label


def test_degree_bookkeeping():
    for fix in FIXTURES:
        v = v_elt(fix.rs, fix.p_node)
        pq, perm, qexp = _table(fix)
        v_class = weyl._length(fix.rs, weyl.min_rep(fix.rs, v, fix.j_q))
        qdeg = quantum_q_degree(fix.rs, fix.q_node)
        length = [weyl._length(fix.rs, w) for w in pq.elements]
        for k, w_length in enumerate(length):
            assert v_class + w_length == qexp[k] * qdeg + length[perm[k]]


def test_table_rows_schema():
    rows = seidel.table_rows(Fixture("A", 3, 2, 2))
    assert rows[0] == {
        "window": "(1,2,3,4)",
        "length": 0,
        "q_exp": 0,
        "image_window": "(3,4,1,2)",
    }
