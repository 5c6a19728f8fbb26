import json
from math import comb

import pytest

from parorbits import cosets, decomp, seidel, strata, verify, weyl
from parorbits.cosets import (
    build_quotient,
    certify_interval,
    double_cosets,
)
from parorbits.decomp import emit_plain
from parorbits.fixtures import Fixture, FixtureError, parse_fixture, sweep_fixtures
from parorbits.rootsys import RANK_BOUNDS, build, components, degrees

from caches import clear_caches
from corruptions import simple_root_tables_swapped
from covers import cover_triples, with_covers
from dynkin import subsets
from roots import classical_systems, roots_inside
from windows import draw_window, enc, identity

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
    g24 = build_quotient(build("A", 3), frozenset({1, 3}))
    assert len(g24.elements) == 6
    assert g24.rank_counts() == (1, 1, 2, 1, 1)
    ig = build_quotient(build("C", 4), frozenset({1, 3, 4}))
    assert len(ig.elements) == 24
    og = build_quotient(build("B", 4), frozenset({1, 2, 4}))
    assert len(og.elements) == 32


def test_quotient_grading_and_duality():
    for fix in FIXTURES:
        pq = build_quotient(fix.rs, fix.j_q)
        counts = pq.rank_counts()
        assert counts[0] == 1 and counts[-1] == 1
        assert counts == counts[::-1]  # Poincare duality of the quotient
        top = len(fix.rs.positive_roots) - len(roots_inside(fix.rs, fix.j_q))
        assert pq.top_degree() == top
        for w in pq.elements:
            assert weyl.min_rep(fix.rs, w, fix.j_q) == w


def test_cover_witnesses():
    for fix in FIXTURES[:5]:
        pq = build_quotient(fix.rs, fix.j_q)
        for u, w, r in cover_triples(pq):
            u, w = pq.elements[u], pq.elements[w]
            s = cosets.reflection_by_index(pq.rs, r)
            assert weyl.multiply(u, s) == w
            assert weyl._length(pq.rs, w) == weyl._length(pq.rs, u) + 1


def test_witness_outside_the_positive_roots_is_refused(monkeypatch, cold):
    # the simple roots of nodes 1 and 2 swapped in the generator tables: a
    # cover's witness p^-1(alpha_k) of C3/P3 leaves Phi^+, and is refused
    # by node, class and vector rather than escaping as a KeyError
    fix = Fixture("C", 3, 3, 3)
    assert simple_root_tables_swapped(fix, monkeypatch)
    with pytest.raises(cosets.CosetError) as refused:
        build_quotient(fix.rs, fix.j_q)
    assert str(refused.value) == "witness (-1,1,0) of node 2 at WC3(2,1,-3) is not a positive root"


def test_double_coset_examples():
    g24 = build_quotient(build("A", 3), frozenset({1, 3}))
    sizes = [len(dc) for dc in double_cosets(g24, frozenset({1, 3}))]
    assert sizes == [1, 4, 1]
    ig = build_quotient(build("C", 4), frozenset({1, 3, 4}))
    assert [len(dc) for dc in double_cosets(ig, frozenset({1, 2, 3}))] == [6, 12, 6]
    og = build_quotient(build("B", 4), frozenset({1, 2, 4}))
    assert [len(dc) for dc in double_cosets(og, frozenset({2, 3, 4}))] == [12, 8, 12]


def test_double_cosets_partition():
    for fix in FIXTURES:
        pq = build_quotient(fix.rs, fix.j_q)
        dcs = double_cosets(pq, fix.j_p)
        seen = [k for dc in dcs for k in dc]
        assert sorted(seen) == list(range(len(pq.elements)))
        assert len(seen) == len(set(seen))



def test_double_cosets_come_sorted_with_length_extremes():
    # no sort and no length scan: classes come in the order of their w_min
    # and list their members sorted, so w_min first and w_max last, on every
    # J_P of every maximal quotient up to rank 4 and on every fixture up to
    # rank 5
    partitions = [
        (build_quotient(rs, frozenset(rs.nodes) - {q}), j_p)
        for t in "ABCD"
        for n in range(RANK_BOUNDS[t], 5)
        for rs in [build(t, n)]
        for q in rs.nodes
        for j_p in subsets(rs.nodes)
    ]
    partitions += [(build_quotient(fix.rs, fix.j_q), fix.j_p) for fix in sweep_fixtures(5, 5, 5, 5)]
    for pq, j_p in partitions:
        dcs = double_cosets(pq, j_p)
        ell = pq.lengths
        assert list(dcs) == sorted(dcs, key=lambda dc: (ell[dc[0]], pq.elements[dc[0]]))
        for dc in dcs:
            assert list(dc) == sorted(dc)
            lengths = sorted(ell[k] for k in dc)
            assert ell[dc[0]] == lengths[0] and lengths[:2].count(lengths[0]) == 1
            assert ell[dc[-1]] == lengths[-1] and lengths[-2:].count(lengths[-1]) == 1


def test_double_coset_without_unique_length_extremes_refused():
    # G(2,4) under s_2: the classes of s1s2 and s3s2 are singletons of
    # length 2; a row entry that joins them leaves no unique w_min
    g24 = build_quotient(build("A", 3), frozenset({1, 3}))
    singles = [dc for dc in double_cosets(g24, {2}) if g24.lengths[dc[0]] == 2]
    assert [len(dc) for dc in singles] == [1, 1]
    a, b = (dc[0] for dc in singles)
    row = list(g24.left[2])
    row[a] = b
    corrupted = g24._replace(left={**g24.left, 2: tuple(row)})
    # the members are named by `weyl.name`
    names = ", ".join("WA3" + weyl.window_str(g24.elements[k]) for k in sorted({a, b}))
    with pytest.raises(cosets.CosetError) as refused:
        double_cosets(corrupted, {2})
    assert str(refused.value) == "double coset without unique length extremes: [%s]" % names

def bruhat_interval(pq, members):
    """Test-only oracle, the scan `certify_interval` replaced: the elements
    x of `pq` with w_min <= x <= w_max by the subword property, w_min and
    w_max the first and last of `members`."""
    rs, group = pq.rs, pq.elements
    w_min, w_max = group[members[0]], group[members[-1]]
    return {
        k for k, x in enumerate(group) if weyl.bruhat_leq(rs, w_min, x) and weyl.bruhat_leq(rs, x, w_max)
    }


def test_certify_interval():
    g24 = build_quotient(build("A", 3), frozenset({1, 3}))
    dcs = double_cosets(g24, frozenset({1, 3}))
    assert len(dcs[0]) == 1 and certify_interval(g24, [dcs[0]])
    for fix in list(sweep_fixtures(5, 5, 5, 5)) + [Fixture("D", 6, 3, 6), Fixture("B", 6, 5, 1)]:
        pq = build_quotient(fix.rs, fix.j_q)
        dcs = double_cosets(pq, fix.j_p)
        for dc in dcs:
            assert bruhat_interval(pq, dc) == set(dc), fix.label
            assert certify_interval(pq, [dc]), fix.label
        assert certify_interval(pq, dcs), fix.label


def test_certify_interval_negative_control():
    g24 = build_quotient(build("A", 3), frozenset({1, 3}))
    dcs = double_cosets(g24, frozenset({1, 3}))
    middle = dcs[1]
    dropped = middle[:1] + middle[2:]  # an interior member
    # w_min and w_max are the first and last member, so a class of another
    # stratum added beyond them would make a larger interval; in IG(2,8)
    # the stratum above has classes strictly between the middle's extremes
    ig = build_quotient(build("C", 4), frozenset({1, 3, 4}))
    ig_middle, ig_above = double_cosets(ig, frozenset({1, 2, 3}))[1:]
    lo, hi = ig_middle[0], ig_middle[-1]
    inside = [k for k in ig_above if lo < k < hi]
    assert inside
    added = tuple(sorted(ig_middle + (inside[0],)))
    for pq, members in ((g24, dropped), (ig, added)):
        assert bruhat_interval(pq, members) != set(members)
        assert not certify_interval(pq, [members])


@pytest.mark.parametrize(
    "fix",
    [Fixture("A", 3, 2, 2), Fixture("C", 4, 2, 4), Fixture("B", 4, 3, 1), Fixture("B", 6, 5, 1)],
    ids=lambda fix: fix.label,
)
def test_moved_member_fails_certifying_all_strata_at_once(fix):
    # each interior member of each stratum, moved into each other stratum:
    # the strata certified together fail, and the subword oracle agrees
    pq = build_quotient(fix.rs, fix.j_q)
    dcs = double_cosets(pq, fix.j_p)
    assert certify_interval(pq, dcs)
    intervals = [bruhat_interval(pq, dc) for dc in dcs]  # w_min and w_max stay put
    moves = 0
    for a, src in enumerate(dcs):
        for k in src[1:-1]:
            for b, dst in enumerate(dcs):
                if b == a:
                    continue
                moved = list(dcs)
                moved[a] = tuple(x for x in src if x != k)
                moved[b] = tuple(sorted(dst + (k,)))
                assert not certify_interval(pq, moved), (fix.label, k, a, b)
                assert any(iv != set(dc) for iv, dc in zip(intervals, moved))
                moves += 1
    assert moves > 0


def test_certify_interval_refuses_no_cosets():
    g24 = build_quotient(build("A", 3), frozenset({1, 3}))
    with pytest.raises(cosets.CosetError, match="no double coset"):
        certify_interval(g24, [])


@pytest.mark.parametrize(
    "t,n",
    [("A", n) for n in range(1, 6)]
    + [(t, n) for t in "BC" for n in range(2, 6)]
    + [("D", 4), ("D", 5)],
)
def test_cover_closure_is_bruhat_order(t, n):
    # Bjorner-Brenti Thm 2.5.5, which certify_interval relies on: Bruhat
    # order on W^Q is the transitive closure of the cover relation
    rs = build(t, n)
    nodes = frozenset(rs.nodes)
    for q in rs.nodes:
        if t == "D" and q == n - 1:
            continue
        pq = build_quotient(rs, nodes - {q})
        above = [[] for _ in pq.elements]
        for u, w in zip(pq.sources, pq.targets):
            above[u].append(w)
        group = pq.elements
        for i, u in enumerate(group):
            reach, stack = {i}, [i]
            while stack:
                for k in above[stack.pop()]:
                    if k not in reach:
                        reach.add(k)
                        stack.append(k)
            for j, w in enumerate(group):
                assert weyl.bruhat_leq(rs, u, w) == (j in reach), (q, u, w)


def test_type_d_picard_two_rejected():
    with pytest.raises(FixtureError, match="Picard rank 2"):
        Fixture("D", 4, 3, 1)  # q_node 3 = n-1
    sweep = sweep_fixtures(0, 0, 0, 6)
    assert sweep and not any(fix.q_node == fix.rank - 1 for fix in sweep)


def test_quotient_json_schema():
    # the quotient's JSON form is the public plain emission of its diagram
    fix = Fixture("A", 3, 2, 2)
    pq = build_quotient(fix.rs, fix.j_q)
    payload = json.loads(emit_plain(fix, "json"))
    assert payload["fixture"] == "A3/P2+P2"
    assert payload["vertices"][0] == {"window": "(1,2,3,4)", "length": 0}
    assert payload["vertices"] == [
        {"window": weyl.window_str(w), "length": weyl._length(fix.rs, w)}
        for w in pq.elements
    ]
    lengths = [v["length"] for v in payload["vertices"]]
    assert lengths == sorted(lengths)
    for e in payload["edges"]:
        assert set(e) == {"from", "to", "mult"}
    # on the Grassmannian G(2,4) every Bruhat cover carries multiplicity 1
    assert [(e["from"], e["to"]) for e in payload["edges"]] == list(zip(pq.sources, pq.targets))


def test_levi_subsystem_quotient():
    # flags inside a Levi reuse the machinery: A_3 Levi inside C_4
    c4 = build("C", 4)
    fq = build_quotient(c4, frozenset({2}), frozenset({1, 2, 3}))
    assert len(fq.elements) == 12  # two-step flags of C^4
    assert fq.rank_counts() == (1, 2, 3, 3, 2, 1)


def full_group_quotient(rs, j_q, nodes):
    """Test-only oracle, the path `build_quotient` replaced: all of W_L,
    then `min_rep` of every element, then dedupe.  Covers are u -> u*s_beta
    one step longer, over every positive root."""
    reps = {weyl.min_rep(rs, w, j_q) for w in weyl.enumerate_group(rs, nodes, frozenset())}
    reps = sorted(reps, key=lambda w: (weyl._length(rs, w), w))
    index = {w: k for k, w in enumerate(reps)}
    reflections = [weyl.reflection(rs, beta) for beta in rs.positive_roots]
    covers = []
    for u_idx, u in enumerate(reps):
        for root_idx, s in enumerate(reflections):
            w = weyl.multiply(u, s)
            if w in index and weyl._length(rs, w) == weyl._length(rs, u) + 1:
                covers.append((u_idx, index[w], root_idx))
    return tuple(reps), tuple(sorted(covers))


def min_rep_closure(pq, j_p):
    """Test-only oracle: orbits of W_P on W^Q by closing under min_rep(s*w)."""
    gens = [weyl.simple_reflection(pq.rs, p) for p in sorted(j_p)]
    orbits, assigned = [], set()
    for start in range(len(pq.elements)):
        if start in assigned:
            continue
        orbit, stack = {start}, [start]
        while stack:
            w = pq.elements[stack.pop()]
            for s in gens:
                m = pq.index[weyl.min_rep(pq.rs, weyl.multiply(s, w), pq.j_q)]
                if m not in orbit:
                    orbit.add(m)
                    stack.append(m)
        assigned |= orbit
        orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


@pytest.mark.parametrize(
    "t,n",
    [("A", n) for n in range(1, 7)]
    + [(t, n) for t in "BC" for n in range(2, 6)]
    + [("D", 4), ("D", 5)],
)
def test_quotient_matches_full_group_oracle(t, n):
    rs = build(t, n)
    nodes = frozenset(rs.nodes)
    for q in rs.nodes:
        pq = build_quotient(rs, nodes - {q})
        assert (pq.elements, cover_triples(pq)) == full_group_quotient(rs, nodes - {q}, nodes), q


def test_flag_quotients_match_full_group_oracle():
    seen = set()
    for fix in sweep_fixtures(5, 5, 5, 5):
        for fq in map(decomp.flag_quotient, strata.stratify(fix).strata):
            key = (fq.rs, fq.j_q, fq.nodes)
            if key not in seen:
                seen.add(key)
                assert (fq.elements, cover_triples(fq)) == full_group_quotient(*key), fq
    assert len(seen) == 144


def test_double_cosets_match_min_rep_closure():
    for fix in sweep_fixtures(5, 5, 5, 5):
        pq = build_quotient(fix.rs, fix.j_q)
        members = sorted(double_cosets(pq, fix.j_p))
        assert members == min_rep_closure(pq, fix.j_p), fix.label


def _quotient_order(t, n, m):
    """|W^Q| for the maximal parabolic Q = P_m, in closed form."""
    if t == "A":
        return comb(n + 1, m)
    if t == "D" and m >= n - 1:
        return 2 ** (n - 1)
    return 2**m * comb(n, m)


@pytest.mark.parametrize("t,n", [(t, n) for t in "ABCD" for n in (6, 7, 8)])
def test_quotient_size_closed_forms(t, n):
    # every element is a distinct minimal representative, so a count equal
    # to |W^Q| means the enumeration is all of W^Q; this stands in for the
    # full-group oracle at B6, C6 and D6, where it would take tens of seconds
    rs = build(t, n)
    nodes = frozenset(rs.nodes)
    for m in rs.nodes:
        j_q = nodes - {m}
        windows = weyl.enumerate_group(rs, nodes, j_q)
        assert len(windows) == _quotient_order(t, n, m), m
        assert len(set(windows)) == len(windows)
        assert not any(weyl.first_descent(rs, w, sorted(j_q)) for w in windows)


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _t_product(degrees):
    """prod [d]_t over the degrees, [d]_t = 1 + t + ... + t^(d-1)."""
    poly = [1]
    for d in degrees:
        poly = _poly_mul(poly, [1] * d)
    return poly


def _levi_degrees(rs, nodes):
    """Degrees of W_J, read off the Dynkin components of J."""
    return [d for kind, comp in components(rs, nodes) for d in degrees(kind, len(comp))]


def _rank_counts(rs, windows):
    lengths = [weyl._length(rs, w) for w in windows]
    return [lengths.count(k) for k in range(max(lengths) + 1)]


@pytest.mark.parametrize("t", "ABCD")
def test_quotient_rank_generating_functions(t):
    # sum over W^Q of t^length = prod [d_i]_t / prod [d_i^Q]_t, the degrees
    # of W and of the Levi of Q = P_q; every quotient of rank 6-10 with
    # |W^Q| <= 256
    checked = 0
    for n in range(6, 11):
        rs = build(t, n)
        nodes = frozenset(rs.nodes)
        for q in rs.nodes:
            if (t == "D" and q == n - 1) or _quotient_order(t, n, q) > 256:
                continue
            counts = _rank_counts(rs, weyl.enumerate_group(rs, nodes, nodes - {q}))
            levi = _levi_degrees(rs, nodes - {q})
            assert _poly_mul(counts, _t_product(levi)) == _t_product(degrees(t, n)), (n, q)
            checked += 1
    assert checked == {"A": 36, "B": 16, "C": 16, "D": 16}[t]  # 84 quotients in all


def test_levi_quotient_rank_generating_functions():
    # W_L / W_K inside a maximal Levi L, for every K in L, ranks <= 5: the
    # rank-generating function is prod [d]_t over the components of L
    # divided by the same product over the components of K, which checks
    # the types and ranks that rootsys.components gives both
    checked = 0
    for t in "ABCD":
        for n in range(RANK_BOUNDS[t], 6):
            rs = build(t, n)
            for cut in rs.nodes:
                levi = frozenset(rs.nodes) - {cut}
                for k_set in subsets(levi):
                    counts = _rank_counts(rs, weyl.enumerate_group(rs, levi, k_set))
                    assert _poly_mul(
                        counts, _t_product(_levi_degrees(rs, k_set))
                    ) == _t_product(_levi_degrees(rs, levi)), (rs, cut, sorted(k_set))
                    checked += 1
    assert checked == 129 + 2 * 128 + 112


def test_deodhar_lemma_on_random_windows():
    # for w in W^J and a simple reflection s, either s*w is in W^J or
    # s*w = w*t for a simple reflection t in J
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        t = data.draw(st.sampled_from("ABCD"))
        rs = build(t, data.draw(st.integers(RANK_BOUNDS[t], 10)))
        window = draw_window(data, rs)
        j_set = data.draw(st.frozensets(st.sampled_from(rs.nodes)))
        k = data.draw(st.sampled_from(rs.nodes))
        w = weyl.min_rep(rs, window, j_set)
        sw = weyl.multiply(weyl.simple_reflection(rs, k), w)
        assert weyl.first_descent(rs, sw, sorted(j_set)) == 0 or any(
            sw == weyl.multiply(w, weyl.simple_reflection(rs, j)) for j in j_set
        )

    check()


def _count_calls(monkeypatch, module, names):
    """Replace each named function of `module` by a counting spy; returns
    the counts by name."""
    counts = dict.fromkeys(names, 0)

    def spy(name, real):
        def counted(*args):
            counts[name] += 1
            return real(*args)

        return counted

    for name in names:
        monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    return counts


def test_quotients_build_no_throwaway_elements(monkeypatch):
    # cold B6/P5+P1: the enumerator, the covers and the orbit closure read
    # signed tables and the left-action table, with no window product and
    # no descent test, and the enumerator lists windows: it reads the
    # generators, one simple reflection per node, once, whatever |W^Q|
    fix = Fixture("B", 6, 5, 1)
    k_sets = sorted({frozenset(st.K) for st in strata.stratify(fix).strata}, key=sorted)
    clear_caches()
    real_enumerate = weyl.enumerate_group
    counts = _count_calls(monkeypatch, weyl, ("multiply", "_is_descent", "simple_reflection"))
    counts.update(generators=0)

    def enumerate_spy(rs, nodes, j_set):
        result = real_enumerate(rs, nodes, j_set)
        counts["generators"] += len(nodes)
        return result

    monkeypatch.setattr(weyl, "enumerate_group", enumerate_spy)
    pq = build_quotient(fix.rs, fix.j_q)
    assert len(double_cosets(pq, fix.j_p)) == 3
    for k_set in k_sets:
        build_quotient(fix.rs, k_set, fix.j_p)
    assert counts["multiply"] == counts["_is_descent"] == 0, counts
    # the generator tables are built once, from the rank simple reflections
    assert counts["simple_reflection"] == fix.rs.rank < counts["generators"], counts
    assert len(pq.elements) == 192
    # the spies are live
    weyl.multiply(pq.elements[1], pq.elements[1])
    weyl.first_descent(fix.rs, pq.elements[1], fix.rs.nodes)
    assert counts["multiply"] == 1 and counts["_is_descent"] > 0, counts


@pytest.mark.parametrize("label", ["C4/P2+P4", "B4/P3+P1", "D5/P5+P1"])
def test_subcommand_paths_build_no_element_per_class(monkeypatch, cold, label):
    # from cold caches, the strata report, the Seidel table and the plain
    # diagrams make no window product per class: classes stay windows, and
    # the Seidel table carries each class's head through the signed table
    # of v; the one product is w_0 v, the Seidel element's certificate
    fix = parse_fixture(label)
    counts = _count_calls(monkeypatch, weyl, ("multiply",))
    strat = strata.stratify(fix)
    pq = strat.pq
    assert certify_interval(pq, [st.members for st in strat.strata])
    assert [strata.stratum_json(st) for st in strat.strata]
    assert len(seidel.table_rows(fix)) == len(pq.elements)
    for fmt in ("dot", "tikz", "json"):
        assert emit_plain(fix, fmt), fmt
    assert counts["multiply"] == 1, counts
    # the spy is live
    weyl.multiply(pq.elements[1], pq.elements[1])
    assert counts["multiply"] == 2, counts


def test_stratify_makes_no_window_product(monkeypatch, cold):
    # cold B6/P5+P1: delta reads w^-1 through a signed table, and K and the
    # orbits come off the left-action table
    fix = Fixture("B", 6, 5, 1)
    counts = _count_calls(monkeypatch, weyl, ("multiply",))
    strat = strata.stratify(fix)
    pq = strat.pq
    assert len(pq.elements) == 192 and len(strat.strata) == 3
    assert counts == {"multiply": 0}, counts
    # the spy is live
    w = pq.elements[1]
    weyl.multiply(w, w)
    assert counts == {"multiply": 1}, counts


def test_chevalley_witness_check_builds_no_element(monkeypatch, cold):
    # one reflection per witness root, built once and cached; every edge is
    # then a gather from the signed table of its source, with no window
    # product
    fix = Fixture("B", 6, 5, 1)
    dec = decomp.build_decomposition(fix)
    pq, mult = dec.strat.pq, dec.mult
    roots = set(pq.witnesses)
    assert len(pq.witnesses) > len(roots)
    counts = _count_calls(monkeypatch, weyl, ("multiply", "reflection"))
    assert verify._check_chevalley_witnesses(pq, mult)
    assert counts == {"multiply": 0, "reflection": len(roots)}, counts
    assert verify._check_chevalley_witnesses(pq, mult)
    assert counts == {"multiply": 0, "reflection": len(roots)}, counts
    # the spy is live
    weyl.multiply(pq.elements[1], pq.elements[1])
    assert counts["multiply"] == 1, counts
    # negative control: one edge, a cover of X's quotient, retargeted to
    # another class of the same length fails the check
    lengths = pq.lengths
    edges = list(cover_triples(pq))
    for i, (u, w, r) in enumerate(edges):
        same = [k for k, length in enumerate(lengths) if length == lengths[w] and k != w]
        if same:
            edges[i] = (u, same[0], r)
            break
    assert edges != list(cover_triples(pq))
    assert not verify._check_chevalley_witnesses(with_covers(pq, edges), mult)
    # and so does the multiplicity of one witness root, one too large
    r = pq.witnesses[0]
    raised = mult[:r] + (mult[r] + 1,) + mult[r + 1 :]
    assert not verify._check_chevalley_witnesses(pq, raised)


def test_root_tables_match_a_fresh_recomputation():
    # A1-A8, B2-B8, C2-C8 and D4-D8: the index of each positive root, keyed
    # by its bytes; the simple roots' tables are checked with the
    # generators' in test_weyl.py
    for rs in classical_systems():
        root_index = cosets.root_index(rs)
        assert len(root_index) == len(rs.positive_roots), rs
        for r, beta in enumerate(rs.positive_roots):
            assert root_index[enc(beta)] == r, (rs, beta)
        assert cosets.root_index(rs) is root_index


def test_quotient_builds_make_no_signed_table(monkeypatch):
    # cold B6/P5+P1: X's quotient and its flag quotients read the tables
    # that each root system builds once, 2 per node, of the simple
    # reflection and of the simple root, and make no signed table themselves
    fix = Fixture("B", 6, 5, 1)
    k_sets = sorted({frozenset(st.K) for st in strata.stratify(fix).strata}, key=sorted)
    assert len(k_sets) > 1
    tables = (weyl.generator_tables, cosets.root_index)
    clear_caches()
    counts = _count_calls(monkeypatch, weyl, ("signed_table",))
    build_quotient(fix.rs, fix.j_q)
    for k_set in k_sets:
        build_quotient(fix.rs, k_set, fix.j_p)
    assert counts["signed_table"] == 2 * fix.rs.rank, counts
    assert [t.cache_info().misses for t in tables] == [1, 1]


def test_decomposition_enumerates_no_group(monkeypatch, cold):
    # building the B6/P5+P1 decomposition from cold enumerates nothing
    # larger than its quotient (|W^Q| = 192; the whole of W(B6) is 46,080)
    fix = Fixture("B", 6, 5, 1)
    original = weyl.enumerate_group
    sizes = []

    def spy(*args):
        result = original(*args)
        sizes.append(len(result))
        return result

    monkeypatch.setattr(weyl, "enumerate_group", spy)
    dec = decomp.build_decomposition(fix)
    assert len(dec.strat.pq.elements) == 192
    assert sizes and max(sizes) <= 192


def test_certificate_and_covers_reuse_enumerated_work(monkeypatch, cold):
    # cold B6/P5+P1 decomposition plus its interval check: no Bruhat
    # comparison, and no length computed at all, since enumerate_group
    # records each element's breadth-first level as its length
    fix = Fixture("B", 6, 5, 1)
    orig_enumerate, orig_leq, orig_length = weyl.enumerate_group, weyl.bruhat_leq, weyl._length
    counts = {"enumerated": 0, "bruhat_leq": 0, "_length": 0}

    def enumerate_spy(*args):
        result = orig_enumerate(*args)
        counts["enumerated"] += len(result)
        return result

    def leq_spy(*args):
        counts["bruhat_leq"] += 1
        return orig_leq(*args)

    def length_spy(*args):
        counts["_length"] += 1
        return orig_length(*args)

    monkeypatch.setattr(weyl, "enumerate_group", enumerate_spy)
    monkeypatch.setattr(weyl, "bruhat_leq", leq_spy)
    monkeypatch.setattr(weyl, "_length", length_spy)
    dec = decomp.build_decomposition(fix)
    assert certify_interval(dec.strat.pq, [st.members for st in dec.strat.strata])
    assert counts["bruhat_leq"] == 0
    assert counts["enumerated"] > 0 and counts["_length"] == 0, counts
    # the spies are live: a Bruhat comparison reads both lengths
    assert weyl.bruhat_leq(fix.rs, identity(fix.rs), enc((2, 1, 3, 4, 5, 6)))
    assert counts["bruhat_leq"] == 1 and counts["_length"] == 2, counts


def test_no_length_recomputed_on_the_cli_paths(monkeypatch, cold):
    # lengths live in the quotient: verify, the Seidel table and every
    # emission read `pq.lengths` and never recompute one from a window
    calls = []
    real = weyl._length

    def length_spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(weyl, "_length", length_spy)
    for label in ("C4/P2+P4", "B4/P3+P1", "D5/P5+P1"):
        fix = parse_fixture(label)
        assert verify.verify_fixture(fix)["pass"], label
        assert seidel.table_rows(fix), label
        dec = decomp.build_decomposition(fix)
        for fmt in ("dot", "tikz", "json"):
            assert decomp.emit(dec, fmt) and decomp.emit_plain(fix, fmt), (label, fmt)
    assert calls == []
    # the spy is live
    pq = dec.strat.pq
    assert weyl._length(fix.rs, pq.elements[-1]) == pq.top_degree()
    assert len(calls) == 1
