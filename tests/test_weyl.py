import ast
import random
from itertools import combinations, product
from math import factorial
from operator import itemgetter
from pathlib import Path

import pytest

from parorbits import weyl
from parorbits.rootsys import RANK_BOUNDS, build
from parorbits.weyl import (
    WeylError,
    act,
    bruhat_leq,
    enumerate_group,
    longest,
    min_rep,
    multiply,
    window_str,
)

import tuples
from covers import reflection_image
from roots import (
    classical_systems,
    dense_reflection,
    fresh_signed_table,
    support_reflection,
    validate_window,
)
from windows import (
    dec,
    draw_window,
    enc,
    identity,
    inverse,
    longest_by_adding_descents,
    longest_by_block_loop,
    pairwise_length,
    root_is_negative,
    strip_descents,
)
from words import from_word, reduced_word


def _group(rs):
    """The window of every element of the Weyl group of `rs`."""
    return list(enumerate_group(rs, frozenset(rs.nodes), frozenset()))


def parse_window(text):
    """Inverse of `window_str`."""
    return tuple(int(tok) for tok in text.strip().lstrip("(").rstrip(")").split(","))


def test_from_word_examples():
    a3 = build("A", 3)
    assert from_word(a3, []) == enc((1, 2, 3, 4))
    assert from_word(a3, [1]) == enc((2, 1, 3, 4))
    c4 = build("C", 4)
    assert from_word(c4, [4]) == enc((1, 2, 3, -4))
    with pytest.raises(WeylError):
        from_word(a3, [4])


def test_window_validation():
    # the validation of the support oracle, which the closed form of
    # `weyl.reflection` must agree with
    a3, c4, d4 = build("A", 3), build("C", 4), build("D", 4)
    with pytest.raises(WeylError):
        validate_window(a3, enc((-1, 2, 3, 4)))  # no signs in type A
    with pytest.raises(WeylError):
        validate_window(d4, enc((-1, 2, 3, 4)))  # odd sign count in type D
    with pytest.raises(WeylError, match=r"window \(1,1,2,3\) is not a signed permutation"):
        validate_window(c4, enc((1, 1, 2, 3)))
    with pytest.raises(WeylError, match="length 3, expected 4"):
        validate_window(c4, enc((1, 2, 3)))
    assert validate_window(d4, enc((-1, -2, 3, 4))) is None
    with pytest.raises(WeylError):
        weyl.reflection(c4, (1, 1, 1, 0))  # not a root: 2x/|x|^2 is not integral
    with pytest.raises(WeylError):
        weyl.reflection(a3, (1, 1, 0, 0))  # a root of D4, not of A3: signs in type A


def test_reflection_refuses_malformed_vectors():
    # the dimension and a nonzero norm are checked before any arithmetic
    a3, b2 = build("A", 3), build("B", 2)
    cases = [
        (b2, (0, 0), "zero vector"),
        (a3, (0, 0, 0, 0), "zero vector"),
        (b2, (1, 0, 0), "dimension 3, expected 2"),
        (b2, (1,), "dimension 1, expected 2"),
        (a3, (1, -1, 0), "dimension 3, expected 4"),
        (b2, (), "dimension 0, expected 2"),
    ]
    for rs, vec, message in cases:
        with pytest.raises(WeylError, match=message):
            weyl.reflection(rs, vec)


def _reflection_outcome(reflect, rs, vec):
    """The window `reflect` gives, or the text of the WeylError it raises."""
    try:
        return reflect(rs, vec)
    except WeylError as exc:
        return "WeylError: %s" % exc


def test_closed_form_reflection_matches_support_oracle():
    # the same window, or the same refusal, as the generic support loop on
    # every vector of dimension <= 4 with entries in -2..2 (and of
    # dimension 2 with entries in -4..4), in every root system of that
    # dimension, and on every positive root up to rank 8
    small = [rs for rs in classical_systems() if rs.dim <= 4]
    assert {rs.dim for rs in small} == {2, 3, 4}
    cases = [(rs, vec) for rs in small for vec in product(range(-2, 3), repeat=rs.dim)]
    cases += [(rs, vec) for rs in small if rs.dim == 2 for vec in product(range(-4, 5), repeat=2)]
    cases += [(rs, beta) for rs in classical_systems() for beta in rs.positive_roots]
    kinds = ("no integral coroot", "zero vector", "type A windows", "type D windows")
    refused = set()
    for rs, vec in cases:
        got = _reflection_outcome(weyl.reflection, rs, vec)
        assert got == _reflection_outcome(support_reflection, rs, vec), (rs, vec)
        if isinstance(got, str):
            refused.update(kind for kind in kinds if kind in got)
    # each refusal but the dimension's is reached here
    assert refused == set(kinds)


@pytest.mark.parametrize("t", "ABCD")
def test_reflection_matches_dense_oracle(t):
    # images on the root's support only, against the image of every e_k
    # as a full vector, on every positive root (and its negative) up to
    # rank 8
    for n in range(RANK_BOUNDS[t], 9):
        rs = build(t, n)
        for beta in rs.positive_roots:
            expected = enc(dense_reflection(rs, beta))
            assert weyl.reflection(rs, beta) == expected, (t, n, beta)
            assert weyl.reflection(rs, tuple(-x for x in beta)) == expected, (t, n, beta)


def test_act_examples():
    a3 = build("A", 3)
    omega1 = a3.double_coweight(1)
    assert act(identity(a3), omega1) == omega1
    s1 = from_word(a3, [1])
    # s_1 (2 omega_1^vee) = 2 omega_1^vee - <alpha_1, 2 omega_1^vee> alpha_1^vee
    expected = tuple(x - 2 * y for x, y in zip(omega1, a3.simple_coroot(1)))
    assert act(s1, omega1) == expected
    c4 = build("C", 4)
    w0 = longest(c4, c4.nodes)
    omega4 = c4.double_coweight(4)
    assert act(w0, omega4) == tuple(-x for x in omega4)


def test_length_and_group_axioms():
    a3 = build("A", 3)
    w0 = longest(a3, a3.nodes)
    assert weyl._length(a3, w0) == 6
    d4 = build("D", 4)
    assert weyl._length(d4, longest(d4, d4.nodes)) == 12
    s1 = from_word(a3, [1])
    assert multiply(s1, s1) == identity(a3)
    b2 = build("B", 2)
    for w in _group(b2):
        assert weyl._length(b2, inverse(w)) == weyl._length(b2, w)
        assert multiply(w, inverse(w)) == identity(b2)


@pytest.mark.parametrize(
    "t,n,order",
    [
        ("A", 1, 2),
        ("A", 3, 24),
        ("A", 4, 120),
        ("B", 2, 8),
        ("B", 3, 48),
        ("C", 4, 384),
        ("D", 4, 192),
        ("D", 5, 1920),
    ],
)
def test_group_orders(t, n, order):
    rs = build(t, n)
    assert len(enumerate_group(rs, frozenset(rs.nodes), frozenset())) == order
    expected = {
        "A": factorial(n + 1),
        "B": 2**n * factorial(n),
        "C": 2**n * factorial(n),
        "D": 2 ** (n - 1) * factorial(n),
    }[t]
    assert order == expected


def _length_by_inversion_formula(rs, window):
    """Type-specific inversion count, kept independent of the root scan."""
    b = dec(window)
    d = len(b)
    if rs.type_label == "A":
        return sum(1 for i in range(d) for j in range(i + 1, d) if b[i] > b[j])
    total = sum(1 for i in range(d) for j in range(i + 1, d) if _inv_pair(b[i], b[j]))
    total += sum(
        1 for i in range(d) for j in range(i + 1, d) if _sum_pair(b[i], b[j])
    )
    if rs.type_label in ("B", "C"):
        total += sum(1 for x in b if x < 0)
    return total


def _inv_pair(x, y):
    if (x > 0) == (y > 0):
        return x > y
    return x < 0 < y


def _sum_pair(x, y):
    if x < 0 and y < 0:
        return True
    if (x > 0) != (y > 0):
        return x + y > 0
    return False


@pytest.mark.parametrize("t,n", [("A", 4), ("B", 3), ("C", 3), ("D", 4)])
def test_length_matches_inversion_formula(t, n):
    rs = build(t, n)
    for w in _group(rs):
        assert weyl._length(rs, w) == _length_by_inversion_formula(rs, w)


def _check_against_root_scan(rs, window):
    w = dec(window)
    inverted = sum(root_is_negative(w, beta) for beta in rs.positive_roots)
    assert weyl._length(rs, window) == inverted, w
    for k in rs.nodes:
        descent = root_is_negative(w, rs.simple_root(k))
        assert weyl._is_descent(rs, window, k) == descent, (window, k)


@pytest.mark.parametrize("t", "ABCD")
def test_length_and_descents_match_root_scan_on_maximal_quotients(t):
    # every element of every maximal quotient of rank 8: 19,166 in all
    rs = build(t, 8)
    nodes = frozenset(rs.nodes)
    checked = 0
    for q in rs.nodes:
        enumeration = enumerate_group(rs, nodes, nodes - {q})
        for window, length in zip(enumeration, enumeration.lengths):
            # the length enumerate_group records is its breadth-first level
            assert length == weyl._length(rs, window), window
            _check_against_root_scan(rs, window)
            assert not weyl.first_descent(rs, window, sorted(nodes - {q}))
            checked += 1
    assert checked == {"A": 510, "B": 6560, "C": 6560, "D": 5536}[t]


@pytest.mark.parametrize("t,n", [(t, n) for t in "ABCD" for n in range(RANK_BOUNDS[t], 6)])
def test_inversion_test_matches_root_scan(t, n):
    # every (element, positive root) pair of the whole group: the image is
    # None exactly where w inverts beta, and w * s_beta otherwise
    rs = build(t, n)
    tests = [
        (reflection_image(beta), weyl.reflection(rs, beta), beta)
        for beta in rs.positive_roots
    ]
    for w in _group(rs):
        wt = dec(w)
        for image, s_beta, beta in tests:
            x = image(wt)
            if root_is_negative(wt, beta):
                assert x is None, (wt, beta)
            else:
                assert enc(x) == multiply(w, s_beta), (wt, beta)


def test_window_statistics_on_random_windows():
    # each bytes kernel against the root scan, descent stripping and its
    # tuple oracle (`tuples.py`), and the encoding against tuples: the
    # round trip through `window_str`, and sorted order
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.data())
    def check(data):
        t = data.draw(st.sampled_from("ABCD"))
        rs = build(t, data.draw(st.integers(RANK_BOUNDS[t], 10)))
        window = draw_window(data, rs)
        _check_against_root_scan(rs, window)
        w = dec(window)
        for beta in rs.positive_roots:
            x = reflection_image(beta)(w)
            assert (x is None) == root_is_negative(w, beta)
        j_set = data.draw(st.frozensets(st.sampled_from(rs.nodes)))
        expected = strip_descents(rs, window, j_set)
        assert min_rep(rs, window, j_set) == expected, (w, sorted(j_set))
        assert enc(w) == window and type(window) is bytes
        assert parse_window(window_str(window)) == w
        assert dec(min_rep(rs, window, j_set)) == tuples.min_rep(rs, w, j_set)
        others = [draw_window(data, rs) for _ in range(data.draw(st.integers(1, 2)))]
        assert list(map(dec, sorted(others + [window]))) == sorted(map(dec, others + [window]))
        u = others[0]
        assert dec(multiply(u, window)) == tuples.multiply(dec(u), w)
        gens = weyl.generator_tables(rs)
        for k, (table, _, _) in tuples.generator_tables(rs).items():
            assert weyl._is_descent(rs, window, k) == tuples.is_descent(rs, w, k), (w, k)
            # s_k * w, and w^-1(alpha_k)
            assert dec(window.translate(gens[k].table)) == itemgetter(*w)(table), (w, k)
            alpha_table = tuples.signed_table(rs.simple_root(k))
            assert dec(window.translate(gens[k].root_table)) == itemgetter(*w)(alpha_table), (w, k)
        v = rs.double_coweight(data.draw(st.sampled_from(rs.nodes)))
        assert act(window, v) == tuples.act(w, v)
        moved = window.translate(weyl.signed_table(enc(v)))  # w^-1(v)
        assert dec(moved) == itemgetter(*w)(tuples.signed_table(v))

    @hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.lists(
            st.tuples(st.permutations(range(1, 128)), st.integers(0, 2**127 - 1)),
            min_size=2,
            max_size=4,
        )
    )
    def check_dimension_127(drawn):
        # signed permutations of the largest dimension a byte window holds,
        # each entry negated where its bit of the mask is set
        ws = [tuple(-b if mask >> (b - 1) & 1 else b for b in p) for p, mask in drawn]
        windows = [weyl.encode(w, 127) for w in ws]
        assert list(map(dec, windows)) == ws
        assert [parse_window(window_str(x)) for x in windows] == ws
        assert list(map(dec, sorted(windows))) == sorted(ws)
        assert dec(multiply(windows[0], windows[1])) == tuples.multiply(ws[0], ws[1])

    check()
    check_dimension_127()


def test_encoding_refuses_dimensions_past_127():
    # entry x is stored as the byte x + 128, which holds -127..127
    entries = list(range(-127, 0)) + list(range(1, 128))
    assert weyl.MAX_DIM == 127
    assert weyl.encode(entries, 127) == bytes(range(1, 128)) + bytes(range(129, 256))
    with pytest.raises(WeylError, match="^dimension 128 exceeds 127"):
        weyl.encode(range(1, 129), 128)
    with pytest.raises(WeylError, match="^dimension 128 exceeds 127"):
        weyl.encode([1, 2], 128)  # the dimension decides, not the entries


def test_out_of_range_nodes_raise():
    # node 0 would read simple_roots[-1] and return the "no descent" 0
    c3 = build("C", 3)
    w = enc((1, 2, -3))
    for nodes in ({0}, {4}):
        with pytest.raises(WeylError, match="out of range"):
            weyl.first_descent(c3, w, sorted(nodes))
        with pytest.raises(WeylError, match="out of range"):
            min_rep(c3, w, nodes)
        with pytest.raises(WeylError, match="out of range"):
            longest(c3, nodes)
    # a valid node first must not hide an invalid one after it
    w = enc((2, 1, 3))
    with pytest.raises(WeylError, match="out of range"):
        weyl.first_descent(c3, w, [1, 9])
    with pytest.raises(WeylError, match="out of range"):
        min_rep(c3, w, {1, 9})
    for root in ((0, 0, 0), (-1, 1, 0), (1, 1, 1)):
        with pytest.raises(WeylError):
            reflection_image(root)


def test_weyl_reads_no_root_vectors():
    # the window statistics still use the window's integers alone; the
    # simple roots are read only to build the simple reflections and, in
    # generator_tables, the simple roots' own tables beside them
    tree = ast.parse(Path(weyl.__file__).read_text())
    readers = {}
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr in (
                "positive_roots",
                "simple_roots",
                "simple_root",
            ):
                readers.setdefault(node.attr, set()).add(getattr(top, "name", None))
    assert readers == {"simple_roots": {"simple_reflection", "generator_tables"}}


def test_root_vectors_are_read_in_pinned_functions():
    # outside rootsys, only these functions read a root vector: the simple
    # reflections and generator_tables, the one home of the simple roots'
    # tables (so cosets grows no second one), the norm of alpha_q in delta,
    # the reflections in and the index of the positive roots, and the sum
    # over them in the quantum degree
    readers = {}
    for path in Path(weyl.__file__).parent.glob("*.py"):
        if path.stem == "rootsys":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in (
                    "positive_roots",
                    "simple_roots",
                    "simple_root",
                ):
                    key = "%s.%s" % (path.stem, getattr(top, "name", None))
                    readers.setdefault(key, set()).add(node.attr)
    assert readers == {
        "weyl.simple_reflection": {"simple_roots"},
        "weyl.generator_tables": {"simple_roots"},
        "strata.delta": {"simple_root"},
        "cosets.reflection_by_index": {"positive_roots"},
        "cosets.root_index": {"positive_roots"},
        "seidel.quantum_q_degree": {"positive_roots"},
    }


def test_generator_tables_match_a_fresh_recomputation():
    # each node's tables, from the dense reflection in alpha_k and from
    # alpha_k itself, at every node, the short node n of B_n included
    for rs in classical_systems():
        tables = weyl.generator_tables(rs)
        assert sorted(tables) == list(rs.nodes), rs
        for k, gen in tables.items():
            alpha = rs.simple_root(k)
            assert gen.table == fresh_signed_table(dense_reflection(rs, alpha)), (rs, k)
            assert gen.root == enc(alpha), (rs, k)
            assert gen.root_table == fresh_signed_table(alpha), (rs, k)
        assert weyl.generator_tables(rs) is tables


def test_reduced_words_roundtrip():
    rs = build("B", 3)
    for w in _group(rs):
        word = reduced_word(rs, w)
        assert len(word) == weyl._length(rs, w)
        assert from_word(rs, word) == w


def test_longest_examples():
    a3 = build("A", 3)
    assert longest(a3, []) == identity(a3)
    assert longest(a3, [1]) == from_word(a3, [1])
    assert longest(a3, [1, 2, 3]) == enc((4, 3, 2, 1))


def test_longest_matches_descent_adding_oracle():
    # every J of A1-A8, B2-B8, C2-C8 and D4-D8
    cases = 0
    for t in "ABCD":
        for n in range(RANK_BOUNDS[t], 9):
            rs = build(t, n)
            for r in range(n + 1):
                for nodes in combinations(rs.nodes, r):
                    expected = longest_by_adding_descents(rs, nodes)
                    assert longest(rs, nodes) == expected, (t, n, nodes)
                    cases += 1
    assert cases == 2022


def test_longest_block_pass_matches_the_block_loop():
    # `longest` is `min_rep`'s block pass with the longest switch; the loop
    # that reversed or negated the blocks on its own is the oracle, on every
    # J of A1-A7, B2-B7, C2-C7 and D4-D7
    cases = 0
    for t in "ABCD":
        for n in range(RANK_BOUNDS[t], 8):
            rs = build(t, n)
            for r in range(n + 1):
                for nodes in combinations(rs.nodes, r):
                    assert longest(rs, nodes) == longest_by_block_loop(rs, nodes), (t, n, nodes)
                    cases += 1
    assert cases == 998


def test_longest_certificate_names_a_node(monkeypatch):
    # with the last block of J skipped, the result is not w_0(J): a node of
    # that block is not a right descent, and the certificate names it
    real_runs = weyl._runs
    monkeypatch.setattr(weyl, "_runs", lambda nodes: real_runs(nodes)[:-1])
    cases = 0
    for t, n in (("A", 4), ("B", 4), ("C", 4), ("D", 5)):
        rs = build(t, n)
        for r in range(1, n + 1):
            for nodes in combinations(rs.nodes, r):
                with pytest.raises(WeylError, match=r"node \d+ is not a right descent"):
                    longest(rs, nodes)
                cases += 1
    assert cases == 3 * 15 + 31


def test_min_rep_examples():
    a3 = build("A", 3)
    assert min_rep(a3, identity(a3), [1, 3]) == identity(a3)
    w0 = longest(a3, a3.nodes)
    assert min_rep(a3, w0, [1, 3]) == enc((3, 4, 1, 2))


def _subsets(nodes):
    return [frozenset(c) for r in range(len(nodes) + 1) for c in combinations(nodes, r)]


@pytest.mark.parametrize(
    "t,n", [(t, n) for t in "ABCD" for n in range(RANK_BOUNDS[t], 5)] + [("A", 5)]
)
def test_min_rep_matches_descent_stripping_for_every_j(t, n):
    rs = build(t, n)
    group = _group(rs)
    for j_set in _subsets(rs.nodes):
        for w in group:
            assert min_rep(rs, w, j_set) == strip_descents(rs, w, j_set), (w, sorted(j_set))


@pytest.mark.parametrize("t", "BCD")
def test_min_rep_matches_descent_stripping_on_maximal_j_at_rank_5(t):
    rs = build(t, 5)
    nodes = frozenset(rs.nodes)
    j_sets = [frozenset(), nodes] + [nodes - {q} for q in rs.nodes]
    for w in enumerate_group(rs, nodes, frozenset()):
        for j_set in j_sets:
            assert min_rep(rs, w, j_set) == strip_descents(rs, w, j_set), (w, sorted(j_set))


def test_min_rep_idempotent_and_shorter():
    rs = build("C", 3)
    rng = random.Random(7)
    group = _group(rs)
    for _ in range(100):
        w = rng.choice(group)
        rep = min_rep(rs, w, [1, 3])
        assert min_rep(rs, rep, [1, 3]) == rep
        shorter, length = weyl._length(rs, rep), weyl._length(rs, w)
        assert shorter <= length
        assert (shorter == length) == (weyl.first_descent(rs, w, [1, 3]) == 0)


def test_act_is_group_action():
    rs = build("B", 3)
    rng = random.Random(11)
    group = _group(rs)
    coweights = [rs.double_coweight(i) for i in rs.nodes]
    for _ in range(200):
        u, w = rng.choice(group), rng.choice(group)
        for v in coweights:
            assert act(multiply(u, w), v) == act(u, act(w, v))


def _cover_closure_leq(rs):
    """Independent Bruhat oracle: transitive closure of reflection covers."""
    group = sorted(_group(rs), key=lambda w: (weyl._length(rs, w), w))
    index = {w: k for k, w in enumerate(group)}
    reflections = [weyl.reflection(rs, beta) for beta in rs.positive_roots]
    n = len(group)
    reach = [1 << k for k in range(n)]
    by_length = {}
    for k, w in enumerate(group):
        by_length.setdefault(weyl._length(rs, w), []).append(k)
    for ell in sorted(by_length, reverse=True):
        for k in by_length[ell]:
            w = group[k]
            for t in reflections:
                wt = multiply(w, t)
                if weyl._length(rs, wt) == ell + 1:
                    reach[k] |= reach[index[wt]]
    return group, index, reach


@pytest.mark.parametrize("t,n", [("C", 3), ("A", 4), ("B", 3)])
def test_bruhat_agrees_with_cover_closure(t, n):
    rs = build(t, n)
    group, index, reach = _cover_closure_leq(rs)
    for i, u in enumerate(group):
        for j, w in enumerate(group):
            assert bruhat_leq(rs, u, w) == bool(reach[i] >> j & 1)


def test_bruhat_basics():
    rs = build("A", 3)
    w0 = longest(rs, rs.nodes)
    for w in _group(rs):
        assert bruhat_leq(rs, identity(rs), w)
        assert bruhat_leq(rs, w, w)
        assert bruhat_leq(rs, w, w0)


def test_window_str():
    assert window_str(enc((3, -1, 2))) == "(3,-1,2)"
    assert parse_window("(3,-1,2)") == (3, -1, 2)
    assert weyl.name(build("C", 4), enc((1, 2, 3, -4))) == "WC4(1,2,3,-4)"
    assert weyl.name(build("A", 2), enc((3, 1, 2))) == "WA2(3,1,2)"
    assert window_str(enc((127, -127, 1))) == "(127,-127,1)"


@pytest.mark.parametrize("t", "ABCD")
def test_bisected_length_matches_pairwise_count_on_rank_5(t):
    # every element of W(A5), W(B5), W(C5) and W(D5)
    rs = build(t, 5)
    group = enumerate_group(rs, frozenset(rs.nodes), frozenset())
    assert all(weyl._length(rs, x) == pairwise_length(rs, x) for x in group)
    assert len(group) == {"A": 720, "B": 3840, "C": 3840, "D": 1920}[t]
