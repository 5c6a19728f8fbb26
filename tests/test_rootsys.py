import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import factorial, prod
from pathlib import Path

import pytest

from parorbits import cosets, fixtures, rootsys, seidel, strata, verify, weyl
from parorbits.fixtures import MAX_GROUP_ORDER, Fixture, group_order
from parorbits.rootsys import (
    RootSystem,
    RootSystemError,
    build,
    cominuscule_nodes,
    components,
    degrees,
    pair,
)

from dynkin import cartan_matrix, component_nodes, orderings, subsets
from exponents import eta
from caches import clear_caches
from roots import control_errors, dense_build, loop_roots, roots_filled
from windows import inverse
from words import from_word

SMALL = [("A", 3), ("A", 4), ("B", 2), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4)]


def test_positive_root_counts():
    assert len(build("A", 3).positive_roots) == 6
    assert len(build("C", 4).positive_roots) == 16
    for t, n in SMALL:
        rs = build(t, n)
        expected = {"A": n * (n + 1) // 2, "B": n * n, "C": n * n, "D": n * (n - 1)}[t]
        assert len(rs.positive_roots) == expected


def test_rank_bounds_rejected():
    with pytest.raises(RootSystemError):
        build("D", 3)
    with pytest.raises(RootSystemError):
        build("A", 0)
    with pytest.raises(RootSystemError):
        build("B", 1)
    with pytest.raises(RootSystemError):
        build("E", 6)


def test_cartan_matrix_reconstruction():
    # the Cartan matrix, read as the pairings of the simple roots with the
    # simple coroots: 2 on the diagonal, nonpositive off it, and zero at
    # (i, j) exactly where it is zero at (j, i)
    for t, n in SMALL:
        cartan = cartan_matrix(build(t, n))
        for i in range(n):
            assert cartan[i][i] == 2
            for j in range(n):
                if j != i:
                    assert cartan[i][j] <= 0 and (cartan[i][j] == 0) == (cartan[j][i] == 0)


def test_cartan_matrix_values():
    c4 = cartan_matrix(build("C", 4))
    assert c4[2][3] == -1
    assert c4[3][2] == -2
    b4 = cartan_matrix(build("B", 4))
    assert b4[2][3] == -2
    assert b4[3][2] == -1
    d4 = cartan_matrix(build("D", 4))
    assert d4[1][3] == -1
    assert d4[2][3] == 0


def test_cominuscule_tables():
    assert cominuscule_nodes("A", 3) == {1, 2, 3}
    assert cominuscule_nodes("B", 4) == {1}
    assert cominuscule_nodes("C", 4) == {4}
    assert cominuscule_nodes("D", 5) == {1, 4, 5}


def test_pair_defining_property():
    a3 = build("A", 3)
    assert pair(a3.simple_root(1), a3.double_coweight(1)) == 2
    assert pair(a3.simple_root(1), a3.double_coweight(2)) == 0


def test_pair_highest_root_c4():
    c4 = build("C", 4)
    # highest root written over the simple roots: 2a1 + 2a2 + 2a3 + a4
    coeffs = (2, 2, 2, 1)
    highest = tuple(
        sum(c * a[k] for c, a in zip(coeffs, c4.simple_roots)) for k in range(4)
    )
    assert highest in c4.positive_roots
    assert pair(highest, c4.double_coweight(4)) == 2


def test_pair_dimension_mismatch():
    a3, b3 = build("A", 3), build("B", 3)
    with pytest.raises(RootSystemError):
        pair(a3.simple_root(1), b3.double_coweight(1))


def _brute_force_expansion(rs, target, bound=6):
    """Independent oracle: search integer coefficients with sum c_p a_p = v."""
    n = rs.rank
    for coeffs in product(range(-bound, bound + 1), repeat=n):
        vec = tuple(
            sum(c * a[k] for c, a in zip(coeffs, rs.simple_coroots))
            for k in range(rs.dim)
        )
        if vec == tuple(target):
            return coeffs
    return None


def _coweight_move(rs, w, i):
    """omega_i^vee - w omega_i^vee, integral, from the doubled coweight."""
    omega2 = rs.double_coweight(i)
    twice = [a - b for a, b in zip(omega2, weyl.act(w, omega2))]
    assert all(x % 2 == 0 for x in twice)
    return tuple(x // 2 for x in twice)


def test_eta_examples():
    a3 = build("A", 3)
    assert eta(a3, (0, 0, 0, 0), 2) == 0
    assert eta(a3, a3.simple_coroot(2), 2) == 1
    w0 = weyl.longest(a3, [1, 2, 3])
    diff = _coweight_move(a3, inverse(w0), 2)
    coeffs = _brute_force_expansion(a3, diff)
    assert coeffs is not None and coeffs[1] == 2
    assert eta(a3, diff, 2) == 2


def test_eta_outside_coroot_span():
    a3 = build("A", 3)
    with pytest.raises(RootSystemError):
        eta(a3, a3.double_coweight(1), 1)  # lift has nonzero coordinate sum


def test_eta_outside_coroot_lattice():
    # e_1 = alpha_1^vee + (1/2) alpha_2^vee in B2, whose alpha_2^vee is 2 e_2
    with pytest.raises(RootSystemError, match="coroot lattice"):
        eta(build("B", 2), (1, 0), 2)


def test_reflection_identity():
    # s_a(v) = v - <a, v> a^vee on every simple root and doubled fundamental coweight
    for t, n in SMALL:
        rs = build(t, n)
        for i in range(1, n + 1):
            s = weyl.simple_reflection(rs, i)
            alpha = rs.simple_root(i)
            coroot = rs.simple_coroot(i)
            for j in range(1, n + 1):
                v = rs.double_coweight(j)
                expected = tuple(
                    x - pair(alpha, v) * y for x, y in zip(v, coroot)
                )
                assert weyl.act(s, v) == expected


@pytest.mark.parametrize(
    "t,n", [("A", 3), ("A", 4), ("B", 3), ("B", 4), ("C", 3), ("C", 4), ("D", 4)]
)
def test_eta_nonnegative_integer_on_coweight_moves(t, n):
    rs = build(t, n)
    for i in sorted(cominuscule_nodes(rs.type_label, rs.rank)):
        for w in weyl.enumerate_group(rs, frozenset(rs.nodes), frozenset()):
            diff = _coweight_move(rs, inverse(w), i)
            for j in rs.nodes:
                val = eta(rs, diff, j)
                assert type(val) is int and val >= 0


def test_coweight_move_in_coroot_lattice():
    for t, n in SMALL[:4]:
        rs = build(t, n)
        w = from_word(rs, list(rs.nodes) + list(rs.nodes)[::-1])
        for j in rs.nodes:
            diff = _coweight_move(rs, w, j)
            for k in rs.nodes:
                assert type(eta(rs, diff, k)) is int


# ---------------------------------------------------------------------------
# Test-only oracle: fraction-exact Gaussian elimination, against which the
# dual-basis pairings of `rootsys` are compared.

ORACLE_SYSTEMS = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(4, 9)]
)


def solve_in_basis(basis, target):
    """Exact coordinates of `target` over `basis`, or None if outside the span."""
    m = len(basis)
    dim = len(target)
    rows = [[Fraction(basis[j][r]) for j in range(m)] + [Fraction(target[r])] for r in range(dim)]
    pivots = []
    r = 0
    for c in range(m):
        pivot = next((k for k in range(r, dim) if rows[k][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        pv = rows[r][c]
        rows[r] = [x / pv for x in rows[r]]
        for k in range(dim):
            if k != r and rows[k][c] != 0:
                f = rows[k][c]
                rows[k] = [x - f * y for x, y in zip(rows[k], rows[r])]
        pivots.append(c)
        r += 1
    if any(rows[k][m] != 0 for k in range(r, dim)):
        return None
    sol = [Fraction(0)] * m
    for row_idx, c in enumerate(pivots):
        sol[c] = rows[row_idx][m]
    return tuple(sol)


def _oracle_positive_roots(rs):
    """Positive roots as the orbit of the simple roots under the simple
    reflections, kept where the solver finds non-negative coordinates,
    sorted by (height, vector)."""
    roots = set(rs.simple_roots)
    frontier = list(roots)
    while frontier:
        nxt = []
        for v in frontier:
            for a, c in zip(rs.simple_roots, rs.simple_coroots):
                image = tuple(x - pair(v, c) * y for x, y in zip(v, a))
                if image not in roots:
                    roots.add(image)
                    nxt.append(image)
        frontier = nxt
    coords = {v: solve_in_basis(rs.simple_roots, v) for v in roots}
    positive = [v for v in roots if all(c >= 0 for c in coords[v])]
    return tuple(sorted(positive, key=lambda v: (sum(coords[v]), v))), coords


@pytest.mark.parametrize("t,n", ORACLE_SYSTEMS)
def test_dual_basis_matches_gaussian_oracle(t, n):
    rs = build(t, n)
    positive, coords = _oracle_positive_roots(rs)
    assert rs.positive_roots == positive
    for k, beta in enumerate(rs.positive_roots):
        # the support is the nonzero positions of the coroot coordinates,
        # which `seidel.quantum_q_degree` and the tests' `roots.supports` read
        support = frozenset(i + 1 for i, c in enumerate(coords[beta]) if c != 0)
        assert support == frozenset(i + 1 for i, c in enumerate(rs.coroot_coords[k]) if c)
        norm = pair(beta, beta)
        coroot = tuple(Fraction(2 * x, norm) for x in beta)
        assert rs.coroot_coords[k] == solve_in_basis(rs.simple_coroots, coroot)


@pytest.mark.parametrize("t,n", ORACLE_SYSTEMS)
def test_eta_matches_gaussian_oracle(t, n):
    rs = build(t, n)
    moves = [weyl.longest(rs, rs.nodes)]
    moves += [seidel.v_elt(rs, i) for i in sorted(cominuscule_nodes(rs.type_label, rs.rank))]
    for w in moves:
        winv = inverse(w)
        for i in rs.nodes:
            diff = _coweight_move(rs, winv, i)
            expected = solve_in_basis(rs.simple_coroots, diff)
            assert expected is not None
            assert tuple(eta(rs, diff, j) for j in rs.nodes) == expected


@pytest.mark.parametrize("t,n", ORACLE_SYSTEMS)
def test_root_data_is_integer(t, n):
    rs = build(t, n)
    data = (rs.simple_roots, rs.simple_coroots, rs.positive_roots, rs.coroot_coords, rs.double_coweights)
    for vectors in data:
        for vec in vectors:
            assert all(type(x) is int for x in vec)
    w0 = weyl.longest(rs, rs.nodes)
    for i in rs.nodes:
        diff = _coweight_move(rs, w0, i)
        assert all(type(eta(rs, diff, j)) is int for j in rs.nodes)
    if group_order(t, n) <= MAX_GROUP_ORDER:
        fix = Fixture(t, n, 1, max(cominuscule_nodes(rs.type_label, rs.rank)))
        pq = cosets.build_quotient(rs, fix.j_q)
        assert all(type(d) is int for d in strata.delta(fix, pq))


DYNKIN_SYSTEMS = [("A", n) for n in range(1, 9)] + [
    (t, n) for t in "BC" for n in range(2, 9)
] + [("D", n) for n in range(4, 9)]


def test_components_match_graph_search():
    # every node subset of A1-A8, B/C2-8 and D4-8: the same node sets and
    # types as the graph search, in one of its Bourbaki orders
    checked = 0
    for t, n in DYNKIN_SYSTEMS:
        rs = build(t, n)
        for nodes in subsets(rs.nodes):
            comps = components(rs, nodes)
            oracle = component_nodes(rs, nodes)
            assert [sorted(c) for _, c in comps] == oracle, (rs, sorted(nodes))
            for (kind, order), comp in zip(comps, oracle):
                oracle_kind, oracle_orders = orderings(rs, comp)
                assert kind == oracle_kind, (rs, comp)
                assert list(order) in oracle_orders, (rs, comp, order)
            checked += 1
    assert checked == 2022


def test_components_edge_cases():
    assert components(build("A", 4), ()) == ()
    assert components(build("D", 6), ()) == ()
    assert components(build("A", 8), {1, 2, 4, 6, 7, 8}) == (
        ("A", (1, 2)), ("A", (4,)), ("A", (6, 7, 8))
    )
    for n in (4, 5, 8):
        d = build("D", n)
        # n-1 and n are both joined to n-2 and not to each other
        assert components(d, {n - 1, n}) == (("A", (n - 1,)), ("A", (n,)))
        assert components(d, {n - 2, n - 1, n}) == (("A", (n - 1, n - 2, n)),)
        assert components(d, set(range(1, n - 1)) | {n}) == (
            ("A", tuple(range(1, n - 1)) + (n,)),
        )
        assert components(d, {n - 3, n - 2, n - 1, n}) == (
            ("D", (n - 3, n - 2, n - 1, n)),
        )
        assert components(d, d.nodes) == (("D", d.nodes),)
        assert components(d, {n}) == (("A", (n,)),)
    for t in "BC":
        for n in (2, 5):
            rs = build(t, n)
            assert components(rs, {n}) == ((t, (n,)),)
            assert components(rs, {1}) == (("A", (1,)),)
            assert components(rs, rs.nodes) == ((t, rs.nodes),)
        assert components(build(t, 5), {1, 3, 4, 5}) == (("A", (1,)), (t, (3, 4, 5)))


def test_components_reject_out_of_range_nodes():
    for t, n in (("A", 3), ("B", 3), ("C", 3), ("D", 4)):
        rs = build(t, n)
        for nodes in ({0}, {1, n + 1}, {n - 1, n, n + 1}, {-n}):
            with pytest.raises(RootSystemError, match="out of range"):
                components(rs, nodes)


BUILD_ORACLE_SYSTEMS = (
    [("A", n) for n in range(1, 13)]
    + [(t, n) for t in "BC" for n in range(2, 13)]
    + [("D", n) for n in range(4, 13)]
    + [("C", 20)]
)


def test_build_matches_dense_oracle():
    # the build and the closed-form roots against the full pairings and
    # full rebuilds of the dense path, on every field; and the degrees of W
    # against the root count and the classical |W|
    for t, n in BUILD_ORACLE_SYSTEMS:
        rs = build(t, n)
        fields = {f: getattr(rs, f) for f in RootSystem.__slots__}
        assert fields == dense_build(t, n), (t, n)
        ds = list(degrees(t, n))
        assert len(ds) == n and sum(d - 1 for d in ds) == len(rs.positive_roots), (t, n)
        order = {"A": factorial(n + 1), "B": 2**n * factorial(n), "C": 2**n * factorial(n)}
        assert prod(ds) == order.get(t, 2 ** (n - 1) * factorial(n)), (t, n)


@pytest.mark.parametrize("t", "ABCD")
def test_closed_forms_match_the_generic_loop(t):
    # the closed forms against the per-root loop they replaced, at rank 40
    # and on every rank of the dense oracle
    for n in (40,) + tuple(m for s, m in BUILD_ORACLE_SYSTEMS if s == t):
        rs = build.__wrapped__(t, n)
        assert (rs.positive_roots, rs.coroot_coords) == loop_roots(t, n), (t, n)


def test_roots_are_filled_on_first_read_only(monkeypatch):
    # the build certifies the simple data alone; the type-A composition
    # report reads no root of A1-A4, and a fixture's validation none of its
    # root system's (the bound on |W| lifted to |W(C40)|)
    clear_caches()
    verify.type_a_composition_report(4)
    assert [roots_filled(build("A", n)) for n in range(1, 5)] == [False] * 4
    monkeypatch.setattr(fixtures, "MAX_GROUP_ORDER", 2**40 * factorial(40))
    fix = Fixture("C", 40, 20, 40)
    assert fix.rs is build("C", 40) and not roots_filled(fix.rs)
    roots = fix.rs.positive_roots
    assert roots_filled(fix.rs) and len(roots) == 40 * 40
    clear_caches()


def _refusal(t, n, corrupt):
    """The RootSystemError of the first read of the roots of X_n, built
    uncached with `corrupt` applied to the list of closed forms, or None."""
    real = rootsys._closed_forms
    rootsys._closed_forms = lambda *args: iter(corrupt(list(real(*args))))
    try:
        build.__wrapped__(t, n).positive_roots
    except RootSystemError as exc:
        return str(exc)
    finally:
        rootsys._closed_forms = real
    return None


def _with_c(forms, k, c):
    """The closed forms with root k's simple coordinates replaced by c."""
    entries, _, d = forms[k]
    return forms[:k] + [(entries, c, d)] + forms[k + 1 :]


# each corruption breaks one certificate of the first read
CORRUPTIONS = {
    # a simple coordinate moved by one: the pairings are not twice c
    "pairs with the doubled coweights": lambda f: _with_c(f, 0, [f[0][1][0] + 1] + f[0][1][1:]),
    # the negated root, with its negated coordinates: pairings hold
    "negative simple coordinate": lambda f: [
        (tuple((k, -x) for k, x in f[0][0]), [-c for c in f[0][1]], f[0][2])
    ] + f[1:],
    # the coroot coordinates doubled
    "wrong coroot coordinates": lambda f: [(f[0][0], f[0][1], [2 * d for d in f[0][2]])] + f[1:],
    # a root dropped, or one listed twice in place of another
    "positive roots, expected": lambda f: f[1:],
    "lists a positive root twice": lambda f: f[:1] + f[:-1],
}


@pytest.mark.parametrize("t,n", [("A", 2), ("A", 6), ("B", 2), ("B", 7), ("C", 2), ("C", 12), ("D", 4), ("D", 9)])
def test_every_root_certificate_runs_at_first_read(t, n):
    for match, corrupt in CORRUPTIONS.items():
        error = _refusal(t, n, corrupt)
        assert error and match in error, (t, n, match, error)
        assert "root" in error
    assert _refusal(t, n, lambda forms: forms) is None


def test_simple_data_certificates_run_at_build(monkeypatch):
    # alpha_1 = e_1 in A_3 has an integral coroot and pairs as 2 delta_1j,
    # but lies off the sum-zero hyperplane; alpha_1 = 2 e_1 + e_2 in B_3
    # has no integral coroot; alpha_1 = e_1 - e_3 in C_3 pairs as 2 with
    # 2 omega_2^vee
    real = rootsys._simple_entries
    for (t, n), first, match in (
        (("A", 3), ((0, 1),), "does not sum to 0"),
        (("B", 3), ((0, 2), (1, 1)), "inexact division"),
        (("C", 3), ((0, 1), (2, -1)), "<alpha_1, 2 omega_2^vee> = 2"),
    ):
        monkeypatch.setattr(rootsys, "_simple_entries", lambda *args: (first,) + real(*args)[1:])
        with pytest.raises(RootSystemError, match=re.escape(match)):
            build.__wrapped__(t, n)
    monkeypatch.setattr(rootsys, "_simple_entries", real)
    assert build.__wrapped__("A", 3) == build("A", 3)


def test_type_a_roots_must_sum_to_zero():
    # e_1 in A_n pairs with every doubled coweight as 2, so it passes the
    # pairing check with c = (1, ..., 1), but lies off the span of the roots
    for n in (1, 3, 8):
        error = _refusal("A", n, lambda f: [(((0, 1),), [1] * n, [1] * n)] + f[1:])
        assert error and "outside the span" in error, (n, error)


CONTROL_SYSTEMS = [("A", 3), ("B", 3), ("C", 3), ("D", 4)]


def test_broken_root_data_refused():
    # a perturbed doubled coweight makes the build raise, naming a simple
    # root, and a root with wrong coordinates its first read, naming it
    for t, n in CONTROL_SYSTEMS:
        errors = control_errors(t, n)
        assert len(errors) == 2 and all(e and "root" in e for e in errors), (t, n, errors)
        assert build.__wrapped__(t, n).positive_roots == build(t, n).positive_roots


def test_broken_root_data_refused_under_python_O():
    # the certificates raise RootSystemError rather than assert, so they
    # hold when python -O strips assert statements
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    code = (
        "import json, sys; from roots import control_errors; "
        "print(json.dumps([sys.flags.optimize, [control_errors(*s) for s in %r]]))"
        % (CONTROL_SYSTEMS,)
    )
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    optimize, errors = json.loads(out)
    assert optimize == 1
    assert errors == [control_errors(t, n) for t, n in CONTROL_SYSTEMS]
    assert all(e for per_system in errors for e in per_system)
