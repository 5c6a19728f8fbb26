"""The left-action table of a quotient, and the covers and orbits read
from it, against the test-only oracles of `covers.py`; and the checks of
`verify` that catch a corrupted table, cover or witness."""

import pytest

from parorbits import cosets, seidel, strata, verify, weyl
from parorbits.cosets import build_quotient, certify_interval, double_cosets
from parorbits.fixtures import Fixture, sweep_fixtures
from parorbits.rootsys import build

from affine import law_holds, sigma
from covers import all_roots_covers, compose_closure, cover_triples, with_covers
from dynkin import subsets

RANKS_TO_5 = (
    [("A", n) for n in range(1, 6)]
    + [(t, n) for t in "BC" for n in range(2, 6)]
    + [("D", 4), ("D", 5)]
)


def _quotients(t, n):
    """The quotient W_L / W_J for every J in L, where L is the node set of
    the full group or of one of its co-rank-1 Levis (the shape of the flag
    quotients inside strata).  At rank 5 the full group's quotients by J of
    at most two nodes (320 to 3,840 elements each outside type A) are left
    out to keep the suite's time; those of rank 4 are in."""
    rs = build(t, n)
    full = frozenset(rs.nodes)
    for levi in [full] + [full - {c} for c in rs.nodes]:
        for j_q in subsets(levi):
            if n < 5 or len(j_q) > 2 or levi != full:
                yield build_quotient(rs, j_q, levi)


@pytest.mark.parametrize("t,n", RANKS_TO_5)
def test_covers_match_all_roots_oracle(t, n):
    # covers and witnesses, as sorted tuples
    for pq in _quotients(t, n):
        assert cover_triples(pq) == all_roots_covers(pq), pq


@pytest.mark.parametrize("t,n", [(t, n) for t in "ABCD" for n in (7, 8)])
def test_covers_match_all_roots_oracle_on_maximal_quotients(t, n):
    # built through rootsys.build, not a Fixture, so every q is reached,
    # D_n/P_(n-1) included
    rs = build(t, n)
    nodes = frozenset(rs.nodes)
    for q in rs.nodes:
        pq = build_quotient(rs, nodes - {q})
        assert cover_triples(pq) == all_roots_covers(pq), q


@pytest.mark.parametrize("t,n", [(t, n) for t, n in RANKS_TO_5 if n <= 4])
def test_left_rows_are_involutions_matching_min_rep(t, n):
    # ranks <= 4 only, for the suite's time: at rank 5 the rows are still
    # read by the cover and orbit checks above and below
    for pq in _quotients(t, n):
        assert sorted(pq.left) == sorted(pq.nodes)
        for k, row in pq.left.items():
            s = weyl.simple_reflection(pq.rs, k)
            assert row == tuple(
                pq.index[weyl.min_rep(pq.rs, weyl.multiply(s, w), pq.j_q)]
                for w in pq.elements
            ), (pq, k)
            assert all(row[m] == i for i, m in enumerate(row)), (pq, k)


def test_double_cosets_match_compose_closure():
    # every fixture of rank <= 5, and every J_P on the quotients of rank <= 4
    cases = [(build_quotient(fix.rs, fix.j_q), fix.j_p) for fix in sweep_fixtures(5, 5, 5, 5)]
    for t, n in RANKS_TO_5:
        if n <= 4:
            cases += [(pq, j_p) for pq in _quotients(t, n) for j_p in subsets(pq.nodes)]
    for pq, j_p in cases:
        dcs = double_cosets(pq, j_p)
        assert sorted(dcs) == compose_closure(pq, j_p), (pq, sorted(j_p))


NEGATIVE_CONTROL_FIXTURES = [Fixture("C", 4, 2, 4), Fixture("B", 4, 3, 1), Fixture("B", 6, 5, 1)]


@pytest.mark.parametrize("fix", NEGATIVE_CONTROL_FIXTURES, ids=lambda fix: fix.label)
def test_corrupted_left_entry_fails_certify_interval(fix):
    # s_p * e pointed at the top element joins the bottom and top strata
    # into one set with unique extremes that is not the interval between them
    pq = build_quotient(fix.rs, fix.j_q)
    p = min(fix.j_p - fix.j_q)
    row = list(pq.left[p])
    row[0] = len(row) - 1
    corrupted = pq._replace(left={**pq.left, p: tuple(row)})
    assert all(certify_interval(pq, [dc]) for dc in double_cosets(pq, fix.j_p))
    assert not all(certify_interval(corrupted, [dc]) for dc in double_cosets(corrupted, fix.j_p))
    assert certify_interval(pq, double_cosets(pq, fix.j_p))
    assert not certify_interval(corrupted, double_cosets(corrupted, fix.j_p))


def _checks_with_quotient(monkeypatch, fix, pq):
    """The names of the `verify` checks that fail when the fixture's own
    quotient is replaced by `pq`."""
    real = cosets.build_quotient

    def patched(rs, j_q, nodes=None):
        if nodes is None and (rs, j_q) == (fix.rs, fix.j_q):
            return pq
        return real(rs, j_q, nodes)

    monkeypatch.setattr(cosets, "build_quotient", patched)
    checks = verify.verify_fixture(fix)["checks"]
    return sorted(name for name, ok in checks.items() if not ok)


@pytest.mark.parametrize("fix", NEGATIVE_CONTROL_FIXTURES, ids=lambda fix: fix.label)
def test_dropped_cover_fails_decomposition_check(monkeypatch, fix):
    # a cover inside a stratum: the stratum's edges no longer match its flag diagram
    pq = build_quotient(fix.rs, fix.j_q)
    assert _checks_with_quotient(monkeypatch, fix, pq) == []
    stratum_of = strata.stratify(fix).stratum_of
    covers = cover_triples(pq)
    dropped = next(c for c, (u, w, _) in enumerate(covers) if stratum_of[u] == stratum_of[w])
    corrupted = with_covers(pq, covers[:dropped] + covers[dropped + 1 :])
    assert "decomposition" in _checks_with_quotient(monkeypatch, fix, corrupted)


@pytest.mark.parametrize("fix", NEGATIVE_CONTROL_FIXTURES, ids=lambda fix: fix.label)
def test_swapped_witness_fails_chevalley_witness_check(monkeypatch, fix):
    pq = build_quotient(fix.rs, fix.j_q)
    witnesses = list(pq.witnesses)
    b = next(c for c, r in enumerate(witnesses) if r != witnesses[0])
    witnesses[0], witnesses[b] = witnesses[b], witnesses[0]
    corrupted = pq._replace(witnesses=tuple(witnesses))
    assert "chevalley_witnesses" in _checks_with_quotient(monkeypatch, fix, corrupted)


@pytest.mark.parametrize("fix", NEGATIVE_CONTROL_FIXTURES, ids=lambda fix: fix.label)
def test_swapped_acting_row_entries_reach_no_check(monkeypatch, fix):
    # row p, of the acting node outside J_P, is read by no `verify` check
    # once the covers are built: the Seidel table names each image by its
    # head, not by the left rows.  The images of the first class that s_p
    # moves and the first it fixes, swapped after the covers are built,
    # leave the table as it was and every check passing.  On these three
    # fixtures sigma swaps p with node 0, so the affine-symmetry law of
    # `test_affine_symmetry.py` does not read row p either
    pq = build_quotient(fix.rs, fix.j_q)
    row = list(pq.left[fix.p_node])
    a = next(i for i, m in enumerate(row) if m != i)
    b = next(i for i, m in enumerate(row) if m == i)
    row[a], row[b] = row[b], row[a]
    corrupted = pq._replace(left={**pq.left, fix.p_node: tuple(row)})
    strat = strata.stratify(fix)
    v = seidel.v_elt(fix.rs, fix.p_node)
    perm = seidel.seidel_table(strat, v)
    assert seidel.seidel_table(strat._replace(pq=corrupted), v) == perm
    assert law_holds(corrupted.left, perm, sigma(fix.rs, v, fix.p_node))
    assert _checks_with_quotient(monkeypatch, fix, corrupted) == []
