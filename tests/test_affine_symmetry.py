"""The affine symmetry of the Seidel table (see `affine.py`) on every
fixture of the caps-6 sweep and three of rank 8, with its negative
controls: two images swapped, sigma shifted by one node, and one
left-row pair fixed.
"""

import pytest

from parorbits import rootsys, seidel, strata, weyl
from parorbits.fixtures import parse_fixture, sweep_fixtures

from affine import law_holds, sigma
from windows import inverse

RANK_EIGHT = ("C8/P4+P8", "D8/P4+P8", "B8/P7+P1")


@pytest.fixture(scope="module")
def tables():
    """(fixture, X's left rows, the Seidel table, v, sigma) for every
    fixture of the caps-6 sweep and three of rank 8."""
    fixtures = sweep_fixtures(6, 6, 6, 6) + [parse_fixture(label) for label in RANK_EIGHT]
    out = []
    for fix in fixtures:
        strat = strata.stratify(fix)
        v = seidel.v_elt(fix.rs, fix.p_node)
        perm = seidel.seidel_table(strat, v)
        out.append((fix, strat.pq.left, perm, v, sigma(fix.rs, v, fix.p_node)))
    assert len(out) == 170
    return out


def test_sigma_is_an_automorphism_of_the_extended_diagram(tables):
    # sigma is one-to-one from the nodes other than p into the nodes, it
    # keeps the Cartan pairings, and v s_p v^-1 is the reflection in the
    # highest root, the last positive root
    for fix, _, _, v, sig in tables:
        rs, p = fix.rs, fix.p_node
        assert len(set(sig.values())) == len(sig), fix.label
        for i in sig:
            for j in sig:
                assert rootsys.pair(rs.simple_root(sig[i]), rs.simple_coroot(sig[j])) == rootsys.pair(
                    rs.simple_root(i), rs.simple_coroot(j)
                ), (fix.label, i, j)
        s_p = weyl.simple_reflection(rs, p)
        highest = weyl.reflection(rs, rs.positive_roots[-1])
        assert weyl.multiply(weyl.multiply(v, s_p), inverse(v)) == highest, fix.label


def test_affine_symmetry_holds_on_every_table(tables):
    for fix, left, perm, _, sig in tables:
        assert law_holds(left, perm, sig), fix.label


def test_affine_symmetry_catches_swapped_images_and_a_shifted_sigma(tables):
    # two images swapped, those of classes 1 and 2, and sigma shifted by
    # one node, each on every fixture; the misses are pinned as found
    swapped, shifted = [], []
    for fix, left, perm, _, sig in tables:
        if len(perm) > 2:
            bad = list(perm)
            bad[1], bad[2] = bad[2], bad[1]
            if law_holds(left, bad, sig):
                swapped.append(fix.label)
        else:
            assert fix.label == "A1/P1+P1"
        if law_holds(left, perm, {k: t % fix.rank + 1 for k, t in sig.items()}):
            shifted.append(fix.label)
    # on P^2 and on the two 4-class spaces of rank 2, the law alone does
    # not tell those two images apart; on A1 the law is empty (no k != p)
    assert swapped == ["A2/P1+P1", "A2/P2+P2", "B2/P1+P1", "C2/P2+P2"]
    assert shifted == ["A1/P1+P1"]


def test_affine_symmetry_catches_a_fixed_left_row_pair_as_predicted(tables):
    # in each row k in turn, the first pair i <-> j that s_k moves is
    # fixed (s_k w_i -> w_i, s_k w_j -> w_j).  The law reads row k unless
    # k = p and sigma maps no node onto p (sigma swaps p and node 0), and
    # where sigma(k) = k it reads the fault on both sides, so it misses a
    # pair that perm maps onto itself.  Those are the only misses.
    caught = missed = 0
    for fix, left, perm, _, sig in tables:
        read = set(sig) | set(sig.values())
        for k in fix.rs.nodes:
            row = list(left[k])
            i = next(i for i, j in enumerate(row) if j != i)
            j = row[i]
            row[i], row[j] = i, j
            found = not law_holds({**left, k: row}, perm, sig)
            blind = k not in read or (sig.get(k) == k and {perm[i], perm[j]} == {i, j})
            assert found != blind, (fix.label, k)
            caught += found
            missed += not found
    assert (caught, missed) == (728, 103)
