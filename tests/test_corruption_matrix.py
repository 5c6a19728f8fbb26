"""The corruption matrix: which check families catch which fault.

Each row runs one fault family of `corruptions.py` on every fixture of
the caps-5 sweep where it applies, and pins two sets of check families
(failing `verify` check keys, or raised verification errors by class
name): those that catch the fault on every such fixture, and those that
catch it on at least one.  A refactor that loses a detection fails a row;
one that gains a detection changes a row on purpose.  Every fixture where
a fault applies must be caught, except where the row allows a miss that
leaves the whole `verify` report as the clean one, and except the
dropped cross cover, which no check sees (ROADMAP item 3).
"""

import pytest

from parorbits.fixtures import sweep_fixtures

import corruptions

#: fault family -> (caught on every fixture it applies to, caught on some,
#: whether a miss is allowed when it leaves the report unchanged)
ROWS = {
    "within_cover_dropped": ({"interval", "decomposition"}, {"interval", "decomposition"}, False),
    "witness_moved": ({"chevalley_witnesses"}, {"chevalley_witnesses", "decomposition"}, False),
    # the orbits close over every node of J_P: where another path joins w
    # and s*w, the W_P-orbits, K and every output stay as they were
    "left_pair_fixed": (
        set(),
        {
            "DecompositionError",
            "decomposition",
            "delta_consecutive",
            "delta_monotone",
            "dimension_ledger",
            "stratum_count",
        },
        True,
    ),
    "same_length_windows_swapped": (
        set(),
        {"StrataError", "chevalley_witnesses", "decomposition"},
        False,
    ),
    # a witness p^-1(alpha_k) outside the positive roots is a CosetError
    "simple_root_tables_swapped": ({"CosetError"}, {"CosetError"}, False),
    # an odd or negative doubled exponent, or a move off the coroot
    # lattice, fails delta; else the Seidel element fails its coweight
    # equation through the same table
    "coweight_table_offset": (set(), {"StrataError", "SeidelError"}, False),
}


def _matrix_row(fault):
    """{fixture: the families that caught `fault` there}, over every
    fixture of the caps-5 sweep where it applies."""
    caught = {}
    for fix in sweep_fixtures(5, 5, 5, 5):
        found = corruptions.caught_by(fix, fault)
        if found is not None:
            caught[fix] = found
    assert caught, "the fault applies to no fixture"
    return caught


@pytest.mark.parametrize("name", sorted(ROWS))
def test_fault_family_is_caught_by_its_check_families(cold, sweep_reports, name):
    always, seen, unchanged_miss = ROWS[name]
    fault = getattr(corruptions, name)
    caught = _matrix_row(fault)
    for fix, found in caught.items():
        if found:
            assert always <= found, (fix.label, sorted(found))
        else:
            assert unchanged_miss, "%s is not caught at %s" % (name, fix.label)
            assert corruptions.report_under(fix, fault) == sweep_reports[fix.label], fix.label
    assert set().union(*caught.values()) == seen


@pytest.mark.xfail(
    strict=True,
    reason="no verify check sees a missing cross-stratum cover (ROADMAP item 3)",
)
def test_dropped_cross_cover_is_caught(cold):
    caught = _matrix_row(corruptions.cross_cover_dropped)
    missed = sorted(fix.label for fix, found in caught.items() if not found)
    assert not missed, "%d of %d fixtures miss it, first %s" % (len(missed), len(caught), missed[0])
