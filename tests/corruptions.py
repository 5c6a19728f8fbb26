"""Test-only fault families for the corruption matrix, and the run that
says which check families catch a fault.

Each family damages one fixture's data in one fixed way, chosen from the
fixture alone, so that no fault is picked to suit a check.  A family is a
function `fault(fix, patch)`: it installs the damage with the
`pytest.MonkeyPatch` `patch` and returns True, or returns False, having
installed nothing, where the fault does not apply (no cross cover to
drop, no two classes of one length to swap, ...).

Most families damage X's quotient: the clean `cosets.build_quotient` is
read once, a damaged copy of it is made, and the patched builder returns
that copy for X's quotient and the clean builder's result for every flag
quotient.  Two damage a shared table instead: the simple roots of nodes
1 and 2 swapped in `weyl.generator_tables`, and 2 omega_p^vee offset in
`strata.coweight_table`, which `strata.delta` and `seidel.v_elt` both
read.

`caught_by` runs `verify.verify_fixture` under a fault, with nothing
damaged in the caches before or after, and names what caught it: each failing check key, or the class name of a
raised error.  Only the CLI's `VERIFICATION_ERRORS`, which give exit 2,
count as caught; any other error propagates and fails the test that ran
it.
"""

import pytest

from parorbits import cli, cosets, hasse, seidel, strata, verify, weyl

from exponents import offset_coweight_table


def _damage_x(fix, patch, damage):
    """Patch `cosets.build_quotient` to return `damage(pq)` for X's clean
    quotient pq; False, with nothing patched, when `damage` gives None."""
    real = cosets.build_quotient
    bad = damage(real(fix.rs, fix.j_q))
    if bad is None:
        return False

    def build_quotient(rs, j_q, nodes=None):
        if rs is fix.rs and j_q == fix.j_q and nodes in (None, bad.nodes):
            return bad
        return real(rs, j_q, nodes)

    patch.setattr(cosets, "build_quotient", build_quotient)
    return True


def _strata_of(fix, pq):
    """The stratum index of each class of X's clean quotient: its W_P-orbit."""
    label = [0] * len(pq.elements)
    for s, members in enumerate(cosets.double_cosets(pq, fix.j_p)):
        for k in members:
            label[k] = s
    return label


def _without_cover(pq, c):
    columns = (pq.sources, pq.targets, pq.witnesses)
    return pq._replace(**{
        name: column[:c] + column[c + 1:]
        for name, column in zip(("sources", "targets", "witnesses"), columns)
    })


def _drop_cover(fix, patch, cross):
    def damage(pq):
        label = _strata_of(fix, pq)
        for c, (u, w) in enumerate(zip(pq.sources, pq.targets)):
            if (label[u] != label[w]) == cross:
                return _without_cover(pq, c)
        return None

    return _damage_x(fix, patch, damage)


def cross_cover_dropped(fix, patch):
    """The first cover, in cover order, between two strata, dropped."""
    return _drop_cover(fix, patch, True)


def within_cover_dropped(fix, patch):
    """The first cover, in cover order, inside one stratum, dropped."""
    return _drop_cover(fix, patch, False)


def witness_moved(fix, patch):
    """The witness of the first cover whose witness has another multiplicity
    than some root outside Phi_Q, moved to the first such root."""

    def damage(pq):
        pairing = [hasse.pairing_with_coroot(pq, r) for r in range(len(pq.rs.positive_roots))]
        for c, r in enumerate(pq.witnesses):
            other = next((s for s, m in enumerate(pairing) if m and m != pairing[r]), None)
            if other is not None:
                witnesses = pq.witnesses[:c] + (other,) + pq.witnesses[c + 1:]
                return pq._replace(witnesses=witnesses)
        return None

    return _damage_x(fix, patch, damage)


def left_pair_fixed(fix, patch):
    """In the left row of the least node of J_P, the first pair w, s*w of
    distinct classes made fixed points: s*w read as w, and w as s*w."""
    if not fix.j_p:
        return False

    def damage(pq):
        k = min(fix.j_p)
        row = list(pq.left[k])
        i = next((i for i, j in enumerate(row) if j != i), None)
        if i is None:
            return None
        j = row[i]
        row[i], row[j] = i, j
        return pq._replace(left={**pq.left, k: tuple(row)})

    return _damage_x(fix, patch, damage)


def same_length_windows_swapped(fix, patch):
    """The windows of the first two classes of one length swapped, in the
    elements and in the index alike; every other field stays."""

    def damage(pq):
        lengths = pq.lengths
        i = next((i for i in range(len(lengths) - 1) if lengths[i] == lengths[i + 1]), None)
        if i is None:
            return None
        elements = list(pq.elements)
        elements[i], elements[i + 1] = elements[i + 1], elements[i]
        index = {**pq.index, elements[i]: i, elements[i + 1]: i + 1}
        return pq._replace(elements=tuple(elements), index=index)

    return _damage_x(fix, patch, damage)


def simple_root_tables_swapped(fix, patch):
    """The simple roots of nodes 1 and 2, and their tables, swapped in
    `weyl.generator_tables`, so that every quotient of the root system
    reads them so: Deodhar's test and the cover witnesses both."""
    if fix.rank < 2:
        return False
    real = weyl.generator_tables

    def generator_tables(rs):
        tables = dict(real(rs))
        one, two = tables[1], tables[2]
        tables[1] = one._replace(root=two.root, root_table=two.root_table)
        tables[2] = two._replace(root=one.root, root_table=one.root_table)
        return tables

    patch.setattr(weyl, "generator_tables", generator_tables)
    return True


def coweight_table_offset(fix, patch):
    """2 omega_p^vee offset in `strata.coweight_table`, its signed table
    kept, so that every doubled exponent of X moves by 2
    (`exponents.offset_coweight_table`); the Seidel element of node p
    reads the same table."""
    patch.setattr(strata, "coweight_table", offset_coweight_table(fix, 2))
    return True


def _forget_damage():
    """Empty the caches that can hold what a fault damaged: the quotient
    caches and the Seidel elements, whose certificate reads the coweight
    table.  Every other cache holds a value of its key alone (a root
    system, a node, a node set), which no fault here damages."""
    verify._release_quotients()
    seidel.v_elt.cache_clear()


def report_under(fix, fault):
    """The report of `verify.verify_fixture(fix)` under `fault`, run with
    nothing damaged cached before or after it: the verification error it
    raised, or None where the fault does not apply."""
    _forget_damage()
    try:
        with pytest.MonkeyPatch.context() as patch:
            if not fault(fix, patch):
                return None
            try:
                return verify.verify_fixture(fix)
            except cli.VERIFICATION_ERRORS as exc:
                return exc
    finally:
        _forget_damage()


def caught_by(fix, fault):
    """The check families that catch `fault` at `fix`: the failing check
    keys of its report, or the class name of the verification error it
    raised; None where the fault does not apply."""
    report = report_under(fix, fault)
    if report is None:
        return None
    if isinstance(report, Exception):
        return frozenset({type(report).__name__})
    return frozenset(name for name, ok in report["checks"].items() if not ok)
