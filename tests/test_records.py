"""The records of the package: every one refuses assignment; the ones that
hold dicts compare and hash by identity; the rest keep their value
equality, and `Fixture` its repr, with the root system left out.
`RootSystem` and `Fixture` are slotted classes, the rest named tuples."""

import pytest

from parorbits import decomp, rootsys
from parorbits.fixtures import Fixture
from parorbits.rootsys import RootSystem

from roots import roots_filled

#: each record's fields, in order
FIELDS = {
    "RootSystem": (
        "type_label",
        "rank",
        "dim",
        "simple_roots",
        "simple_coroots",
        "double_coweights",
        "positive_roots",
        "coroot_coords",
    ),
    "ParabolicQuotient": (
        "rs",
        "nodes",
        "j_q",
        "elements",
        "sources",
        "targets",
        "witnesses",
        "index",
        "left",
        "lengths",
    ),
    "FlagComponent": ("type_label", "rank", "ambient_order", "marked"),
    "FlagDescriptor": ("components", "marked_ambient", "dim"),
    "OrbitStratum": (
        "fixture",
        "pq",
        "members",
        "delta",
        "d_geom",
        "K",
        "flag",
        "fiber_dim",
        "doubling",
    ),
    "Stratification": ("pq", "strata", "stratum_of", "delta"),
    "DecomposedDiagram": ("fixture", "strat", "mult", "cross_edges", "mismatches"),
    "Fixture": ("type_label", "rank", "q_node", "p_node", "rs"),
}

IDENTITY = ("ParabolicQuotient", "OrbitStratum", "Stratification", "DecomposedDiagram")
VALUE = ("FlagComponent", "FlagDescriptor")
NAMED_TUPLES = IDENTITY + VALUE


@pytest.fixture(scope="module")
def records():
    fix = Fixture("C", 4, 2, 4)
    dec = decomp.build_decomposition(fix)
    stratum = dec.strat.strata[1]
    found = {
        "RootSystem": fix.rs,
        "ParabolicQuotient": dec.strat.pq,
        "FlagComponent": stratum.flag.components[0],
        "FlagDescriptor": stratum.flag,
        "OrbitStratum": stratum,
        "Stratification": dec.strat,
        "DecomposedDiagram": dec,
        "Fixture": fix,
    }
    assert {name: type(rec).__name__ for name, rec in found.items()} == {n: n for n in found}
    return found


def _copy(rec, **changes):
    """A new record of the same type with the same fields, by keyword."""
    fields = {f: getattr(rec, f) for f in FIELDS[type(rec).__name__]}
    return type(rec)(**{**fields, **changes})


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_assignment_raises_attribute_error(records, name):
    rec = records[name]
    for field in FIELDS[name] + ("not_a_field",):
        before = getattr(rec, field, None)
        with pytest.raises(AttributeError):
            setattr(rec, field, None)
        with pytest.raises(AttributeError):
            delattr(rec, field)
        assert getattr(rec, field, None) is before, (name, field)


@pytest.mark.parametrize("name", IDENTITY)
def test_dict_holding_records_compare_and_hash_by_identity(records, name):
    rec = records[name]
    twin = _copy(rec)
    assert rec == rec and not rec != rec
    assert twin != rec and not twin == rec
    assert hash(rec) == object.__hash__(rec) and hash(twin) == object.__hash__(twin)
    assert len({rec, twin}) == 2


def test_quotient_index_is_the_window_index(records):
    # the field shadows tuple.index
    pq = records["ParabolicQuotient"]
    assert isinstance(pq.index, dict)
    assert all(pq.index[x] == i for i, x in enumerate(pq.elements))


@pytest.mark.parametrize("name", VALUE)
def test_flag_records_compare_by_value(records, name):
    rec = records[name]
    twin = _copy(rec)
    assert twin is not rec and twin == rec and not twin != rec and hash(twin) == hash(rec)
    assert _copy(rec, **{"FlagComponent": {"rank": 99}, "FlagDescriptor": {"dim": 99}}[name]) != rec


def _simple_copy(rs, **changes):
    """A new root system with the simple data of `rs`, by keyword."""
    simple = FIELDS["RootSystem"][:6]
    return RootSystem(**{**{f: getattr(rs, f) for f in simple}, **changes})


def test_root_system_compares_by_type_and_rank(records):
    rs = records["RootSystem"]
    assert rs is rootsys.build("C", 4) and repr(rs) == "RootSystem(C4)"
    # a copy with another dimension still equals it: only type and rank count
    twin = _simple_copy(rs, dim=rs.dim + 1)
    assert twin == rs and not twin != rs and hash(twin) == hash(rs) == hash(("C", 4))
    assert rs != rootsys.build("C", 3) and rs != rootsys.build("B", 4)
    assert rs != ("C", 4)


def test_root_system_is_a_slotted_record(records):
    # slots and no instance dict, as `Fixture`: every field is a plain slot
    # read, the two root fields once filled on their first read
    rs = records["RootSystem"]
    assert RootSystem.__slots__ == FIELDS["RootSystem"]
    assert not hasattr(rs, "__dict__") and not isinstance(rs, tuple)
    assert not hasattr(rs, "_replace") and not hasattr(rs, "_fields")
    fresh = rootsys.build.__wrapped__("C", 4)
    assert not roots_filled(fresh)
    simple = FIELDS["RootSystem"][:6]
    assert all(getattr(fresh, f) == getattr(rs, f) for f in simple)
    assert not roots_filled(fresh)
    coords = fresh.coroot_coords
    assert roots_filled(fresh)
    assert coords == rs.coroot_coords and fresh.positive_roots == rs.positive_roots
    assert fresh.coroot_coords is coords and fresh.positive_roots is fresh.positive_roots
    # a copy of the simple data fills its own roots, equal to the original's
    twin = _simple_copy(rs)
    assert twin.positive_roots == rs.positive_roots and twin.positive_roots is not rs.positive_roots
    for field in FIELDS["RootSystem"]:
        with pytest.raises(AttributeError):
            setattr(fresh, field, None)
        with pytest.raises(AttributeError):
            delattr(fresh, field)
    with pytest.raises(AttributeError, match="not_a_field"):
        fresh.not_a_field
    assert repr(fresh) == "RootSystem(C4)" and str(fresh) == "RootSystem(C4)"
    assert fresh == rs and hash(fresh) == hash(rs) and fresh is not rs


def test_fixture_compares_by_its_four_fields_only(records):
    fix = records["Fixture"]
    twin = Fixture("C", 4, 2, 4)
    assert twin is not fix and twin == fix and not twin != fix and hash(twin) == hash(fix)
    assert hash(fix) == hash(("C", 4, 2, 4))
    assert fix != Fixture("C", 4, 1, 4) and fix != ("C", 4, 2, 4)
    # another root system in the slot changes neither equality, hash nor repr
    object.__setattr__(twin, "rs", rootsys.build("C", 5))
    assert twin.rs != fix.rs and twin == fix and hash(twin) == hash(fix)
    assert repr(twin) == repr(fix)


def test_fixture_repr_and_str(records):
    fix = records["Fixture"]
    assert repr(fix) == "Fixture(type_label='C', rank=4, q_node=2, p_node=4)"
    assert str(fix) == "C4/P2+P4" == fix.label
    assert "%s" % (fix,) == "C4/P2+P4"


def test_fixture_node_sets_are_built_once(records):
    fix = records["Fixture"]
    assert fix.j_q == frozenset({1, 3, 4}) and fix.j_p == frozenset({1, 2, 3})
    assert fix.j_q is fix.j_q and fix.j_p is fix.j_p


@pytest.mark.parametrize("name", NAMED_TUPLES)
def test_replace_changes_exactly_one_field(records, name):
    rec = records[name]
    assert type(rec)._fields == FIELDS[name]
    marker = object()
    for field in FIELDS[name]:
        new = rec._replace(**{field: marker})
        assert type(new) is type(rec) and getattr(new, field) is marker
        for other in FIELDS[name]:
            if other != field:
                assert getattr(new, other) is getattr(rec, other), (name, field, other)
