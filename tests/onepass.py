"""Test-only oracles for the one breadth-first pass of `weyl.enumerate_group`.

The enumerator records, while it walks the levels, each element's index,
the left row of every generator and each element's first left descent,
and `cosets.build_quotient` reads them.  These are the paths they
replaced: a breadth-first search that keeps only the windows it meets
(a `seen` set), then a left table that recomputes every s_k * w and looks
it up in a fresh window index, and a search of each element's nodes for
its first left descent.  The covers and witnesses that the recursion reads
off these are checked against the all-roots loop in `test_covers.py`.
`check_quotient` also compares the whole quotient with its tuple build
in `tuples.py`, the enumerator and witness recursion as they ran before
windows became bytes and covers became columns, whose Deodhar test still
reads the root directions of the simple reflections (alpha_s, doubled at
the short node of B_n) where the library reads the simple roots.
"""

from parorbits import weyl

import tuples
from windows import dec


def seen_set_levels(rs, nodes, j_set):
    """Windows of W_L / W_J sorted by (length, window), with their
    breadth-first levels: keep s * w when it is new and Deodhar's test puts
    it in W^J."""
    tables = weyl.generator_tables(rs)
    gens = [(tables[k].table, tables[k].root_table) for k in sorted(nodes)]
    j_roots = {tables[k].root for k in j_set}
    level = [weyl.identity(rs)]
    seen = set(level)
    windows, lengths = [], []
    length = 0
    while level:
        windows += level
        lengths += [length] * len(level)
        nxt = []
        for ww in level:
            for left, root in gens:
                x = ww.translate(left)
                if x not in seen and ww.translate(root) not in j_roots:
                    seen.add(x)
                    nxt.append(x)
        level = sorted(nxt)
        length += 1
    return windows, lengths


def left_table(rs, windows, nodes):
    """The window index, and left[k][i] = the index of s_k * w_i, or i when
    s_k * w_i is not in the quotient, by recomputing every product."""
    index = {w: k for k, w in enumerate(windows)}
    gens = weyl.generator_tables(rs)
    left = {
        k: tuple([index.get(w.translate(gens[k].table), i) for i, w in enumerate(windows)])
        for k in sorted(nodes)
    }
    return index, left


def first_descents(lengths, left):
    """The least node k with s_k * w_i shorter than w_i, 0 for the identity."""
    ks = sorted(left)
    return (0,) + tuple(
        next(k for k in ks if lengths[left[k][i]] < lengths[i]) for i in range(1, len(lengths))
    )


def check_quotient(pq):
    """Assert that the quotient and the enumeration it was built from agree
    with the oracles above: windows, lengths, index, left rows and first
    descents; that the covers are flat columns (`check_cover_columns`);
    and that the decoded windows, the lengths, left rows, first descents,
    and the covers and witnesses, zipped from the columns, are those of
    the tuple build."""
    rs, nodes, j_set = pq.rs, pq.nodes, pq.j_q
    windows, lengths = seen_set_levels(rs, nodes, j_set)
    index, left = left_table(rs, windows, nodes)
    descents = first_descents(lengths, left)
    enumeration = weyl.enumerate_group(rs, nodes, j_set)
    for got in (enumeration, pq.elements):
        assert list(got) == windows, pq
    assert list(enumeration.lengths) == lengths, pq
    assert pq.lengths is enumeration.lengths, pq
    assert enumeration.index == index == pq.index, pq
    assert enumeration.left == left == pq.left, pq
    assert enumeration.descent == descents, pq
    check_cover_columns(pq)
    t_windows, t_lengths, t_left, t_descent, t_covers = tuples.build_quotient(rs, j_set, nodes)
    assert list(map(dec, pq.elements)) == t_windows, pq
    assert list(pq.lengths) == t_lengths, pq
    assert pq.left == t_left, pq
    assert list(enumeration.descent) == t_descent, pq
    assert tuple(zip(pq.sources, pq.targets, pq.witnesses)) == t_covers, pq


def check_cover_columns(pq):
    """Assert that the quotient holds its covers as three tuples of ints of
    one length, sorted by (source, target) with no pair twice, and no
    object per cover: every other tuple field holds ints or windows."""
    columns = (pq.sources, pq.targets, pq.witnesses)
    assert all(type(column) is tuple for column in columns), pq
    assert len({len(column) for column in columns}) == 1, pq
    pairs = list(zip(pq.sources, pq.targets))
    assert all(a < b for a, b in zip(pairs, pairs[1:])), pq
    for name, value in zip(pq._fields, pq):
        if name != "rs" and isinstance(value, tuple):
            assert all(type(x) in (int, bytes) for x in value), (pq, name)
