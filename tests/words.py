"""Test-only words in the simple reflections.

The library writes Weyl elements as windows and never multiplies out a
word; it reads a word off a window only in `bruhat_leq`, which strips
descents for the subword property.  Tests use words to write small
elements by hand, to check lengths against reduced words, and, in
`table_by_rows`, to compose a quotient's left-action rows along a
reduced word of the Seidel element: the oracle for `seidel.seidel_table`,
which names the class of v * w by its head instead.
"""

from parorbits import weyl


def from_word(rs, word):
    """Window of the product of simple reflections, applied left to right."""
    w = weyl.identity(rs)
    for k in word:
        w = weyl.multiply(w, weyl.simple_reflection(rs, k))
    return w


def reduced_word(rs, window):
    """Canonical reduced word of the window by smallest-descent stripping."""
    word = []
    while k := weyl.first_descent(rs, window, rs.nodes):
        word.append(k)
        window = weyl.multiply(window, weyl.simple_reflection(rs, k))
    word.reverse()
    return tuple(word)


def table_by_rows(pq, v):
    """The Seidel table of v on the quotient `pq` from its left-action
    rows: the letters of `reduced_word(pq.rs, v)` act on a class from the
    last, each node k mapping perm[c] to pq.left[k][perm[c]], starting
    from the identity."""
    perm = range(len(pq.elements))
    for k in reversed(reduced_word(pq.rs, v)):
        row = pq.left[k]
        perm = [row[c] for c in perm]
    return tuple(perm)
