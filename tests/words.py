"""Test-only words in the simple reflections.

The library builds Weyl elements from windows and never multiplies out a
word, but it reads words off windows by stripping descents: `bruhat_leq`
for the subword property, and `seidel.seidel_table`, which composes the
quotient's left-action rows along a reduced word of the Seidel element.
Tests use words to write small elements by hand and to check lengths
against reduced words.
"""

from parorbits import weyl


def from_word(rs, word):
    """Product of simple reflections, applied left to right."""
    w = weyl.identity(rs)
    for k in word:
        w = weyl.multiply(w, weyl.simple_reflection(rs, k))
    return w


def reduced_word(w):
    """Canonical reduced word by smallest-descent stripping."""
    word = []
    cur = w
    nodes = cur.rs.nodes
    while True:
        k = weyl.first_descent(cur.rs, cur.window, nodes)
        if not k:
            break
        word.append(k)
        cur = weyl.multiply(cur, weyl.simple_reflection(cur.rs, k))
    word.reverse()
    return tuple(word)
