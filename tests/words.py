"""Test-only words in the simple reflections.

The library writes Weyl elements as windows and never multiplies out a
word, but it reads words off windows by stripping descents: `bruhat_leq`
for the subword property, and `seidel._stripped_word`, the reduced word of
the Seidel element along which `seidel.seidel_table` composes the
quotient's left-action rows.  Tests use words to write small elements by
hand, to check lengths against reduced words, and `reduced_word` as the
oracle for `seidel._stripped_word`.
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
