"""Test-only window helpers: the converter between tuple and bytes
windows, the identity, the root-scan and descent-stripping oracles,
inverses, and random windows.

The library stores a window as bytes, entry x as the byte x + 128
(`weyl.encode`); tests write windows as tuples of ints and convert them
with `enc`.  The oracles here that compute on the integers take the
library's bytes and read them back with `dec`, except `root_is_negative`,
which takes the tuple, so that a scan over every root decodes once.

The library reads every window statistic off the window's integers; the
tests check those closed forms against the definition, a scan of the root
vectors for the ones the window sends to negative roots.  `weyl.min_rep`
sorts blocks of positions, and `weyl.longest` reverses or negates them; the
tests check both against stripping or adding one right descent at a time,
and `weyl.longest`, which is `min_rep`'s block pass with a longest switch,
against the separate reverse-or-negate loop that it replaced.
`strata.K_of` reads K off the left-action table; the tests check it
against the simple roots that w_min^-1 carries onto Delta(Q).
`weyl._length` counts inversions by bisection into the sorted keys seen
so far; `pairwise_length` compares every pair of positions.
"""

from parorbits import weyl


def enc(window):
    """The library's bytes window of a tuple window (or any sequence of
    ints): the one converter the tests write windows through."""
    return weyl.encode(window, len(window))


def dec(window):
    """The tuple of ints of a bytes window, the inverse of `enc`."""
    return tuple(y - weyl.OFFSET for y in window)


def root_is_negative(window, root):
    """Whether the window sends `root` to a negative root: the image is
    +/- a positive root, whose sign is that of its lowest-index nonzero
    coordinate in the classical realizations.  The window is a tuple."""
    best_index = None
    best_value = 0
    for pos, x in enumerate(root):
        if x == 0:
            continue
        b = window[pos]
        idx, val = (b - 1, x) if b > 0 else (-b - 1, -x)
        if best_index is None or idx < best_index:
            best_index, best_value = idx, val
    assert best_index is not None, "zero vector is not a root"
    return best_value < 0


def draw_window(data, rs):
    """A random window of the Weyl group of `rs`, drawn from a hypothesis
    `data` object (hypothesis is imported here, so that the oracle above
    needs no hypothesis)."""
    from hypothesis import strategies as st

    window = data.draw(st.permutations(range(1, rs.dim + 1)))
    if rs.type_label != "A":
        window = [b * data.draw(st.sampled_from((1, -1))) for b in window]
        if rs.type_label == "D" and sum(b < 0 for b in window) % 2:
            window[-1] = -window[-1]
    return enc(window)


def identity(rs):
    """The window of the identity of the Weyl group of `rs`."""
    return enc(range(1, rs.dim + 1))


def strip_descents(rs, window, j_set):
    """Minimal representative of the coset w W_J, w the window, by
    stripping one right descent in J at a time, the first of J each step
    (oracle for `weyl.min_rep`)."""
    nodes = sorted(j_set)
    while k := weyl.first_descent(rs, window, nodes):
        window = weyl.multiply(window, weyl.simple_reflection(rs, k))
    return window


def longest_by_adding_descents(rs, j_set):
    """Longest element of W_J by right-multiplying the identity by the
    first node of J that is not yet a right descent, until every node of
    J is one (oracle for `weyl.longest`)."""
    nodes = sorted(j_set)
    window = identity(rs)
    while True:
        k = next((k for k in nodes if not weyl._is_descent(rs, window, k)), 0)
        if not k:
            return window
        window = weyl.multiply(window, weyl.simple_reflection(rs, k))


def longest_by_block_loop(rs, j_set):
    """Oracle for `weyl.longest`: the loop it replaced, from the identity
    window: a run a..c not ending at node n of B, C or D reverses positions
    a..c+1; the run a..n negates positions a..n, and in D restores the
    sign of position n when the block has odd size; with n but not n-1 of
    D in J, position n is negated before and after."""
    n, t = rs.rank, rs.type_label
    nodes = sorted(j_set)
    runs = list(nodes)
    b = list(range(1, rs.dim + 1))
    flip = t == "D" and n in nodes and n - 1 not in nodes
    if flip:
        runs[-1] = n - 1
        b[-1] = -b[-1]
    for a, c in weyl._runs(runs):
        if c == n and t != "A":
            b[a - 1 :] = [-x for x in b[a - 1 :]]
            if t == "D" and (n - a + 1) % 2:
                b[-1] = -b[-1]
        else:
            b[a - 1 : c + 1] = b[a - 1 : c + 1][::-1]
    if flip:
        b[-1] = -b[-1]
    return enc(b)


def pairwise_length(rs, window):
    """Oracle for `weyl._length`: pairs i < j with key(b_i) > key(b_j); in B,
    C and D also those with key(b_i) > key(-b_j); in B and C also negative
    entries, each pair compared on its own."""
    window = dec(window)
    m = 2 * len(window) + 1
    keys = [b % m for b in window]
    total = sum(x > y for i, x in enumerate(keys) for y in keys[i + 1 :])
    if rs.type_label != "A":
        flipped = [-b % m for b in window]
        total += sum(x > y for i, x in enumerate(keys) for y in flipped[i + 1 :])
        if rs.type_label != "D":
            total += sum(b < 0 for b in window)
    return total


def inverse(w):
    """The window of the inverse: w^-1 sends e_|b_k| to sign(b_k) e_k, so
    it is w applied to (1, ..., d)."""
    return enc(weyl.act(w, tuple(range(1, len(w) + 1))))


def k_by_root_scan(pq, j_p, i):
    """Oracle for `strata.K_of`: the nodes s of `j_p`, J_P, with
    w_min^-1(alpha_s) a simple root of J_Q, w_min the class i of `pq`,
    found by acting on the root vectors."""
    rs = pq.rs
    winv = inverse(pq.elements[i])
    q_simples = {rs.simple_root(t) for t in pq.j_q}
    return frozenset(
        s for s in j_p if tuple(weyl.act(winv, rs.simple_root(s))) in q_simples
    )
