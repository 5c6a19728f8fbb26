"""Test-only tuple kernels: the window maps as they ran when a window was
a tuple of ints, kept as oracles for the bytes kernels of the library.

The library stores a window as bytes and maps it through a 256-byte
translation table (`weyl.signed_table`) with one `bytes.translate`.
Here a window is a tuple, a signed table is a list indexed by signed
value, and every map gathers with `itemgetter`: `multiply`, `act`, the
descent test, `min_rep`'s block pass, the one-pass enumerator and the
witness recursion of `cosets.build_quotient`.  Only the simple
reflections are read from the library, decoded, so that both sides start
from the same generators; `test_weyl.py` checks those against a dense
oracle.
"""

from itertools import chain
from operator import itemgetter

from parorbits import weyl

from windows import dec


def signed_table(v):
    """t[b] = sign(b) * v[|b| - 1] for b in +/-1..+/-d, a negative b read
    from the end of the list."""
    return [0, *v, *[-x for x in reversed(v)]]


def multiply(u, w):
    """Window of u*w."""
    return tuple([u[b - 1] if b > 0 else -u[-b - 1] for b in w])


def act(window, v):
    """Signed-permutation action of the window on a vector."""
    out = [0] * len(window)
    for pos, b in enumerate(window):
        if b > 0:
            out[b - 1] = v[pos]
        else:
            out[-b - 1] = -v[pos]
    return tuple(out)


def is_descent(rs, window, k):
    """Whether node k is a right descent of the window."""
    n = rs.rank
    m = 2 * len(window) + 1
    if k < n or rs.type_label == "A":
        return window[k - 1] % m > window[k] % m
    if rs.type_label == "D":
        return window[n - 2] % m > -window[n - 1] % m
    return window[n - 1] < 0


def min_rep(rs, window, j_set):
    """Shortest window of the coset window * W_J, by sorting blocks of
    positions by key(x) = x mod (2d+1)."""
    n, t = rs.rank, rs.type_label
    nodes = sorted(j_set)
    b = list(window)
    flip = t == "D" and n in nodes and n - 1 not in nodes
    if flip:
        nodes = nodes[:-1] + [n - 1]
        b[-1] = -b[-1]
    m = 2 * len(b) + 1
    for a, c in weyl._runs(nodes):
        if c == n and t != "A":
            block = b[a - 1 :]
            b[a - 1 :] = sorted(abs(x) for x in block)
            if t == "D" and sum(x < 0 for x in block + b[a - 1 :]) % 2:
                b[-1] = -b[-1]
        else:
            b[a - 1 : c + 1] = sorted(b[a - 1 : c + 1], key=lambda x: x % m)
    if flip:
        b[-1] = -b[-1]
    return tuple(b)


def _root_direction(r):
    """e_i - s(e_i) for the first coordinate i that the reflection with
    window r moves: alpha_s for a simple reflection s, except alpha_n = e_n
    of B_n, which it doubles.  alpha_n is B_n's only short simple root and
    w^-1 keeps lengths, so Deodhar's test w^-1(alpha_s) = alpha_t holds
    exactly when it holds for these vectors; the enumerator here keeps
    this rule, which the library ran before it read the simple roots, as
    an oracle for the one it runs."""
    i = next(i for i, b in enumerate(r) if b != i + 1)
    v = [0] * len(r)
    v[i] += 1
    v[abs(r[i]) - 1] -= 1 if r[i] > 0 else -1
    return tuple(v)


def generator_tables(rs):
    """For each node k, the signed table of s_k, its root direction and
    the direction's signed table."""
    out = {}
    for k in rs.nodes:
        r = dec(weyl.simple_reflection(rs, k))
        direction = _root_direction(r)
        out[k] = (signed_table(r), direction, signed_table(direction))
    return out


def enumerate_group(rs, nodes, j_set):
    """The one breadth-first pass on tuples: windows sorted by (length,
    window), their lengths, the left rows of every node and each first
    left descent."""
    tables = generator_tables(rs)
    ks = sorted(nodes)
    j_roots = {tables[k][1] for k in j_set}
    rows = [[] for _ in ks]
    steps = [(k, tables[k][0], tables[k][2], row) for k, row in zip(ks, rows)]
    index, descent, out, lengths = {}, [], [], []
    level = [tuple(range(1, rs.dim + 1))]
    length = 0
    while level:
        base = len(out)
        index.update(zip(level, range(base, base + len(level))))
        out.extend(level)
        lengths += [length] * len(level)
        for row in rows:
            row.extend([-1] * len(level))
        nxt = []
        for i, ww in enumerate(level, base):
            gather = itemgetter(*ww)
            first = 0
            for k, table, root, row in steps:
                x = gather(table)
                j = index.get(x)
                if j is None:
                    if gather(root) in j_roots:
                        row[i] = i
                    else:
                        index[x] = -1
                        nxt.append(x)
                elif j >= 0:
                    row[i] = j
                    row[j] = i
                    first = first or k
            descent.append(first)
        level = sorted(nxt)
        length += 1
    left = {k: tuple(row) for k, row in zip(ks, rows)}
    return out, lengths, left, descent


def build_quotient(rs, j_q, nodes):
    """The tuple build of a quotient: windows, lengths, left rows, first
    descents and the sorted covers (u, w, root index), each witness
    p^-1(alpha_k) gathered from the signed table of alpha_k."""
    windows, lengths, left, descent = enumerate_group(rs, nodes, j_q)
    alphas = {k: signed_table(rs.simple_root(k)) for k in rs.nodes}
    root_index = {beta: r for r, beta in enumerate(rs.positive_roots)}
    lower = [[] for _ in windows]
    for i in range(1, len(windows)):
        k = descent[i]
        row = left[k]
        p = row[i]
        beta = root_index[itemgetter(*windows[p])(alphas[k])]
        lower[i] = [(p, beta)] + [(row[y], r) for y, r in lower[p] if lengths[row[y]] > lengths[y]]
    upper = [[] for _ in windows]
    for w, below in enumerate(lower):
        for u, r in below:
            upper[u].append((u, w, r))
    covers = tuple(chain.from_iterable(upper))
    return windows, lengths, left, descent, covers
