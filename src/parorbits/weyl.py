"""Weyl-group elements as (signed) permutation windows, stored as bytes.

A window (b_1, ..., b_d) encodes the map e_k -> sign(b_k) e_|b_k| on the
ambient lattice of the root system.  Type A windows are plain permutations
of {1..n+1}; types B and C allow any sign pattern; type D requires an even
number of negative entries.

Encoding.  A window is a `bytes` object of length d, entry x stored as
the byte x + 128 (`OFFSET`).  The offset is fixed, so it keeps the order
of tuples: two windows compare as bytes as their tuples of ints compare,
and every `sorted` call and every (length, window) order is that of the
tuples.  Entries -127..127 fit, so a window holds dimensions up to 127
(`MAX_DIM`); `encode`, through which every window and table is made,
refuses a larger one.  Vectors (roots, coweights) stay tuples of ints,
and are encoded the same way only to be read through a table.  Nothing
decodes a window except `window_str`, through one table of 256 strings,
where a window is printed.

Every statistic is read off the window's entries, never from a root
vector (Bjorner-Brenti, Combinatorics of Coxeter Groups, 8.1-8.2).  With
key(x) = x mod (2d+1), which orders 1 < ... < d < -d < ... < -1, the
window inverts e_i - e_j (i < j) iff key(b_i) > key(b_j), e_i + e_j iff
key(b_i) > key(-b_j), and e_i (or 2 e_i) iff b_i < 0.  On bytes, key is
one constant table for every d: (x - 1) mod 256 has the same order.
Length counts these inversions, and a right descent is an inverted simple
root; the tests cross-check both against the count of positive roots sent
to negative roots.

Right multiplication acts on positions: W_J permutes blocks of positions,
so `min_rep` and `longest` put each block in its shortest or longest order
in one pass (Bjorner-Brenti 2.4, 8.1-8.2) instead of stripping or adding
descents.  Left multiplication acts on values: `signed_table` turns s*w,
and the vector w^-1(v), into a 256-byte translation table, so that each
is one `bytes.translate` of w, done in C; `generator_tables` builds these
tables for the simple reflections and their simple roots once per root
system, and `moved_heads` reads the first m entries of v*w off one,
sorted in key order.
`enumerate_group` lists the windows of the minimal representatives of
W_L / W_J in one breadth-first pass, without enumerating W_L: it keeps s*w
by Deodhar's test (one translated vector and one set lookup), builds no
element, and keeps what the pass meets on the way, each window's
breadth-first level (its length), the window index, the left action of
every generator as rows of indices and each window's first left descent,
for `cosets.build_quotient` to read.  Every function takes and returns
bare windows; `name` prints one with its group, e.g. WC4(1,2,3,4), and
`multiply` is the one window product.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .rootsys import RootSystem, Vector

Window = bytes

#: Entry x of a window (or of a vector) is stored as the byte x + OFFSET.
OFFSET = 128
#: The largest dimension whose entries -d..d all fit in a byte.
MAX_DIM = 127

#: byte x + 128 -> the text of x, for `window_str`
_TEXT = tuple(str(y - OFFSET) for y in range(256))
#: translation table of negation: byte x + 128 -> byte -x + 128 (byte 0,
#: x = -128, never occurs and is kept)
_NEG = bytes([0]) + bytes(range(255, 0, -1))
#: translation table of key(x) = x mod (2d+1), up to order: (x - 1) mod 256
#: orders 1 < ... < d < -d < ... < -1 for every d <= MAX_DIM
_KEY = bytes((y - OFFSET - 1) % 256 for y in range(256))
#: the inverse of _KEY: key(x) -> byte x + 128
_UNKEY = bytes((y + OFFSET + 1) % 256 for y in range(256))
#: key(-x) for byte x + 128
_NEG_KEY = _NEG.translate(_KEY)
#: translation table of the absolute value: byte x + 128 -> byte |x| + 128
_ABS = bytes(max(y, z) for y, z in enumerate(_NEG))
_ZERO = bytes([OFFSET])
_IDENTITY = bytes(range(256))
#: for each dimension d, the identity pieces of a translation table below
#: byte -d + 128 and above byte d + 128, which no window entry reads
_PIECES = tuple((_IDENTITY[: OFFSET - d], _IDENTITY[OFFSET + 1 + d :]) for d in range(MAX_DIM + 1))


class WeylError(ValueError):
    """Invalid window or node, or mismatched operands."""


def encode(values: Iterable[int], dim: int) -> Window:
    """The bytes of a window or vector of dimension `dim`, entry x stored as
    x + OFFSET.  Every window and table is encoded here, so this is where
    a dimension past MAX_DIM, whose entries would not fit in a byte, is
    refused."""
    if dim > MAX_DIM:
        raise WeylError(
            "dimension %d exceeds %d, the largest a window of bytes holds" % (dim, MAX_DIM)
        )
    return bytes([x + OFFSET for x in values])


def identity(rs: RootSystem) -> Window:
    """The window of the identity, (1, ..., d)."""
    return encode(range(1, rs.dim + 1), rs.dim)


def window_str(window: Window) -> str:
    """Canonical string form, e.g. "(3,-1,2)": the one decoder of windows."""
    return "(" + ",".join(map(_TEXT.__getitem__, window)) + ")"


def name(rs: RootSystem, window: Window) -> str:
    """The window named with its group, e.g. "WC4(1,2,3,4)"."""
    return "W%s%d%s" % (rs.type_label, rs.rank, window_str(window))


def _length(rs: RootSystem, window: Window) -> int:
    """Inversion count: pairs i < j with key(b_i) > key(b_j); in B, C and D
    also those with key(b_i) > key(-b_j); in B and C also negative entries.
    The keys of the entries before position j are kept sorted, so each
    count over i is one bisection."""
    signed = rs.type_label != "A"
    seen: List[int] = []
    total = 0
    for j, (key, neg) in enumerate(zip(window.translate(_KEY), window.translate(_NEG_KEY))):
        total += j - bisect_right(seen, key)
        if signed:
            total += j - bisect_right(seen, neg)
        insort(seen, key)
    if rs.type_label in ("B", "C"):
        total += sum(y < OFFSET for y in window)
    return total


def _checked_nodes(rs: RootSystem, nodes: Iterable[int]) -> List[int]:
    """The nodes in ascending order, refused with WeylError unless each is
    in 1..rank."""
    out = sorted(nodes)
    for k in out:
        if not 1 <= k <= rs.rank:
            raise WeylError("node %d out of range 1..%d" % (k, rs.rank))
    return out


def _is_descent(rs: RootSystem, window: Window, k: int) -> bool:
    """Whether node k (in 1..rank) is a right descent, i.e. the window
    inverts alpha_k."""
    n = rs.rank
    if k < n or rs.type_label == "A":  # alpha_k = e_k - e_(k+1)
        return _KEY[window[k - 1]] > _KEY[window[k]]
    if rs.type_label == "D":  # alpha_n = e_(n-1) + e_n
        return _KEY[window[n - 2]] > _NEG_KEY[window[n - 1]]
    return window[n - 1] < OFFSET  # alpha_n = e_n or 2 e_n


@lru_cache(maxsize=None)
def simple_reflection(rs: RootSystem, k: int) -> Window:
    if not 1 <= k <= rs.rank:
        raise WeylError("simple reflection index %d out of range 1..%d" % (k, rs.rank))
    return reflection(rs, rs.simple_roots[k - 1])


class Generator(NamedTuple):
    """A simple reflection s_k and its simple root alpha_k as translation
    tables (see `signed_table`), the one home of both."""

    table: bytes  # signed table of the window of s_k
    root: bytes  # alpha_k, encoded
    root_table: bytes  # signed table of alpha_k


@lru_cache(maxsize=None)
def generator_tables(rs: RootSystem) -> Dict[int, Generator]:
    """The tables of every simple reflection of `rs` and of its simple
    root, keyed by node, built once per root system."""
    out = {}
    for k in rs.nodes:
        root = encode(rs.simple_roots[k - 1], rs.dim)
        out[k] = Generator(signed_table(simple_reflection(rs, k)), root, signed_table(root))
    return out


def reflection(rs: RootSystem, root: Vector) -> Window:
    """The window of the reflection in `root`, read from its nonzero
    entries.

    s(e_k) = e_k - <e_k, root^vee> root, and root^vee = 2 root / |root|^2
    is integral only when the root has one nonzero entry a = +/-1 or +/-2,
    or two, a and b, both +/-1: each nonzero entry x needs |2x| >= |root|^2,
    and summed over the entries that leaves at most two, both of size 1,
    or one of size 1 or 2.  So s is a sign change of position i for a e_i,
    and for a e_i + b e_j sends e_i to -ab e_j and e_j to -ab e_i: a
    transposition for e_i - e_j, a signed one for e_i + e_j
    (Bjorner-Brenti 8.1-8.2).  A vector of the wrong dimension, zero, or
    without an integral coroot is refused before the window is built, and
    a window with signs in type A, or with an odd number of signs in type
    D, after."""
    d = rs.dim
    if len(root) != d:
        raise WeylError("vector %s has dimension %d, expected %d" % (root, len(root), d))
    support = [t for t, x in enumerate(root) if x]
    if not support:
        raise WeylError("the zero vector has no reflection")
    i, j = support[0], support[-1]
    a, b = root[i], root[j]
    if len(support) > 2 or (abs(a) > 2 if i == j else abs(a) != 1 or abs(b) != 1):
        raise WeylError("%s has no integral coroot" % (root,))
    sign = -1 if i == j else -a * b
    window = list(range(1, d + 1))
    window[i], window[j] = sign * (j + 1), sign * (i + 1)
    out = encode(window, d)
    if sign < 0 and rs.type_label == "A":
        raise WeylError("type A windows carry no signs: %s" % window_str(out))
    if i == j and rs.type_label == "D":
        raise WeylError("type D windows need an even number of signs: %s" % window_str(out))
    return out


def multiply(uw: Window, ww: Window) -> Window:
    """Window of the product u*w, i.e. of the map v -> u(w(v)): w read
    through the signed table of u."""
    return ww.translate(signed_table(uw))


def signed_table(v: bytes) -> bytes:
    """Translation table t of the encoded window or vector v of dimension
    d: byte b + 128 maps to sign(b) * v[|b| - 1] + 128 for b in
    +/-1..+/-d, so that `w.translate(t)` is multiply(v, w) in one C call:
    the window of s*w when v is the window of s, and the vector w^-1(v)
    when v is a vector, since (w^-1 v)_j = sign(b_j) v_|b_j|.  It is
    joined from constant pieces: the identity below -d and above d, the
    negated v reversed, the zero entry, and v itself."""
    below, above = _PIECES[len(v)]
    return b"".join((below, v[::-1].translate(_NEG), _ZERO, v, above))


def moved_heads(v: Window, windows: Iterable[Window], m: int) -> Iterator[bytes]:
    """For each window w, the first m entries of v * w sorted in the key
    order, the order `min_rep` leaves a block of positions in: v's table
    is composed with the key table once, so the sort runs on the keys."""
    table = signed_table(v).translate(_KEY)
    for w in windows:
        yield bytes(sorted(w[:m].translate(table))).translate(_UNKEY)


def act(window: Window, v: Sequence) -> Tuple:
    """Signed-permutation action of the window on an ambient (co)weight
    vector of the same dimension, a tuple of ints."""
    if len(v) != len(window):
        raise WeylError("vector has dimension %d, expected %d" % (len(v), len(window)))
    out = [0] * len(window)
    for pos, y in enumerate(window):
        if y > OFFSET:
            out[y - OFFSET - 1] = v[pos]
        else:
            out[OFFSET - 1 - y] = -v[pos]
    return tuple(out)


def first_descent(rs: RootSystem, window: Window, nodes: Sequence[int]) -> int:
    """First node of `nodes` that is a right descent of the window, or 0.
    Every node is checked against 1..rank before any is read."""
    _checked_nodes(rs, nodes)
    for k in nodes:
        if _is_descent(rs, window, k):
            return k
    return 0


def _runs(nodes: Sequence[int]) -> List[Tuple[int, int]]:
    """Maximal runs a, a+1, ..., c of consecutive integers in the ascending
    `nodes`, as (a, c)."""
    runs: List[Tuple[int, int]] = []
    for k in nodes:
        if runs and runs[-1][1] == k - 1:
            runs[-1] = (runs[-1][0], k)
        else:
            runs.append((k, k))
    return runs


def _block_pass(rs: RootSystem, window: Window, nodes: List[int], longest: bool) -> Window:
    """The shortest (or, with `longest`, the longest) window of the coset
    window * W_J, for J the checked ascending `nodes`.

    W_J acts on the right by permuting (and in B, C, D re-signing) the
    window's positions, one block of positions per maximal run a..c of
    consecutive nodes of J, so each block is put in the one order that has
    no descent, or every descent, of its run (Bjorner-Brenti 8.1-8.2).
    With key(x) = x mod (2d+1):
      * a run not ending at node n of B, C or D permutes positions a..c+1,
        which are sorted by key, in reverse for the longest;
      * in B and C, the run a..n also re-signs positions a..n, which become
        their absolute values in ascending order, all negated for the
        longest;
      * in D, a run a..n (so n-1 and n both in J) re-signs positions a..n
        in pairs: as in B and C, with the last one negated when the count
        of negative entries changed by an odd number.  With n but not n-1
        in J, the action is that of n-1 conjugated by the negation e of
        position n (s_n = e s_(n-1) e), so position n is negated before and
        after the sort.
    Blocks of positions are not the Dynkin components of J: in D_n, J =
    {n-1, n} is two A_1 components that act on one block, n-1 and n."""
    n, t = rs.rank, rs.type_label
    b = list(window)
    flip = t == "D" and n in nodes and n - 1 not in nodes
    if flip:
        nodes = nodes[:-1] + [n - 1]  # n was the largest node, so the list stays sorted
        b[-1] = _NEG[b[-1]]
    for a, c in _runs(nodes):
        if c == n and t != "A":
            block = b[a - 1 :]
            tail = sorted(map(_ABS.__getitem__, block))
            b[a - 1 :] = map(_NEG.__getitem__, tail) if longest else tail
            # the count of negative entries changed by an odd number
            if t == "D" and sum(y < OFFSET for y in block + b[a - 1 :]) % 2:
                b[-1] = _NEG[b[-1]]
        else:
            b[a - 1 : c + 1] = sorted(b[a - 1 : c + 1], key=_KEY.__getitem__, reverse=longest)
    if flip:
        b[-1] = _NEG[b[-1]]
    return bytes(b)


def min_rep(rs: RootSystem, window: Window, j_set: Iterable[int]) -> Window:
    """Minimal-length representative of the coset w W_J (right quotient),
    w the window: the unique element of the coset with no right descent
    in J (Bjorner-Brenti 2.4), by one `_block_pass`."""
    return _block_pass(rs, window, _checked_nodes(rs, j_set), False)


def longest(rs: RootSystem, j_set: Iterable[int]) -> Window:
    """Longest element w_0(J) of the standard parabolic subgroup W_J, the
    longest window of the coset of the identity, by one `_block_pass`.
    Certified: w_0(J) is the one element of W_J with every node of J as a
    right descent, and each node is checked on the result."""
    nodes = _checked_nodes(rs, j_set)
    window = _block_pass(rs, identity(rs), nodes, True)
    for k in nodes:
        if not _is_descent(rs, window, k):
            raise WeylError(
                "node %d is not a right descent of w_0(J) = %s" % (k, window_str(window))
            )
    return window


def bruhat_leq(rs: RootSystem, uw: Window, ww: Window) -> bool:
    """Bruhat order u <= w on windows via the subword property
    (right-descent stripping)."""
    lu, lw = _length(rs, uw), _length(rs, ww)
    while True:
        if lu > lw:
            return False
        if lw == 0:
            return lu == 0
        k = first_descent(rs, ww, rs.nodes)
        s = simple_reflection(rs, k)
        if _is_descent(rs, uw, k):
            uw = multiply(uw, s)
            lu -= 1
        ww = multiply(ww, s)
        lw -= 1


class Enumeration(tuple):
    """The windows that `enumerate_group` lists, in order, carrying what
    its breadth-first pass recorded on the way:
      * `index` is a dict from each window to its position; it shadows
        the `tuple.index` method, so `tuple.index(enumeration, w)` is the
        way to search the windows;
      * `left[k][i]` is the position of s_k*w_i, or i when s_k*w_i lies
        in w_i W_J, for every node k of L;
      * `descent[i]` is the least node k with s_k*w_i shorter than w_i,
        0 for the identity;
      * `lengths[i]` is the length of w_i, its breadth-first level.
    The result is cached, and the `cosets.ParabolicQuotient` built from it
    shares its `index` dict and `left` rows, so neither may be mutated.
    It is a tuple of the windows and not a plain record because the
    benchmark's tracer sizes the enumerator's result with `len()`; the
    benchmark change of ROADMAP item 2 is what could turn it into one.
    `len()`, iteration and equality are those of the tuple of windows."""

    index: Dict[Window, int]
    left: Dict[int, Tuple[int, ...]]
    descent: Tuple[int, ...]
    lengths: Tuple[int, ...]

    def __new__(cls, windows, index, left, descent, lengths):
        self = super().__new__(cls, windows)
        self.index, self.left, self.descent, self.lengths = index, left, descent, lengths
        return self


@lru_cache(maxsize=None)
def enumerate_group(rs: RootSystem, nodes: FrozenSet[int], j_set: FrozenSet[int]) -> Enumeration:
    """Windows of the minimal representatives of W_L / W_J (L = `nodes`;
    all of W_L for J empty), sorted by (length, window), in one breadth-first pass by left
    simple reflections s of L.  By Deodhar's lemma (Bjorner-Brenti Lemma
    2.4.3), for w in W^J either s*w is in W^J or s*w = w*t for a t in J,
    and the latter holds exactly when w^-1(alpha_s) = alpha_t.  So s*w
    and that vector are each one `bytes.translate` of w through the
    tables of s and alpha_s, and the test is one set lookup.  This reaches all
    of W^J.  Each kept step changes the length by exactly 1, and every w
    in W^J of length l > 0 has a left descent s with s*w in W^J of length
    l - 1, so an element's breadth-first level is its length: levels are
    emitted in turn, each sorted by window, and each element's level is
    recorded as its length.  Only windows are listed; no element is
    built.

    Each level is indexed when it is emitted, and its left rows start as
    placeholders, so every step from w_i is one of three (Deodhar's
    dichotomy): down to an indexed element j of the level below, which
    fills left[k] at i and at j (s_k is an involution); inside w_i W_J,
    which gives i; or up into the next level, which leaves the placeholder
    for the step back down from there to overwrite.  A window of the next
    level is held in the index at -1 until its level is sorted, so each
    is kept once.  The first step down, in ascending node order, is the
    element's first left descent.  A placeholder left over would mean a
    generator that is not an involution, and raises WeylError.  The
    result is an `Enumeration`, whose `index` attribute is the window
    index and not `tuple.index`."""
    tables = generator_tables(rs)
    ks = _checked_nodes(rs, nodes)
    j_roots = {tables[t].root for t in _checked_nodes(rs, j_set)}
    rows: List[List[int]] = [[] for _ in ks]
    steps = [(k, tables[k].table, tables[k].root_table, row) for k, row in zip(ks, rows)]
    index: Dict[Window, int] = {}
    lookup = index.get
    descent: List[int] = []
    out: List[Window] = []
    lengths: List[int] = []
    level = [identity(rs)]
    length = 0
    while level:
        base = len(out)
        index.update(zip(level, range(base, base + len(level))))
        out.extend(level)
        lengths += [length] * len(level)
        placeholders = [-1] * len(level)
        for row in rows:
            row.extend(placeholders)
        nxt = []
        for i, ww in enumerate(level, base):
            translate = ww.translate
            first = 0
            for k, table, root, row in steps:
                x = translate(table)
                j = lookup(x)
                if j is None:  # inside w_i W_J, or new in the next level
                    if translate(root) in j_roots:
                        row[i] = i
                    else:
                        index[x] = -1
                        nxt.append(x)
                elif j >= 0:  # down to the level below
                    row[i] = j
                    row[j] = i
                    first = first or k
            descent.append(first)
        level = sorted(nxt)
        length += 1
    for k, row in zip(ks, rows):
        if -1 in row:
            raise WeylError(
                "left row of node %d left unresolved at %s"
                % (k, window_str(out[row.index(-1)]))
            )
    left = {k: tuple(row) for k, row in zip(ks, rows)}
    return Enumeration(out, index, left, tuple(descent), tuple(lengths))
