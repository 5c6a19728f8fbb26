"""Weyl-group elements as (signed) permutation windows.

A window (b_1, ..., b_d) encodes the map e_k -> sign(b_k) e_|b_k| on the
ambient lattice of the root system.  Type A windows are plain permutations
of {1..n+1}; types B and C allow any sign pattern; type D requires an even
number of negative entries.

Every statistic is read off the window's integers, never from a root
vector (Bjorner-Brenti, Combinatorics of Coxeter Groups, 8.1-8.2).  With
key(x) = x mod (2d+1), which orders 1 < ... < d < -d < ... < -1, the
window inverts e_i - e_j (i < j) iff key(b_i) > key(b_j), e_i + e_j iff
key(b_i) > key(-b_j), and e_i (or 2 e_i) iff b_i < 0.  Length counts these
inversions, and a right descent is an inverted simple root; the tests
cross-check both against the count of positive roots sent to negative
roots.  `enumerate_group` lists the minimal representatives of W_L / W_J
without enumerating W_L, and builds an element only for a window it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, FrozenSet, Iterable, Sequence, Tuple

from .rootsys import RootSystem, Vector

Window = Tuple[int, ...]


class WeylError(ValueError):
    """Invalid window or node, or mismatched operands."""


@dataclass(frozen=True, eq=False)
class WeylElement:
    rs: RootSystem
    window: Window

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, WeylElement)
            and self.rs == other.rs
            and self.window == other.window
        )

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return "W%s%d%s" % (self.rs.type_label, self.rs.rank, window_str(self.window))

    @cached_property
    def length(self) -> int:
        return _length(self.rs, self.window)


def window_str(window: Window) -> str:
    """Canonical string form, e.g. "(3,-1,2)"."""
    return "(" + ",".join(str(b) for b in window) + ")"


def _validate_window(rs: RootSystem, window: Window) -> None:
    d = rs.dim
    if len(window) != d:
        raise WeylError("window %s has length %d, expected %d" % (window, len(window), d))
    if sorted(abs(b) for b in window) != list(range(1, d + 1)):
        raise WeylError("window %s is not a signed permutation of 1..%d" % (window, d))
    negatives = sum(1 for b in window if b < 0)
    if rs.type_label == "A" and negatives:
        raise WeylError("type A windows carry no signs: %s" % (window,))
    if rs.type_label == "D" and negatives % 2:
        raise WeylError("type D windows need an even number of signs: %s" % (window,))


def _act_coords(window: Window, v: Sequence) -> Tuple:
    out = [0] * len(window)
    for pos, b in enumerate(window):
        if b > 0:
            out[b - 1] = v[pos]
        else:
            out[-b - 1] = -v[pos]
    return tuple(out)


def _length(rs: RootSystem, window: Window) -> int:
    """Inversion count: pairs i < j with key(b_i) > key(b_j); in B, C and D
    also those with key(b_i) > key(-b_j); in B and C also negative entries."""
    m = 2 * len(window) + 1
    keys = [b % m for b in window]
    total = sum(x > y for i, x in enumerate(keys) for y in keys[i + 1 :])
    if rs.type_label != "A":
        flipped = [-b % m for b in window]
        total += sum(x > y for i, x in enumerate(keys) for y in flipped[i + 1 :])
        if rs.type_label != "D":
            total += sum(b < 0 for b in window)
    return total


def _is_descent(rs: RootSystem, window: Window, k: int) -> bool:
    """Whether node k is a right descent, i.e. the window inverts alpha_k."""
    n = rs.rank
    if not 1 <= k <= n:
        raise WeylError("node %d out of range 1..%d" % (k, n))
    m = 2 * len(window) + 1
    if k < n or rs.type_label == "A":  # alpha_k = e_k - e_(k+1)
        return window[k - 1] % m > window[k] % m
    if rs.type_label == "D":  # alpha_n = e_(n-1) + e_n
        return window[n - 2] % m > -window[n - 1] % m
    return window[n - 1] < 0  # alpha_n = e_n or 2 e_n


def inversion_test(root: Vector) -> Callable[[Window], bool]:
    """Predicate on windows: whether w sends the positive root `root` to a
    negative root.  For e_i (or 2 e_i) that is b_i < 0; for e_i + c e_j
    with i < j it is key(b_i) > key(-c b_j)."""
    support = [k for k, x in enumerate(root) if x]
    if not 1 <= len(support) <= 2 or root[support[0]] <= 0:
        raise WeylError("%s is not a positive root" % (root,))
    i = support[0]
    if len(support) == 1:
        return lambda b: b[i] < 0
    j = support[1]
    c = root[j]
    m = 2 * len(root) + 1
    return lambda b: b[i] % m > -c * b[j] % m


def element(rs: RootSystem, window: Iterable[int]) -> WeylElement:
    w = tuple(window)
    _validate_window(rs, w)
    return WeylElement(rs, w)


def identity(rs: RootSystem) -> WeylElement:
    return WeylElement(rs, tuple(range(1, rs.dim + 1)))


@lru_cache(maxsize=None)
def simple_reflection(rs: RootSystem, k: int) -> WeylElement:
    if not 1 <= k <= rs.rank:
        raise WeylError("simple reflection index %d out of range 1..%d" % (k, rs.rank))
    return reflection(rs, rs.simple_roots[k - 1])


def reflection(rs: RootSystem, root: Vector) -> WeylElement:
    """The reflection in `root` as a window element."""
    norm = sum(y * y for y in root)
    if any(2 * x % norm for x in root):
        raise WeylError("%s has no integral coroot" % (root,))
    coroot = tuple(2 * x // norm for x in root)
    window = []
    for k in range(rs.dim):
        image = [-coroot[k] * root[t] for t in range(rs.dim)]
        image[k] += 1
        hits = [(t, x) for t, x in enumerate(image) if x != 0]
        if len(hits) != 1 or abs(hits[0][1]) != 1:
            raise WeylError("root %s does not act by signed permutation" % (root,))
        t, x = hits[0]
        window.append(t + 1 if x > 0 else -(t + 1))
    return element(rs, window)


def compose(uw: Window, ww: Window) -> Window:
    """Window of the product u*w, i.e. of the map v -> u(w(v))."""
    return tuple([uw[b - 1] if b > 0 else -uw[-b - 1] for b in ww])


def multiply(u: WeylElement, w: WeylElement) -> WeylElement:
    """Group product u*w, i.e. the map v -> u(w(v))."""
    if u.rs is not w.rs and u.rs != w.rs:
        raise WeylError("operands live in different Weyl groups")
    return WeylElement(u.rs, compose(u.window, w.window))


def inverse(w: WeylElement) -> WeylElement:
    return WeylElement(w.rs, _act_coords(w.window, range(1, len(w.window) + 1)))


def act(w: WeylElement, v: Sequence) -> Tuple:
    """Signed-permutation action on an ambient (co)weight vector."""
    if len(v) != w.rs.dim:
        raise WeylError("vector has dimension %d, expected %d" % (len(v), w.rs.dim))
    return _act_coords(w.window, v)


def first_descent(rs: RootSystem, window: Window, nodes: Sequence[int]) -> int:
    """First node of `nodes` that is a right descent of the window, or 0."""
    for k in nodes:
        if _is_descent(rs, window, k):
            return k
    return 0


def min_rep(w: WeylElement, j_set: Iterable[int]) -> WeylElement:
    """Minimal-length representative of the coset w W_J (right quotient)."""
    rs, nodes = w.rs, sorted(j_set)
    window = w.window
    while True:
        k = first_descent(rs, window, nodes)
        if not k:
            return w if window is w.window else WeylElement(rs, window)
        window = compose(window, simple_reflection(rs, k).window)


def is_min_rep(w: WeylElement, j_set: Iterable[int]) -> bool:
    return first_descent(w.rs, w.window, sorted(j_set)) == 0


def longest(rs: RootSystem, j_set: Iterable[int]) -> WeylElement:
    """Longest element of the standard parabolic subgroup W_J."""
    nodes = sorted(j_set)
    window = identity(rs).window
    while True:
        k = next((k for k in nodes if not _is_descent(rs, window, k)), 0)
        if not k:
            return WeylElement(rs, window)
        window = compose(window, simple_reflection(rs, k).window)


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the subword property (right-descent stripping)."""
    if u.rs != w.rs:
        raise WeylError("operands live in different Weyl groups")
    rs = u.rs
    uw, ww = u.window, w.window
    lu, lw = u.length, w.length
    while True:
        if lu > lw:
            return False
        if lw == 0:
            return lu == 0
        k = first_descent(rs, ww, rs.nodes)
        s = simple_reflection(rs, k).window
        if _is_descent(rs, uw, k):
            uw = compose(uw, s)
            lu -= 1
        ww = compose(ww, s)
        lw -= 1


@lru_cache(maxsize=None)
def enumerate_group(
    rs: RootSystem, nodes: FrozenSet[int], j_set: FrozenSet[int] = frozenset()
) -> Tuple[WeylElement, ...]:
    """Minimal representatives of W_L / W_J (L = `nodes`; all of W_L for J
    empty), sorted by (length, window): breadth-first by left simple
    reflections s of L, keeping s*w when it has no right descent in J.  By
    Deodhar's lemma (s*w is in W^J or s*w W_J = w W_J), this reaches all of W^J.
    Candidates are bare windows; only the kept ones become elements."""
    gens = [simple_reflection(rs, k).window for k in sorted(nodes)]
    j_nodes = sorted(j_set)
    start = identity(rs)
    seen = {start.window: start}
    frontier = [start.window]
    while frontier:
        nxt = []
        for ww in frontier:
            for sw in gens:
                x = compose(sw, ww)
                if x not in seen and not first_descent(rs, x, j_nodes):
                    seen[x] = WeylElement(rs, x)
                    nxt.append(x)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda w: (w.length, w.window)))
