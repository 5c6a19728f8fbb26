"""Weyl-group elements as (signed) permutation windows.

A window (b_1, ..., b_d) encodes the map e_k -> sign(b_k) e_|b_k| on the
ambient lattice of the root system.  Type A windows are plain permutations
of {1..n+1}; types B and C allow any sign pattern; type D requires an even
number of negative entries.  Length is the number of positive roots sent
to negative roots, which agrees with the type-specific inversion formulas
(cross-checked in the tests).  `enumerate_group` lists the minimal
representatives of W_L / W_J without enumerating W_L.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import FrozenSet, Iterable, Sequence, Tuple

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


def _root_is_negative(window: Window, root: Vector) -> bool:
    # image of a root is +/- a positive root; its sign is the sign of the
    # lowest-index nonzero coordinate in the classical realizations
    best_index = None
    best_value = 0
    for pos, x in enumerate(root):
        if x == 0:
            continue
        b = window[pos]
        idx, val = (b - 1, x) if b > 0 else (-b - 1, -x)
        if best_index is None or idx < best_index:
            best_index, best_value = idx, val
    if best_index is None:
        raise WeylError("zero vector is not a root")
    return best_value < 0


def _length(rs: RootSystem, window: Window) -> int:
    return sum(1 for beta in rs.positive_roots if _root_is_negative(window, beta))


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


def multiply(u: WeylElement, w: WeylElement) -> WeylElement:
    """Group product u*w, i.e. the map v -> u(w(v))."""
    if u.rs != w.rs:
        raise WeylError("operands live in different Weyl groups")
    uw = u.window
    window = tuple(uw[b - 1] if b > 0 else -uw[-b - 1] for b in w.window)
    return WeylElement(u.rs, window)


def inverse(w: WeylElement) -> WeylElement:
    return WeylElement(w.rs, _act_coords(w.window, range(1, len(w.window) + 1)))


def act(w: WeylElement, v: Sequence) -> Tuple:
    """Signed-permutation action on an ambient (co)weight vector."""
    if len(v) != w.rs.dim:
        raise WeylError("vector has dimension %d, expected %d" % (len(v), w.rs.dim))
    return _act_coords(w.window, v)


def first_descent(w: WeylElement, nodes: Sequence[int]) -> int:
    for k in nodes:
        if _root_is_negative(w.window, w.rs.simple_roots[k - 1]):
            return k
    return 0


def min_rep(w: WeylElement, j_set: Iterable[int]) -> WeylElement:
    """Minimal-length representative of the coset w W_J (right quotient)."""
    nodes = sorted(j_set)
    cur = w
    while True:
        k = first_descent(cur, nodes)
        if not k:
            return cur
        cur = multiply(cur, simple_reflection(cur.rs, k))


def is_min_rep(w: WeylElement, j_set: Iterable[int]) -> bool:
    return first_descent(w, sorted(j_set)) == 0


def longest(rs: RootSystem, j_set: Iterable[int]) -> WeylElement:
    """Longest element of the standard parabolic subgroup W_J."""
    nodes = sorted(j_set)
    for k in nodes:
        if not 1 <= k <= rs.rank:
            raise WeylError("node %d out of range 1..%d" % (k, rs.rank))
    cur = identity(rs)
    while True:
        k = next(
            (
                k
                for k in nodes
                if not _root_is_negative(cur.window, rs.simple_roots[k - 1])
            ),
            0,
        )
        if not k:
            return cur
        cur = multiply(cur, simple_reflection(rs, k))


def bruhat_leq(u: WeylElement, w: WeylElement) -> bool:
    """Bruhat order via the subword property (right-descent stripping)."""
    if u.rs != w.rs:
        raise WeylError("operands live in different Weyl groups")
    nodes = u.rs.nodes
    lu, lw = u.length, w.length
    while True:
        if lu > lw:
            return False
        if lw == 0:
            return lu == 0
        k = first_descent(w, nodes)
        s = simple_reflection(w.rs, k)
        if _root_is_negative(u.window, u.rs.simple_roots[k - 1]):
            u = multiply(u, s)
            lu -= 1
        w = multiply(w, s)
        lw -= 1


@lru_cache(maxsize=None)
def enumerate_group(
    rs: RootSystem, nodes: FrozenSet[int], j_set: FrozenSet[int] = frozenset()
) -> Tuple[WeylElement, ...]:
    """Minimal representatives of W_L / W_J (L = `nodes`; all of W_L for J
    empty), sorted by (length, window): breadth-first by left simple
    reflections s of L, keeping s*w when it has no right descent in J.  By
    Deodhar's lemma (s*w is in W^J or s*w W_J = w W_J), this reaches all of W^J."""
    gens = [simple_reflection(rs, k) for k in sorted(nodes)]
    seen = {identity(rs).window: identity(rs)}
    frontier = [identity(rs)]
    while frontier:
        nxt = []
        for w in frontier:
            for s in gens:
                sw = multiply(s, w)
                if sw.window not in seen and is_min_rep(sw, j_set):
                    seen[sw.window] = sw
                    nxt.append(sw)
        frontier = nxt
    return tuple(sorted(seen.values(), key=lambda w: (w.length, w.window)))
