"""Isomorphism of colored graded multigraphs.

Vertices carry (degree, color); edges go from degree k to degree k+1 and
carry a positive multiplicity.  Isomorphisms must preserve degree, color,
adjacency and multiplicities; multiplicities on cross-color edges can be
relaxed to adjacency-only (reference diagrams often style cross edges
without encoding their weight).

Graphs here have at most a few dozen vertices, so iterated signature
refinement plus a small backtracking search is plenty.  Test-only: the
decomposition and acceptance tests compare computed diagrams with the
golden figures through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

VertexData = Tuple[int, int]  # (degree, color)
EdgeData = Tuple[int, int, int]  # (u, w, mult)


@dataclass(frozen=True)
class ColoredGraph:
    vertices: Tuple[VertexData, ...]
    edges: Tuple[EdgeData, ...]

    @staticmethod
    def from_json(payload: dict) -> "ColoredGraph":
        vertices = tuple(
            (int(v["degree"]), int(v["stratum"])) for v in payload["vertices"]
        )
        edges = tuple(
            (int(e["from"]), int(e["to"]), int(e.get("mult", 1)))
            for e in payload["edges"]
        )
        return ColoredGraph(vertices, edges)


def _effective_mult(g: ColoredGraph, u: int, w: int, mult: int, cross_mult_exact: bool) -> int:
    if cross_mult_exact or g.vertices[u][1] == g.vertices[w][1]:
        return mult
    return 0  # cross edges compared by adjacency only


def _incidence(g: ColoredGraph, cross_mult_exact: bool):
    n = len(g.vertices)
    up: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    down: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    for u, w, mult in g.edges:
        m = _effective_mult(g, u, w, mult, cross_mult_exact)
        up[u].append((w, m))
        down[w].append((u, m))
    return up, down


def _joint_refine(
    a: ColoredGraph, b: ColoredGraph, cross_mult_exact: bool
) -> Tuple[List[int], List[int]]:
    """Stable vertex labels refined over both graphs with a shared renaming."""
    up_a, down_a = _incidence(a, cross_mult_exact)
    up_b, down_b = _incidence(b, cross_mult_exact)
    la: List = list(a.vertices)
    lb: List = list(b.vertices)
    while True:
        sigs_a = [
            (la[k], tuple(sorted((la[w], m) for w, m in up_a[k])), tuple(sorted((la[u], m) for u, m in down_a[k])))
            for k in range(len(la))
        ]
        sigs_b = [
            (lb[k], tuple(sorted((lb[w], m) for w, m in up_b[k])), tuple(sorted((lb[u], m) for u, m in down_b[k])))
            for k in range(len(lb))
        ]
        order = {sig: idx for idx, sig in enumerate(sorted(set(sigs_a) | set(sigs_b)))}
        new_a = [order[sig] for sig in sigs_a]
        new_b = [order[sig] for sig in sigs_b]
        if new_a == la and new_b == lb:
            return la, lb
        la, lb = new_a, new_b


def isomorphic(a: ColoredGraph, b: ColoredGraph, cross_mult_exact: bool = True) -> bool:
    """Exact isomorphism test as colored graded multigraphs."""
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False
    la, lb = _joint_refine(a, b, cross_mult_exact)
    if sorted(la) != sorted(lb):
        return False
    n = len(a.vertices)
    adj_a: Dict[Tuple[int, int], int] = {}
    adj_b: Dict[Tuple[int, int], int] = {}
    for u, w, mult in a.edges:
        adj_a[(u, w)] = _effective_mult(a, u, w, mult, cross_mult_exact)
    for u, w, mult in b.edges:
        adj_b[(u, w)] = _effective_mult(b, u, w, mult, cross_mult_exact)
    up_a: List[List[int]] = [[] for _ in range(n)]
    down_a: List[List[int]] = [[] for _ in range(n)]
    for u, w, _ in a.edges:
        up_a[u].append(w)
        down_a[w].append(u)

    candidates: List[List[int]] = [
        [k for k in range(n) if lb[k] == la[v]] for v in range(n)
    ]
    order = sorted(range(n), key=lambda v: len(candidates[v]))
    assignment: List[Optional[int]] = [None] * n
    used = [False] * n

    def consistent(v: int, image: int) -> bool:
        for w in up_a[v]:
            if assignment[w] is not None:
                if adj_b.get((image, assignment[w])) != adj_a[(v, w)]:
                    return False
        for u in down_a[v]:
            if assignment[u] is not None:
                if adj_b.get((assignment[u], image)) != adj_a[(u, v)]:
                    return False
        return True

    def backtrack(pos: int) -> bool:
        if pos == n:
            return True
        v = order[pos]
        for image in candidates[v]:
            if used[image] or not consistent(v, image):
                continue
            assignment[v] = image
            used[image] = True
            if backtrack(pos + 1):
                return True
            assignment[v] = None
            used[image] = False
        return False

    return backtrack(0)
