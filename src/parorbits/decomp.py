"""Orbit decomposition of a Hasse diagram, its certification, and emission.

Every stratum of a classical Grassmannian fixture is matched, edge for
edge, against the divisor diagram of its Levi flag variety through the
explicit cell map u -> u * w_min.  The map is certified (length-additive
bijection onto the stratum); the within-stratum multiplicities must equal
the flag multiplicities times the stratum scale (2 exactly on the odd
orthogonal doubling stratum, 1 otherwise).  Cross-stratum edges are
reported and checked to increase the stratum exponent.

Output formats: DOT, TikZ and JSON, all byte-deterministic.
"""

from __future__ import annotations

import json
from itertools import accumulate
from typing import Dict, List, NamedTuple, Optional, Tuple

from . import cosets, hasse, strata, weyl
from .cosets import ParabolicQuotient
from .fixtures import Fixture
from .hasse import Edge, HasseDiagram
from .strata import OrbitStratum
from .weyl import Window

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


class DecompositionError(ValueError):
    """Cell-map certification failure; names the offending class."""


class StratumComparison(NamedTuple):
    """One stratum against its flag diagram; compares and hashes by
    identity."""

    stratum: OrbitStratum
    flag_quotient: ParabolicQuotient
    flag_diagram: Optional[HasseDiagram]
    #: flag element index -> X element index
    phi: Tuple[int, ...]
    scale: int
    edges_match: bool
    #: each differing edge, named by the windows of its ends
    mismatches: Tuple[str, ...]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__


class DecomposedDiagram(NamedTuple):
    """A fixture's diagram split into strata; compares and hashes by
    identity."""

    fixture: Fixture
    pq: ParabolicQuotient
    diagram: HasseDiagram
    strata: Tuple[OrbitStratum, ...]
    #: stratum index of each vertex
    vertex_stratum: Tuple[int, ...]
    cross_edges: Tuple[Edge, ...]
    comparisons: Tuple[StratumComparison, ...]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def all_pass(self) -> bool:
        """Every stratum matches its flag diagram and every cross edge raises delta."""
        return self.witness() is None

    def witness(self) -> Optional[str]:
        """The first failure of `all_pass`, or None: the first stratum whose
        edges differ from its flag diagram, with its delta and first
        mismatch, else the first cross edge that does not raise delta,
        with the windows and deltas of both ends."""
        for c in self.comparisons:
            if not c.edges_match:
                return "stratum delta=%d, %s" % (c.stratum.delta, c.mismatches[0])
        delta = [self.strata[si].delta for si in self.vertex_stratum]
        for e in self.cross_edges:
            if delta[e.w] <= delta[e.u]:
                u, w = (weyl.window_str(self.pq.elements[k]) for k in (e.u, e.w))
                return "cross edge %s->%s does not raise delta: %d -> %d" % (
                    u, w, delta[e.u], delta[e.w]
                )
        return None


def flag_quotient(stratum: OrbitStratum) -> ParabolicQuotient:
    """The stratum's flag variety as a quotient inside the Levi of P."""
    return cosets.build_quotient(
        stratum.fixture.rs, frozenset(stratum.K), frozenset(stratum.dc.j_p)
    )


def phi(stratum: OrbitStratum, u: Window) -> Window:
    """Cell map of the stratum on windows: u -> u * w_min (certified by
    `phi_map`), w_min the window of the double coset's first member."""
    dc = stratum.dc
    return weyl.multiply(u, dc.pq.elements[dc.members[0]])


def phi_map(stratum: OrbitStratum) -> Tuple[ParabolicQuotient, Tuple[int, ...]]:
    """Certified bijection from the flag quotient onto the stratum members:
    each image is a member, l(u * w_min) = l(u) + l(w_min), read from the
    two quotients' lengths, and the images are the members, each once."""
    pq = stratum.dc.pq
    fq = flag_quotient(stratum)
    members = stratum.dc.members
    member_set = set(members)
    shift = pq.lengths[members[0]]
    images = []
    for u, length in zip(fq.elements, fq.lengths):
        idx = pq.index.get(phi(stratum, u))
        if idx not in member_set:
            raise DecompositionError(
                "cell map leaves the stratum at %s (stratum delta=%d of %s)"
                % (weyl.name(pq.rs, u), stratum.delta, stratum.fixture.label)
            )
        if pq.lengths[idx] != length + shift:
            raise DecompositionError(
                "cell map is not length-additive at %s (stratum delta=%d of %s)"
                % (weyl.name(pq.rs, u), stratum.delta, stratum.fixture.label)
            )
        images.append(idx)
    if not len(images) == len(set(images)) == len(member_set):
        raise DecompositionError(
            "cell map is not a bijection on stratum delta=%d of %s"
            % (stratum.delta, stratum.fixture.label)
        )
    return fq, tuple(images)


def _compare_stratum(
    stratum: OrbitStratum, x_edges: Dict[Tuple[int, int], int]
) -> StratumComparison:
    """Match the stratum's within-stratum edges of X, `x_edges` as
    {(u, w): mult}, against its flag diagram carried over by the cell map;
    the mismatch list, sorted by index and naming windows, is built only
    when the two differ."""
    fq, phi_images = phi_map(stratum)
    weight = strata.h_prime_of(stratum)
    scale = 2 if stratum.doubling else 1
    if not weight:
        fd = None
        flag_edges: Dict[Tuple[int, int], int] = {}
    else:
        fd = hasse.build_hasse(fq, weight)
        flag_edges = {(phi_images[e.u], phi_images[e.w]): e.mult * scale for e in fd.edges}
    mismatches = []
    if flag_edges != x_edges:
        windows = stratum.dc.pq.elements
        for key in sorted(set(flag_edges) | set(x_edges)):
            got = x_edges.get(key)
            want = flag_edges.get(key)
            if got != want:
                u, w = (weyl.window_str(windows[k]) for k in key)
                mismatches.append(
                    "edge %s->%s: diagram mult %s, flag mult (scaled) %s" % (u, w, got, want)
                )
    return StratumComparison(
        stratum=stratum,
        flag_quotient=fq,
        flag_diagram=fd,
        phi=phi_images,
        scale=scale,
        edges_match=not mismatches,
        mismatches=tuple(mismatches),
    )


def build_decomposition(fix: Fixture) -> DecomposedDiagram:
    pq, sts = strata.stratify(fix)
    diagram = hasse.build_hasse(pq, {fix.q_node: 1})
    vertex_stratum = [-1] * len(pq.elements)
    for si, st in enumerate(sts):
        for k in st.dc.members:
            vertex_stratum[k] = si
    vs = tuple(vertex_stratum)
    # one pass over X's edges: each within-stratum edge into its stratum's
    # {(u, w): mult}, the rest in order into the cross edges
    within: List[Dict[Tuple[int, int], int]] = [{} for _ in sts]
    cross = []
    for e in diagram.edges:
        si = vs[e.u]
        if si == vs[e.w]:
            within[si][e.u, e.w] = e.mult
        else:
            cross.append(e)
    comparisons = tuple(_compare_stratum(st, within[si]) for si, st in enumerate(sts))
    return DecomposedDiagram(fix, pq, diagram, sts, vs, tuple(cross), comparisons)


def decomposition_report(dec: DecomposedDiagram) -> dict:
    """Per-stratum pass/fail report for the flag-diagram identification."""
    strata_report = []
    for comp in dec.comparisons:
        strata_report.append(
            {
                "delta": comp.stratum.delta,
                "flag": comp.stratum.flag.label,
                "scale": comp.scale,
                "pass": comp.edges_match,
            }
        )
    return {
        "fixture": dec.fixture.label,
        "strata": strata_report,
        "cross_edges": len(dec.cross_edges),
        "all_pass": dec.all_pass(),
    }


# ---------------------------------------------------------------------------
# emission


def _emit_json(
    fix: Fixture,
    pq: ParabolicQuotient,
    diagram: HasseDiagram,
    vertex_stratum: Optional[Tuple[int, ...]],
    sts: Optional[Tuple[OrbitStratum, ...]],
) -> str:
    vertices = []
    for k, x in enumerate(pq.elements):
        entry = {"window": weyl.window_str(x), "length": pq.lengths[k]}
        if vertex_stratum is not None:
            entry["stratum"] = vertex_stratum[k]
        vertices.append(entry)
    edges = []
    for e in diagram.edges:
        entry = {"from": e.u, "to": e.w, "mult": e.mult}
        if vertex_stratum is not None:
            entry["cross"] = vertex_stratum[e.u] != vertex_stratum[e.w]
        edges.append(entry)
    payload = {"fixture": fix.label, "space": fix.space_label, "vertices": vertices, "edges": edges}
    if sts is not None:
        payload["strata"] = [strata.stratum_json(st) for st in sts]
    return json.dumps(payload, indent=2) + "\n"


def _emit_dot(
    fix: Fixture,
    pq: ParabolicQuotient,
    diagram: HasseDiagram,
    vertex_stratum: Optional[Tuple[int, ...]],
    sts: Optional[Tuple[OrbitStratum, ...]],
) -> str:
    lines = [
        'digraph "%s" {' % fix.label,
        "  rankdir=LR;",
        "  node [shape=circle, style=filled, fixedsize=true, width=0.25, fontsize=6];",
    ]
    for k, x in enumerate(pq.elements):
        attrs = ['label="%s"' % weyl.window_str(x)]
        if vertex_stratum is not None:
            si = vertex_stratum[k]
            attrs.append('class="stratum%d"' % sts[si].delta)
            attrs.append('fillcolor="%s"' % PALETTE[si % len(PALETTE)])
        lines.append("  n%d [%s];" % (k, ", ".join(attrs)))
    for e in diagram.edges:
        attrs = ["penwidth=%d" % e.mult]
        if vertex_stratum is not None and vertex_stratum[e.u] == vertex_stratum[e.w]:
            attrs.append('color="%s"' % PALETTE[vertex_stratum[e.u] % len(PALETTE)])
        lines.append("  n%d -> n%d [%s];" % (e.u, e.w, ", ".join(attrs)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_tikz(
    fix: Fixture,
    pq: ParabolicQuotient,
    diagram: HasseDiagram,
    vertex_stratum: Optional[Tuple[int, ...]],
    sts: Optional[Tuple[OrbitStratum, ...]],
) -> str:
    colors = ("blue", "red", "green!60!black", "orange", "violet", "brown")
    # elements are sorted by length, so each degree is a run of indices
    counts = pq.rank_counts()
    first = [0, *accumulate(counts)]
    lines = [
        "\\documentclass[tikz]{standalone}",
        "\\begin{document}",
        "\\begin{tikzpicture}[x=2em, y=2em,",
        "  every node/.style={draw, circle, minimum size=4pt, inner sep=0pt}]",
    ]
    for k, degree in enumerate(pq.lengths):
        # y = h/2 in exact half-units, centred within the degree
        h = 2 * (k - first[degree]) - (counts[degree] - 1)
        y = "%s%d.%d" % ("-" if h < 0 else "", abs(h) // 2, 5 * (abs(h) % 2))
        fill = ""
        if vertex_stratum is not None:
            fill = "fill=%s" % colors[vertex_stratum[k] % len(colors)]
        lines.append("  \\node[%s] (n%d) at (%d, %s) {};" % (fill, k, degree, y))
    for e in diagram.edges:
        style = []
        if vertex_stratum is not None and vertex_stratum[e.u] == vertex_stratum[e.w]:
            style.append(colors[vertex_stratum[e.u] % len(colors)])
        if e.mult >= 2:
            style.append("double")
        opts = "[%s]" % ",".join(style) if style else ""
        lines.append("  \\draw%s (n%d) -- (n%d);" % (opts, e.u, e.w))
    lines.extend(["\\end{tikzpicture}", "\\end{document}"])
    return "\n".join(lines) + "\n"


_EMITTERS = {"dot": _emit_dot, "tikz": _emit_tikz, "json": _emit_json}


def _emit(
    fmt: str,
    fix: Fixture,
    pq: ParabolicQuotient,
    diagram: HasseDiagram,
    vertex_stratum: Optional[Tuple[int, ...]] = None,
    sts: Optional[Tuple[OrbitStratum, ...]] = None,
) -> str:
    if fmt not in _EMITTERS:
        raise ValueError("unknown format %r (expected dot, tikz or json)" % fmt)
    return _EMITTERS[fmt](fix, pq, diagram, vertex_stratum, sts)


def emit(dec: DecomposedDiagram, fmt: str) -> str:
    """Orbit-colored diagram of the decomposition in `fmt` (dot, tikz or json)."""
    return _emit(fmt, dec.fixture, dec.pq, dec.diagram, dec.vertex_stratum, dec.strata)


def emit_plain(fix: Fixture, fmt: str) -> str:
    """Uncolored Hasse diagram of the fixture's space."""
    pq = cosets.build_quotient(fix.rs, fix.j_q)
    return _emit(fmt, fix, pq, hasse.build_hasse(pq, {fix.q_node: 1}))
