"""Orbit decomposition of a Hasse diagram, its certification, and emission.

Every stratum of a classical Grassmannian fixture is matched, edge for
edge, against the hyperplane-class diagram of its Levi flag variety
through the explicit cell map u -> u * w_min.  The map is certified
(length-additive bijection onto the stratum); the within-stratum
multiplicities must equal the flag multiplicities times one integer
factor, h' times the stratum's `scale`: h' is 2 on the Lagrangian
Grassmannian and `scale` 2 exactly on the odd orthogonal doubling
stratum, each 1 otherwise.  X's diagram and every flag diagram are
`hasse.build_hasse` of their quotients, built once per quotient.
Cross-stratum edges are reported and checked to increase the stratum
exponent.  A decomposition holds no copy of the quotient's classes or
covers: each class's stratum and delta are read from `strata.stratify`,
each edge is a cover of X's quotient, named by its position in the
quotient's cover columns, and its multiplicity is read from X's
multiplicities by its witness.  A stratum's edges u -> w are compared
with its flag diagram's as sorted integer keys u*N + w, N the number of
X's classes, which sort as the pairs (u, w) do.  A stratum's result is
its mismatches alone; its flag quotient and cell map are `flag_quotient`
and `phi_map`.

Output formats: DOT, TikZ and JSON, all byte-deterministic.
"""

from __future__ import annotations

from itertools import accumulate
from typing import List, NamedTuple, Optional, Sequence, Tuple

from . import cosets, hasse, strata, weyl
from .cosets import ParabolicQuotient
from .fixtures import Fixture
from .jsontext import indented
from .strata import OrbitStratum, Stratification
from .weyl import Window

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd", "#8c564b")


class DecompositionError(ValueError):
    """Cell-map certification failure; names the offending class."""


class DecomposedDiagram(NamedTuple):
    """A fixture's diagram split into strata; compares and hashes by
    identity."""

    fixture: Fixture
    strat: Stratification
    #: X's multiplicities, `hasse.build_hasse(strat.pq)`, one per positive root
    mult: Tuple[int, ...]
    #: the positions, in X's cover columns, of the covers whose ends lie in
    #: different strata
    cross_edges: Tuple[int, ...]
    #: per stratum of `strat.strata`, each edge that differs from its flag diagram
    mismatches: Tuple[Tuple[str, ...], ...]

    __eq__, __ne__, __hash__ = object.__eq__, object.__ne__, object.__hash__

    def non_rising_cross_edge(self) -> Optional[int]:
        """The position of the first cross edge whose delta does not rise,
        or None."""
        delta, pq = self.strat.delta, self.strat.pq
        sources, targets = pq.sources, pq.targets
        return next((c for c in self.cross_edges if delta[targets[c]] <= delta[sources[c]]), None)

    def witness(self) -> Optional[str]:
        """The first failure of the decomposition, or None: the first stratum
        whose edges differ from its flag diagram, with its delta and first
        mismatch, else the first cross edge that does not raise delta,
        with the windows and deltas of both ends."""
        for st, found in zip(self.strat.strata, self.mismatches):
            if found:
                return "stratum delta=%d, %s" % (st.delta, found[0])
        if (c := self.non_rising_cross_edge()) is None:
            return None
        pq, delta = self.strat.pq, self.strat.delta
        u, w, windows = pq.sources[c], pq.targets[c], pq.elements
        return "cross edge %s->%s does not raise delta: %d -> %d" % (
            weyl.window_str(windows[u]), weyl.window_str(windows[w]), delta[u], delta[w]
        )


def flag_quotient(stratum: OrbitStratum) -> ParabolicQuotient:
    """The stratum's flag variety as a quotient inside the Levi of P."""
    return cosets.build_quotient(stratum.fixture.rs, stratum.K, stratum.fixture.j_p)


def phi(stratum: OrbitStratum, u: Window) -> Window:
    """Cell map of the stratum on windows: u -> u * w_min (certified by
    `phi_map`), w_min the window of the stratum's first member."""
    return weyl.multiply(u, stratum.pq.elements[stratum.members[0]])


def phi_map(stratum: OrbitStratum) -> Tuple[ParabolicQuotient, Tuple[int, ...]]:
    """Certified bijection from the flag quotient onto the stratum members:
    each image is a member, l(u * w_min) = l(u) + l(w_min), read from the
    two quotients' lengths, and the images are the members, each once."""
    pq, members = stratum.pq, stratum.members
    fq = flag_quotient(stratum)
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
    stratum: OrbitStratum, keys: Sequence[int], mults: Sequence[int]
) -> Tuple[str, ...]:
    """Match the stratum's within-stratum edges of X, each edge u -> w as
    the key u*N + w in ascending `keys` with its multiplicity in `mults`,
    against its flag diagram carried over by the cell map; the mismatches,
    sorted by index and naming windows, are listed only when the two
    differ."""
    fq, phi_images = phi_map(stratum)
    mult = hasse.build_hasse(fq)
    factor = strata.h_prime_of(stratum) * stratum.scale
    n = len(stratum.pq.elements)
    flag_keys = [phi_images[u] * n + phi_images[w] for u, w in zip(fq.sources, fq.targets)]
    order = sorted(range(len(flag_keys)), key=flag_keys.__getitem__)
    flag_mults = [mult[fq.witnesses[c]] * factor for c in order]
    flag_keys = [flag_keys[c] for c in order]
    if flag_keys == keys and flag_mults == mults:
        return ()
    x_edges, flag_edges = dict(zip(keys, mults)), dict(zip(flag_keys, flag_mults))
    mismatches = []
    windows = stratum.pq.elements
    for key in sorted(x_edges.keys() | flag_edges.keys()):
        got, want = x_edges.get(key), flag_edges.get(key)
        if got != want:
            u, w = (weyl.window_str(windows[k]) for k in divmod(key, n))
            mismatches.append(
                "edge %s->%s: diagram mult %s, flag mult (scaled) %s" % (u, w, got, want)
            )
    return tuple(mismatches)


def build_decomposition(fix: Fixture) -> DecomposedDiagram:
    strat = strata.stratify(fix)
    pq, sts, vs = strat.pq, strat.strata, strat.stratum_of
    mult = hasse.build_hasse(pq)
    n = len(pq.elements)
    # one pass over X's edges, the covers of its quotient: each
    # within-stratum edge u -> w into its stratum's keys, as u*n + w, and
    # multiplicities, the keys ascending as the covers are sorted by
    # (u, w); the position of each other edge, in order, into the cross
    # edges
    keys: List[List[int]] = [[] for _ in sts]
    mults: List[List[int]] = [[] for _ in sts]
    cross = []
    for c, (u, w, r) in enumerate(zip(pq.sources, pq.targets, pq.witnesses)):
        si = vs[u]
        if si == vs[w]:
            keys[si].append(u * n + w)
            mults[si].append(mult[r])
        else:
            cross.append(c)
    mismatches = tuple(_compare_stratum(st, keys[si], mults[si]) for si, st in enumerate(sts))
    return DecomposedDiagram(fix, strat, mult, tuple(cross), mismatches)


def decomposition_report(dec: DecomposedDiagram) -> dict:
    """Per-stratum pass/fail report for the flag-diagram identification."""
    return {
        "fixture": dec.fixture.label,
        "strata": [
            {"delta": st.delta, "flag": st.flag.label, "scale": st.scale, "pass": not found}
            for st, found in zip(dec.strat.strata, dec.mismatches)
        ],
        "cross_edges": len(dec.cross_edges),
        "all_pass": dec.witness() is None,
    }


# ---------------------------------------------------------------------------
# emission


def _emit_json(
    fix: Fixture, pq: ParabolicQuotient, mult: Tuple[int, ...], strat: Optional[Stratification]
) -> str:
    vertices = []
    for k, x in enumerate(pq.elements):
        entry = {"window": weyl.window_str(x), "length": pq.lengths[k]}
        if strat is not None:
            entry["stratum"] = strat.stratum_of[k]
        vertices.append(entry)
    edges = []
    for u, w, r in zip(pq.sources, pq.targets, pq.witnesses):
        entry = {"from": u, "to": w, "mult": mult[r]}
        if strat is not None:
            entry["cross"] = strat.stratum_of[u] != strat.stratum_of[w]
        edges.append(entry)
    payload = {"fixture": fix.label, "space": fix.space_label, "vertices": vertices, "edges": edges}
    if strat is not None:
        payload["strata"] = [strata.stratum_json(st) for st in strat.strata]
    return indented(payload) + "\n"


def _emit_dot(
    fix: Fixture, pq: ParabolicQuotient, mult: Tuple[int, ...], strat: Optional[Stratification]
) -> str:
    lines = [
        'digraph "%s" {' % fix.label,
        "  rankdir=LR;",
        "  node [shape=circle, style=filled, fixedsize=true, width=0.25, fontsize=6];",
    ]
    for k, x in enumerate(pq.elements):
        attrs = ['label="%s"' % weyl.window_str(x)]
        if strat is not None:
            si = strat.stratum_of[k]
            attrs.append('class="stratum%d"' % strat.strata[si].delta)
            attrs.append('fillcolor="%s"' % PALETTE[si % len(PALETTE)])
        lines.append("  n%d [%s];" % (k, ", ".join(attrs)))
    for u, w, r in zip(pq.sources, pq.targets, pq.witnesses):
        attrs = ["penwidth=%d" % mult[r]]
        if strat is not None and strat.stratum_of[u] == strat.stratum_of[w]:
            attrs.append('color="%s"' % PALETTE[strat.stratum_of[u] % len(PALETTE)])
        lines.append("  n%d -> n%d [%s];" % (u, w, ", ".join(attrs)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _emit_tikz(
    fix: Fixture, pq: ParabolicQuotient, mult: Tuple[int, ...], strat: Optional[Stratification]
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
        if strat is not None:
            fill = "fill=%s" % colors[strat.stratum_of[k] % len(colors)]
        lines.append("  \\node[%s] (n%d) at (%d, %s) {};" % (fill, k, degree, y))
    for u, w, r in zip(pq.sources, pq.targets, pq.witnesses):
        style = []
        if strat is not None and strat.stratum_of[u] == strat.stratum_of[w]:
            style.append(colors[strat.stratum_of[u] % len(colors)])
        if mult[r] >= 2:
            style.append("double")
        opts = "[%s]" % ",".join(style) if style else ""
        lines.append("  \\draw%s (n%d) -- (n%d);" % (opts, u, w))
    lines.extend(["\\end{tikzpicture}", "\\end{document}"])
    return "\n".join(lines) + "\n"


_EMITTERS = {"dot": _emit_dot, "tikz": _emit_tikz, "json": _emit_json}


def _emit(
    fmt: str,
    fix: Fixture,
    pq: ParabolicQuotient,
    mult: Tuple[int, ...],
    strat: Optional[Stratification] = None,
) -> str:
    if fmt not in _EMITTERS:
        raise ValueError("unknown format %r (expected dot, tikz or json)" % fmt)
    return _EMITTERS[fmt](fix, pq, mult, strat)


def emit(dec: DecomposedDiagram, fmt: str) -> str:
    """Orbit-colored diagram of the decomposition in `fmt` (dot, tikz or json)."""
    return _emit(fmt, dec.fixture, dec.strat.pq, dec.mult, dec.strat)


def emit_plain(fix: Fixture, fmt: str) -> str:
    """Uncolored Hasse diagram of the fixture's space."""
    pq = cosets.build_quotient(fix.rs, fix.j_q)
    return _emit(fmt, fix, pq, hasse.build_hasse(pq))
