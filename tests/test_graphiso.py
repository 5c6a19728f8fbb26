from graphiso import ColoredGraph, isomorphic


def _chain(mults, colors):
    vertices = tuple((k, c) for k, c in enumerate(colors))
    edges = tuple((k, k + 1, m) for k, m in enumerate(mults))
    return ColoredGraph(vertices, edges)


def test_chain_isomorphism():
    a = _chain([1, 2, 1], [0, 0, 1, 1])
    b = _chain([1, 2, 1], [0, 0, 1, 1])
    assert isomorphic(a, b)
    assert not isomorphic(a, _chain([1, 1, 2], [0, 0, 1, 1]))
    assert not isomorphic(a, _chain([1, 2, 1], [0, 1, 1, 1]))


def test_vertex_relabeling_invariance():
    # same diamond with the two middle vertices swapped
    verts = ((0, 0), (1, 0), (1, 0), (2, 0))
    a = ColoredGraph(verts, ((0, 1, 1), (0, 2, 2), (1, 3, 2), (2, 3, 1)))
    b = ColoredGraph(verts, ((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2)))
    assert isomorphic(a, b)
    c = ColoredGraph(verts, ((0, 1, 2), (0, 2, 1), (1, 3, 2), (2, 3, 1)))
    assert not isomorphic(a, c)


def test_cross_multiplicity_relaxation():
    verts = ((0, 0), (1, 1))
    a = ColoredGraph(verts, ((0, 1, 2),))
    b = ColoredGraph(verts, ((0, 1, 1),))
    assert not isomorphic(a, b, cross_mult_exact=True)
    assert isomorphic(a, b, cross_mult_exact=False)
    # within-color multiplicities stay exact under the relaxation
    verts2 = ((0, 0), (1, 0))
    a2 = ColoredGraph(verts2, ((0, 1, 2),))
    b2 = ColoredGraph(verts2, ((0, 1, 1),))
    assert not isomorphic(a2, b2, cross_mult_exact=False)


def test_from_json():
    g = ColoredGraph.from_json(
        {
            "vertices": [{"degree": 0, "stratum": 0}, {"degree": 1, "stratum": 0}],
            "edges": [{"from": 0, "to": 1, "mult": 2}],
        }
    )
    assert g.vertices == ((0, 0), (1, 0))
    assert g.edges == ((0, 1, 2),)
