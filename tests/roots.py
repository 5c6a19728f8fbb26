"""Test-only oracles for the root-system build and the reflections: the
dense paths that the library replaced.

`rootsys.build` reads each root's doubled pairings from its nonzero
entries against the columns of the doubled coweights, and rebuilds the
root from the simple roots' nonzero entries; `weyl.reflection` reads the
window in closed form from the root's one or two nonzero entries.  Here
each root pairs with every doubled coweight over every coordinate and is
rebuilt as a full vector; `dense_reflection` computes the image of every
e_k as a full vector, and `support_reflection`, the generic path that the
closed form replaced, the image of each e_k on the root's support, then
validates the window.
`weyl.generator_tables` and `cosets.root_tables` are built once per root
system; `fresh_signed_table` fills a signed table one entry at a time.
The root system stores no supports: `supports` reads each root's support
off its coroot coordinates, and `roots_inside` selects a Levi's roots by it.
"""

from functools import lru_cache

from parorbits import rootsys, weyl


def _dense_div(a, b):
    q, r = divmod(a, b)
    assert r == 0, "inexact division %d / %d" % (a, b)
    return q


def _dense_coordinates(simple, dcw, beta):
    coords = tuple(_dense_div(rootsys.pair(beta, c), 2) for c in dcw)
    assert all(c >= 0 for c in coords), "not a positive root"
    rebuilt = tuple(sum(c * a[k] for c, a in zip(coords, simple)) for k in range(len(beta)))
    assert rebuilt == beta, "root outside the span of the simple roots"
    return coords


def dense_build(type_label, rank):
    """Every field of `rootsys.build(type_label, rank)`, as a dict, from
    full pairings and full rebuilds; uncached."""
    rootsys.check_rank(type_label, rank)
    simple = rootsys._simple_roots(type_label, rank)
    dim = len(simple[0])
    coroots = tuple(
        tuple(_dense_div(2 * x, rootsys.pair(a, a)) for x in a) for a in simple
    )
    cartan = tuple(tuple(rootsys.pair(a, c) for c in coroots) for a in simple)
    dcw = rootsys._double_coweights(type_label, rank, dim)
    coords = {
        beta: _dense_coordinates(simple, dcw, beta)
        for beta in rootsys._positive_roots(type_label, dim)
    }
    positive = tuple(sorted(coords, key=lambda beta: (sum(coords[beta]), beta)))
    norms = tuple(rootsys.pair(a, a) for a in simple)
    return {
        "type_label": type_label,
        "rank": rank,
        "dim": dim,
        "simple_roots": simple,
        "simple_coroots": coroots,
        "cartan_matrix": cartan,
        "double_coweights": dcw,
        "positive_roots": positive,
        "coroot_coords": tuple(
            tuple(
                _dense_div(c * norm, rootsys.pair(beta, beta))
                for c, norm in zip(coords[beta], norms)
            )
            for beta in positive
        ),
    }


@lru_cache(maxsize=None)
def supports(rs):
    """Simple-root support of each positive root, as a frozenset of nodes:
    the nonzero positions of its coroot coordinates."""
    return tuple(
        frozenset(i for i, c in enumerate(coords, 1) if c) for coords in rs.coroot_coords
    )


def roots_inside(rs, nodes):
    """Indices of the positive roots supported inside a node set."""
    return tuple(k for k, support in enumerate(supports(rs)) if support <= nodes)


def validate_window(rs, window):
    """Refuse, with WeylError, a window of the wrong length, one that is
    not a signed permutation, one with signs in type A, or one with an odd
    number of signs in type D."""
    d = rs.dim
    if len(window) != d:
        raise weyl.WeylError(
            "window %s has length %d, expected %d" % (weyl.window_str(window), len(window), d)
        )
    if sorted(window.translate(weyl._ABS)) != list(range(weyl.OFFSET + 1, weyl.OFFSET + d + 1)):
        raise weyl.WeylError(
            "window %s is not a signed permutation of 1..%d" % (weyl.window_str(window), d)
        )
    negatives = sum(y < weyl.OFFSET for y in window)
    if rs.type_label == "A" and negatives:
        raise weyl.WeylError("type A windows carry no signs: %s" % weyl.window_str(window))
    if rs.type_label == "D" and negatives % 2:
        raise weyl.WeylError(
            "type D windows need an even number of signs: %s" % weyl.window_str(window)
        )


def support_reflection(rs, root):
    """The window of the reflection in `root`, validated, by the generic
    path: s(e_k) = e_k - <e_k, root^vee> root for each k on the root's
    support, each image required to be a signed unit vector, then
    `validate_window`.  A vector of the wrong dimension, or zero, is
    refused before any arithmetic."""
    if len(root) != rs.dim:
        raise weyl.WeylError("vector %s has dimension %d, expected %d" % (root, len(root), rs.dim))
    norm = sum(y * y for y in root)
    if not norm:
        raise weyl.WeylError("the zero vector has no reflection")
    if any(2 * x % norm for x in root):
        raise weyl.WeylError("%s has no integral coroot" % (root,))
    support = [t for t, x in enumerate(root) if x]
    window = list(range(1, rs.dim + 1))
    for k in support:
        c = 2 * root[k] // norm
        hits = [(t, x) for t in support if (x := (t == k) - c * root[t])]
        if len(hits) != 1 or abs(hits[0][1]) != 1:
            raise weyl.WeylError("root %s does not act by signed permutation" % (root,))
        t, x = hits[0]
        window[k] = t + 1 if x > 0 else -(t + 1)
    out = weyl.encode(window, rs.dim)
    validate_window(rs, out)
    return out


def dense_reflection(rs, root):
    """Window of the reflection in `root`: the image of every e_k computed
    as a full vector, e_k - <e_k, root^vee> root, and read as a signed
    unit vector."""
    norm = sum(y * y for y in root)
    coroot = tuple(_dense_div(2 * x, norm) for x in root)
    window = []
    for k in range(rs.dim):
        image = [-coroot[k] * root[t] for t in range(rs.dim)]
        image[k] += 1
        hits = [(t, x) for t, x in enumerate(image) if x != 0]
        assert len(hits) == 1 and abs(hits[0][1]) == 1, root
        t, x = hits[0]
        window.append(t + 1 if x > 0 else -(t + 1))
    return tuple(window)


def control_errors(type_label, rank):
    """Build the root system uncached under each of two negative controls
    in turn and return, per control, the RootSystemError message, or None
    where the build passed.  The first moves the first entry of the first
    doubled coweight by 2; the second appends e_1 + 2 e_2 to the positive
    roots, a vector outside the span of the roots in type A and inside it,
    but not a root, in B, C and D.  Each helper is restored afterwards."""
    real_dcw, real_roots = rootsys._double_coweights, rootsys._positive_roots

    def perturbed(*args):
        first, *rest = real_dcw(*args)
        return ((first[0] + 2,) + first[1:], *rest)

    def extra(type_label, dim):
        yield from real_roots(type_label, dim)
        yield (1, 2) + (0,) * (dim - 2)

    out = []
    for name, replacement in (("_double_coweights", perturbed), ("_positive_roots", extra)):
        real = getattr(rootsys, name)
        setattr(rootsys, name, replacement)
        try:
            rootsys.build.__wrapped__(type_label, rank)
            out.append(None)
        except rootsys.RootSystemError as exc:
            out.append(str(exc))
        finally:
            setattr(rootsys, name, real)
    return out


def classical_systems():
    """A1-A8, B2-B8, C2-C8 and D4-D8."""
    return [rootsys.build(t, n) for t in "ABCD" for n in range(rootsys.RANK_BOUNDS[t], 9)]


def fresh_signed_table(v):
    """The translation table of the vector or tuple window v: byte b + 128
    holds sign(b) * v[|b| - 1] + 128 for b in +/-1..+/-d, and every other
    byte maps to itself, filled one entry at a time."""
    t = list(range(256))
    for b, x in enumerate(v, 1):
        t[weyl.OFFSET + b], t[weyl.OFFSET - b] = weyl.OFFSET + x, weyl.OFFSET - x
    return bytes(t)
