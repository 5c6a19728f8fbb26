"""Test-only oracles for the root-system build and the reflections: the
dense paths and the generic loop that the library replaced.

`rootsys.build` certifies the simple data and fills the positive roots,
on first read, from the root families, each root's coordinates read off
its pairings.  Here `dense_build` pairs each root of the ambient
realization (`ambient_roots`) with every doubled coweight over every
coordinate and rebuilds it as a full vector, and `loop_roots`, the
generic per-root loop, reads each root's pairings from its nonzero
entries and rebuilds it from the simple roots' nonzero entries.
`dense_reflection` computes the image
of every e_k as a full vector, and `support_reflection`, the generic path
that `weyl.reflection`'s closed form replaced, the image of each e_k on
the root's support, then validates the window.
`weyl.generator_tables`, each simple reflection with its simple root, and
`cosets.root_index` are built once per root system; `fresh_signed_table`
fills a signed table one entry at a time.
The root system stores no supports: `supports` reads each root's support
off its coroot coordinates, and `roots_inside` selects a Levi's roots by it.
"""

from functools import lru_cache

from parorbits import rootsys, weyl


def _dense_div(a, b):
    q, r = divmod(a, b)
    assert r == 0, "inexact division %d / %d" % (a, b)
    return q


def _unit(dim, k, value=1):
    return tuple(value if t == k else 0 for t in range(dim))


def simple_roots(type_label, rank):
    """The simple roots of the Bourbaki realization, as full vectors."""
    n = rank
    dim = n + 1 if type_label == "A" else n
    chain = [
        tuple(1 if k == i else -1 if k == i + 1 else 0 for k in range(dim))
        for i in range(dim - 1)
    ]
    if type_label == "A":
        return tuple(chain)
    if type_label == "B":
        last = _unit(n, n - 1, 1)
    elif type_label == "C":
        last = _unit(n, n - 1, 2)
    else:  # D
        last = tuple(1 if k >= n - 2 else 0 for k in range(n))
    return tuple(chain + [last])


def ambient_roots(type_label, dim):
    """Positive roots of the fixed classical realization, unsorted."""
    signs = (-1,) if type_label == "A" else (-1, 1)
    for i in range(dim):
        for j in range(i + 1, dim):
            for sj in signs:
                v = [0] * dim
                v[i], v[j] = 1, sj
                yield tuple(v)
    if type_label in ("B", "C"):
        for i in range(dim):
            yield _unit(dim, i, 1 if type_label == "B" else 2)


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
    simple = simple_roots(type_label, rank)
    dim = len(simple[0])
    coroots = tuple(
        tuple(_dense_div(2 * x, rootsys.pair(a, a)) for x in a) for a in simple
    )
    dcw = rootsys._double_coweights(type_label, rank, dim)
    coords = {
        beta: _dense_coordinates(simple, dcw, beta)
        for beta in ambient_roots(type_label, dim)
    }
    positive = tuple(sorted(coords, key=lambda beta: (sum(coords[beta]), beta)))
    norms = tuple(rootsys.pair(a, a) for a in simple)
    return {
        "type_label": type_label,
        "rank": rank,
        "dim": dim,
        "simple_roots": simple,
        "simple_coroots": coroots,
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


def loop_roots(type_label, rank):
    """(positive roots, coroot coordinates) by the generic per-root loop:
    each root of `ambient_roots` pairs with the doubled coweights through
    its (at most two) nonzero entries, and one pass over the pairings
    halves and checks them, rebuilds the root from the simple roots'
    nonzero entries, and reads its height and coroot coordinates, as
    beta^vee = sum_i c_i (|alpha_i|^2 / |beta|^2) alpha_i^vee; sorted by
    (height, root); uncached."""
    simple = simple_roots(type_label, rank)
    dim = len(simple[0])
    # columns[k] holds coordinate k of every doubled coweight, and
    # entries[i] the nonzero entries (k, alpha_i[k]) of simple root i
    columns = tuple(zip(*rootsys._double_coweights(type_label, rank, dim)))
    entries = tuple(tuple((k, x) for k, x in enumerate(a) if x) for a in simple)
    norms = tuple(rootsys.pair(a, a) for a in simple)
    found = []
    for beta in ambient_roots(type_label, dim):
        twice = None
        for x, column in zip(beta, columns):
            if x:
                scaled = [x * c for c in column]
                twice = scaled if twice is None else [t + c for t, c in zip(twice, scaled)]
        square = rootsys.pair(beta, beta)
        height, rebuilt, coroot = 0, [0] * dim, []
        for t, alpha, norm in zip(twice, entries, norms):
            assert t % 2 == 0 and t >= 0, beta
            c = t // 2
            height += c
            for k, a in alpha:
                rebuilt[k] += c * a
            coroot.append(_dense_div(c * norm, square))
        assert tuple(rebuilt) == beta, beta
        found.append((height, beta, tuple(coroot)))
    found.sort()
    return tuple(r[1] for r in found), tuple(r[2] for r in found)


def roots_filled(rs):
    """Whether `rs` has filled its positive roots, read off the slot
    itself, so that asking does not fill them."""
    try:
        rootsys.RootSystem.positive_roots.__get__(rs)
    except AttributeError:
        return False
    return True


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
    in turn, read its roots, and return, per control, the RootSystemError
    message, or None where build and read passed.  The first moves the
    first entry of the first doubled coweight by 2, which the build's
    duality check refuses; the second doubles the entries of the first
    root, 2 e_1 - 2 e_2, whose coroot coordinate d_1 = 2 * 2 / 8 its first
    read refuses as inexact.  Each helper is restored afterwards."""
    real_dcw, real_entries = rootsys._double_coweights, rootsys._root_entries

    def perturbed(*args):
        first, *rest = real_dcw(*args)
        return ((first[0] + 2,) + first[1:], *rest)

    def doubled(*args):
        entries = real_entries(*args)
        yield tuple((k, 2 * x) for k, x in next(entries))
        yield from entries

    out = []
    for name, replacement in (("_double_coweights", perturbed), ("_root_entries", doubled)):
        real = getattr(rootsys, name)
        setattr(rootsys, name, replacement)
        try:
            rootsys.build.__wrapped__(type_label, rank).positive_roots
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
