"""Test-only oracles for the left-action table: the all-roots cover loop,
the reflection images it reads, and the compose-based orbit closure.

`cosets.build_quotient` reads a quotient's covers off its left-action
table by du Cloux's coatom recursion, and `cosets.double_cosets` closes
each W_P-orbit by reading the same table.  These are the paths they
replaced: every element tries every root of Phi_L^+ minus Phi_Q^+ by a
swap of two window positions, and every orbit is closed by window
products looked up in the quotient's index.  A quotient holds its covers
as three columns; `cover_triples` and `with_covers` read and replace them
as (source, target, witness) triples.
"""

from parorbits import weyl

from roots import roots_inside
from windows import dec, enc


def reflection_image(root):
    """Map from the tuple window of u to the window of u * s_root, or to
    None when u sends the positive root `root` to a negative root.  Right
    multiplication by s_beta swaps positions i and j for e_i - e_j, swaps
    and negates them for e_i + e_j, and negates position i for e_i (or
    2 e_i).  With y = c b_j, where c = -1 for e_i + e_j and +1 for
    e_i - e_j, the new entries are y at i and c b_i at j, and u inverts the
    root iff key(b_i) > key(y).  The root e_i is the case j = i, c = -1:
    key(b_i) > key(-b_i) iff b_i < 0."""
    support = [k for k, x in enumerate(root) if x]
    if not 1 <= len(support) <= 2 or root[support[0]] <= 0:
        raise weyl.WeylError("%s is not a positive root" % (root,))
    i, j = support[0], support[-1]
    c = -root[j] if j > i else -1
    m = 2 * len(root) + 1

    def image(b):
        y = c * b[j]
        if b[i] % m > y % m:
            return None
        x = list(b)
        x[i], x[j] = y, c * b[i]
        return tuple(x)

    return image


def cover_triples(pq):
    """The covers of a quotient as (source, target, witness) triples, in
    the order of its columns."""
    return tuple(zip(pq.sources, pq.targets, pq.witnesses))


def with_covers(pq, triples):
    """The quotient with its cover columns read from (source, target,
    witness) `triples`: the way a test damages or drops a cover."""
    sources, targets, witnesses = map(tuple, zip(*triples)) if triples else ((), (), ())
    return pq._replace(sources=sources, targets=targets, witnesses=witnesses)


def all_roots_covers(pq):
    """Covers of the quotient as sorted (source, target, witness)
    triples: u -> u * s_beta for every element u and every beta in
    Phi_L^+ minus Phi_Q^+ that u does not invert, kept when u * s_beta is
    in the quotient and one longer than u."""
    rs = pq.rs
    lengths = pq.lengths
    q_roots = set(roots_inside(rs, pq.j_q))
    candidates = [
        (r, reflection_image(rs.positive_roots[r]))
        for r in roots_inside(rs, pq.nodes)
        if r not in q_roots
    ]
    covers = []
    for u, window in enumerate(map(dec, pq.elements)):
        for r, image in candidates:
            x = image(window)
            if x is None:
                continue
            w = pq.index.get(enc(x))
            if w is not None and lengths[w] == lengths[u] + 1:
                covers.append((u, w, r))
    return tuple(sorted(covers))


def compose_closure(pq, j_p):
    """Orbits of W_P on the quotient as sorted member tuples, in order of
    their least member: close each under the window products s_p * w, an
    index miss meaning s_p * w lies in the coset of w (Deodhar's lemma)."""
    gens = [weyl.simple_reflection(pq.rs, p) for p in sorted(j_p)]
    assigned = [False] * len(pq.elements)
    orbits = []
    for start in range(len(pq.elements)):
        if assigned[start]:
            continue
        assigned[start] = True
        orbit, stack = [start], [start]
        while stack:
            k = stack.pop()
            for s in gens:
                m = pq.index.get(weyl.multiply(s, pq.elements[k]), k)
                if not assigned[m]:
                    assigned[m] = True
                    orbit.append(m)
                    stack.append(m)
        orbits.append(tuple(sorted(orbit)))
    return orbits
