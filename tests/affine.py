"""Test-only certificate of the Seidel table: the affine symmetry.

The Seidel element v = v_p of the acting node p induces an automorphism
sigma of the extended Dynkin diagram: v s_k v^-1 = s_sigma(k) for every
node k other than p, and v s_p v^-1 is the reflection in the highest
root, node 0 (Iwahori-Matsumoto; Bourbaki, Lie VI 2; Chaput-Manivel-
Perrin, "Affine symmetries of the equivariant quantum cohomology ring of
rational homogeneous spaces", Math. Res. Lett. 16, 2009).  On the classes
of X, with perm the Seidel table and left X's left-action rows, it reads

    perm[left[k][i]] == left[sigma(k)][perm[i]]   for every class i, k != p.

`seidel.seidel_table` reads no left row, so this law is what ties the
table back to the rows.  `sigma` is read by conjugating each simple
reflection with v, not from a table of diagram automorphisms, and
`law_holds` checks the law on given rows and table, so that a test can
hand it corrupted ones.
"""

from parorbits import weyl

from windows import inverse


def sigma(rs, v, p):
    """sigma on the nodes other than p: v s_k v^-1 = s_sigma(k), found
    among the simple reflections, or KeyError when it is not one."""
    simple = {weyl.simple_reflection(rs, k): k for k in rs.nodes}
    vinv = inverse(v)
    return {
        k: simple[weyl.multiply(weyl.multiply(v, weyl.simple_reflection(rs, k)), vinv)]
        for k in rs.nodes
        if k != p
    }


def law_holds(left, perm, sigma):
    """Whether perm[left[k][i]] == left[sigma(k)][perm[i]] for every class
    i and every node k that sigma maps."""
    return all(
        perm[j] == left[t][c] for k, t in sigma.items() for j, c in zip(left[k], perm)
    )
