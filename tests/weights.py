"""Test-only oracles for `hasse.build_hasse` and `strata.h_prime_of`: the
weighted diagram build and the h' weight as a dict.

`hasse.build_hasse` reads a quotient alone, with weight 1 on each node
outside Delta(Q), and `decomp` scales a flag diagram by the integer
`h_prime_of(st) * st.scale`.  These are the paths they replaced: a build
that takes any weight {node: coefficient}, refuses one whose support is
not the node set less Delta(Q), and sums one coroot column per node times
its coefficient; and h' as a weight on the flag's marked nodes.
"""

from parorbits import rootsys

from roots import supports


def weighted_mult(pq, weight):
    """<lambda, beta^vee> for every positive root, lambda = `weight`: one
    coroot column per node, times its coefficient.  The weight's support
    must be the node set less Delta(Q), or ValueError names both."""
    support = {n for n, c in weight.items() if c}
    outside = pq.nodes - pq.j_q
    if support != outside:
        raise ValueError(
            "weight support %s is not the node set less Delta(Q), %s"
            % (sorted(support), sorted(outside))
        )
    coords = pq.rs.coroot_coords
    mult = [0] * len(coords)
    for n, c in sorted(weight.items()):
        mult = [m + c * x[n - 1] for m, x in zip(mult, coords)]
    return tuple(mult)


def h_prime_weight(stratum):
    """h' on the stratum's flag as a weight: 1 on each marked ambient node,
    or 2 on each on the Lagrangian Grassmannian (type C, q_node = rank)."""
    fix = stratum.fixture
    lagrangian = fix.type_label == "C" and fix.q_node == fix.rank
    return dict.fromkeys(stratum.flag.marked_ambient, 2 if lagrangian else 1)


def q_degree_by_fixture(fix):
    """`seidel.quantum_q_degree` as it was read per fixture: the pairing of
    each positive root outside Phi_Q, by support against J_Q, with
    alpha_q^vee."""
    rs = fix.rs
    total = 0
    for beta, support in zip(rs.positive_roots, supports(rs)):
        if support <= fix.j_q:
            continue
        total += rootsys.pair(beta, rs.simple_coroot(fix.q_node))
    return total
