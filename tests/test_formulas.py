"""Closed-form genus formulas, bounds, and the classification tables.

Golden values here are recomputed by hand from the closed forms (exact
rational arithmetic), not read back from the implementation.  Two
sources that disagree with a hand evaluation are pinned at the hand
value: grid_lower_bound((3,2,2)) is ceil(1.75) = 2 and
grid_upper_bound((3,2,2)) recurses onto the planar (3,1,1), giving 3.
"""

from fractions import Fraction

import pytest

from latticegenus import (
    FormulaError,
    GenusEstimate,
    Graph,
    InvariantError,
    block_additive_genus,
    block_decomposition,
    classify_abelian,
    classify_cyclic,
    complete_bipartite,
    estimate_grid_genus,
    euler_lower_bound,
    euler_lower_bound_int,
    family_genus,
    genus_complete_bipartite,
    genus_grid_e1_2_2,
    genus_grid_e1_e2_1,
    grid_graph,
    grid_lower_bound,
    grid_upper_bound,
    lattice_for,
    parse_group_spec,
    white_genus,
)


# -------------------------------------------------------- GenusEstimate


def test_estimate_constructors_and_validation():
    exact = GenusEstimate.exactly(2, ["x"])
    assert (exact.lower, exact.upper, exact.exact) == (2, 2, True)
    lower = GenusEstimate.at_least(3, ["y"])
    assert (lower.lower, lower.upper, lower.exact) == (3, None, False)
    with pytest.raises(FormulaError):
        GenusEstimate(-1, None, ("p",))
    with pytest.raises(FormulaError):
        GenusEstimate(3, 2, ("p",))
    # exact is read off the bounds, so no estimate can claim it falsely
    for lo, hi in ((1, 2), (2, 2), (2, None)):
        assert GenusEstimate(lo, hi, ("p",)).exact == (hi == lo)


def test_estimate_merge_tightens():
    a = GenusEstimate.at_least(2, ["lower"])
    b = GenusEstimate(0, 3, ("upper",))
    m = a.merge(b)
    assert (m.lower, m.upper, m.exact) == (2, 3, False)
    e = m.merge(GenusEstimate.exactly(3, ["pin"]))
    assert e.exact and e.lower == 3
    assert set(("lower", "upper", "pin")) <= set(e.provenance)


def test_estimate_merge_rejects_contradiction():
    # two results for one graph that contradict each other are a bug in
    # the library, not bad input
    with pytest.raises(InvariantError):
        GenusEstimate.exactly(1, ["a"]).merge(GenusEstimate.at_least(2, ["b"]))


def test_estimate_json_shape():
    doc = GenusEstimate(1, None, ("a", "b")).to_json_dict()
    assert doc == {"lower": 1, "upper": None, "exact": False, "provenance": ["a", "b"]}


# ------------------------------------------------------------ Euler bound


def test_euler_bound_is_exact_rational():
    assert euler_lower_bound(30, 76) == Fraction(5)
    assert euler_lower_bound(30, 63) == Fraction(7, 4)
    assert euler_lower_bound(20, 44) == Fraction(2)
    assert euler_lower_bound(24, 56) == Fraction(3)
    assert euler_lower_bound_int(30, 63) == 2


@pytest.mark.parametrize("v, e", [(1, 0), (2, 1), (2, 0)])
def test_euler_bound_is_zero_below_three_vertices(v, e):
    # K1 and K2 are planar: with fewer than 3 vertices a face need not
    # have length 4, so the bound does not apply
    assert euler_lower_bound(v, e) == 0
    assert euler_lower_bound_int(v, e) == 0


@pytest.mark.parametrize(
    "text,shape,bound",
    [
        ("Z2xZ2xZ3xZ3", (30, 76), Fraction(5)),
        ("Z4xZ4xZ3", (30, 63), Fraction(7, 4)),
        ("Z2xZ2xZ3xZ5", (20, 44), Fraction(2)),
        ("Z3xZ3xZ2xZ5", (24, 56), Fraction(3)),
    ],
)
def test_euler_eliminations_from_lattices(text, shape, bound):
    lattice = lattice_for(text)
    assert (lattice.vertex_count, lattice.edge_count) == shape
    assert euler_lower_bound(*shape) == bound


# --------------------------------------------------------- grid formulas


def test_e1_e2_1_formula():
    # floor(e1/2) * floor(e2/2)
    assert genus_grid_e1_e2_1(1, 1) == 0
    assert genus_grid_e1_e2_1(2, 2) == 1
    assert genus_grid_e1_e2_1(3, 2) == 1
    assert genus_grid_e1_e2_1(3, 3) == 1
    assert genus_grid_e1_e2_1(9, 3) == 4
    for e1, e2, g in [(4, 2, 2), (4, 3, 2), (5, 2, 2), (5, 3, 2),
                      (6, 2, 3), (6, 3, 3), (7, 2, 3), (7, 3, 3),
                      (8, 2, 4), (8, 3, 4), (9, 2, 4), (9, 3, 4),
                      (4, 4, 4), (5, 4, 4), (5, 5, 4)]:
        assert genus_grid_e1_e2_1(e1, e2) == g


def test_e1_2_2_formula():
    assert genus_grid_e1_2_2(1) == 1
    assert genus_grid_e1_2_2(2) == 2
    assert genus_grid_e1_2_2(3) == 3
    assert genus_grid_e1_2_2(4) == 4


def _hypercube_genus(k):
    # closed form for the k-cube grid (1, ..., 1), independent of white_genus
    return 1 + 2 ** (k - 3) * (k - 4)


def test_n111_and_hypercube():
    assert white_genus((2, 1, 1, 1)) == 2
    assert white_genus((4, 1, 1, 1)) == 4
    assert white_genus((1, 1, 1)) == _hypercube_genus(3) == 0
    assert white_genus((1, 1, 1, 1)) == _hypercube_genus(4) == 1
    assert white_genus((1, 1, 1, 1, 1)) == _hypercube_genus(5) == 5


def test_white_genus_goldens():
    assert white_genus((1, 1, 1)) == 0
    assert white_genus((3, 1, 1)) == 0
    assert white_genus((1, 1, 1, 1)) == 1
    assert white_genus((3, 3, 3)) == 5
    assert white_genus((1, 1, 1, 1, 1)) == 5
    with pytest.raises(FormulaError):
        white_genus((2, 2, 2))  # needs three odd entries
    with pytest.raises(FormulaError):
        white_genus((3, 3))  # needs k >= 3


def test_white_equals_lower_bound_when_applicable():
    odd = [1, 3, 5]
    specs = [(a, b, c) for a in odd for b in odd for c in odd]
    specs += [(a, b, 1, 1) for a in odd for b in odd]
    for spec in specs:
        assert white_genus(spec) == grid_lower_bound(spec)


def test_n111_hypercube_reduce_to_white():
    for n in range(1, 7):
        assert white_genus((n, 1, 1, 1)) == n
    for k in range(3, 8):
        assert white_genus((1,) * k) == _hypercube_genus(k)


@pytest.mark.parametrize(
    "exps",
    [(1, 1), (3, 2), (5, 4), (2, 2, 1), (3, 2, 2), (3, 3, 3), (4, 3, 1),
     (1, 1, 1, 1), (2, 2, 1, 1), (3, 1, 1, 1), (2, 2, 2, 2)],
)
def test_grid_lower_bound_is_euler_on_the_built_grid(exps):
    # V and E counted on the graph itself, not from the closed forms
    g = grid_graph(exps)
    bound = euler_lower_bound_int(g.vertex_count, g.edge_count)
    assert grid_lower_bound(exps) == bound
    if sum(e % 2 for e in exps) >= 3:
        assert white_genus(exps) == bound


def test_grid_lower_bound_goldens():
    assert grid_lower_bound((2, 2, 1, 1)) == 4
    assert grid_lower_bound((1, 1)) == 0
    # 1 + 18*(25/24 - 1) = 1.75, ceiling 2
    assert grid_lower_bound((3, 2, 2)) == 2
    with pytest.raises(FormulaError):
        grid_lower_bound((3,))


def test_grid_upper_bound_recurrence():
    # one even parameter: reduce it to odd
    assert grid_upper_bound((3, 3, 2)) == 4
    # all even: reduce all three; (1,1,1) is planar
    assert grid_upper_bound((2, 2, 2)) == 2
    # two even: (3,2,2) recurses onto planar (3,1,1), then + 16/4 - 1
    assert grid_upper_bound((3, 2, 2)) == 3
    with pytest.raises(FormulaError):
        grid_upper_bound((3, 3, 3))
    with pytest.raises(FormulaError):
        grid_upper_bound((2, 2))


def test_upper_bound_dominates_lower_bound():
    for e1 in range(1, 7):
        for e2 in range(1, e1 + 1):
            for e3 in range(1, e2 + 1):
                if all(e % 2 == 1 for e in (e1, e2, e3)):
                    continue
                assert grid_upper_bound((e1, e2, e3)) >= grid_lower_bound(
                    (e1, e2, e3)
                )


def test_complete_bipartite_genus():
    assert genus_complete_bipartite(3, 3) == 1
    assert genus_complete_bipartite(6, 4) == 2
    assert genus_complete_bipartite(3, 2) == 0
    assert genus_complete_bipartite(4, 4) == 1
    with pytest.raises(FormulaError):
        genus_complete_bipartite(1, 5)


# ------------------------------------------------------- block additivity


def _chain_of_k33(copies: int) -> Graph:
    """K33 copies glued in a path, consecutive copies sharing one vertex."""
    verts: set[str] = set()
    edges = []
    for i in range(copies):
        left = [f"c{i}L{j}" for j in range(3)]
        right = [f"c{i}R{j}" for j in range(3)]
        if i > 0:
            left[0] = f"c{i - 1}R0"  # share a vertex with the previous copy
        verts.update(left + right)
        edges += [(u, v) for u in left for v in right]
    return Graph(verts, edges)


def test_block_additive_genus_bowtie_and_chain():
    for copies, total in [(2, 2), (4, 4)]:
        g = _chain_of_k33(copies)
        blocks = block_decomposition(g)
        assert len(blocks) == copies
        est = block_additive_genus(GenusEstimate.exactly(1, ["k33"]) for _ in blocks)
        assert est.exact and est.lower == total


def test_block_additive_genus_tree_is_zero():
    g = Graph({"a", "b", "c"}, [("a", "b"), ("b", "c")])
    est = block_additive_genus(
        GenusEstimate.exactly(0, ["bridge"]) for _ in block_decomposition(g)
    )
    assert est.exact and est.lower == 0


# -------------------------------------------------------- classification


def test_classify_cyclic_genus_zero():
    for exps in [(1,), (9,), (5, 1), (2, 2), (4, 1, 1), (7, 1, 1)]:
        assert classify_cyclic(exps).label == "Genus0"


def test_classify_cyclic_genus_one_list_verbatim():
    ones = [(2, 2, 1), (3, 2, 1), (3, 3, 1), (1, 1, 1, 1)]
    for exps in ones:
        c = classify_cyclic(exps)
        assert (c.label, c.lower, c.upper) == ("Genus1", 1, 1)
    # order of exponents must not matter
    assert classify_cyclic((1, 2, 3)).label == "Genus1"


def test_classify_cyclic_higher_lists_verbatim():
    lists = {
        2: [(4, 2, 1), (4, 3, 1), (5, 2, 1), (5, 3, 1), (2, 2, 2), (2, 1, 1, 1)],
        3: [(6, 2, 1), (6, 3, 1), (7, 2, 1), (7, 3, 1), (3, 2, 2), (3, 1, 1, 1)],
        4: [(8, 2, 1), (8, 3, 1), (9, 2, 1), (9, 3, 1), (4, 4, 1), (5, 4, 1),
            (5, 5, 1), (4, 2, 2), (3, 3, 2), (4, 1, 1, 1)],
    }
    for genus, tuples in lists.items():
        for exps in tuples:
            c = classify_cyclic(exps)
            assert (c.label, c.lower, c.upper) == (f"Genus{genus}", genus, genus)


def test_classify_cyclic_open_interval_and_tail():
    c = classify_cyclic((2, 2, 1, 1))
    assert (c.label, c.lower, c.upper) == ("Range(4,6)", 4, 6)
    for exps in [(3, 3, 3), (10, 2, 1), (2, 2, 2, 1), (1, 1, 1, 1, 1)]:
        c = classify_cyclic(exps)
        assert c.label == "AtLeast5"
        assert c.lower == 5 and c.upper is None


def test_classify_abelian_goldens():
    cases = {
        "Z8": "Genus0",
        "Z72": "Genus0",
        "Z32xZ2": "Genus0",
        "Z25xZ5": "Genus0",
        "Z4xZ4": "Genus1",
        "Z9xZ9": "Genus1",
        "Z25xZ25": "Genus1",
        "Z8xZ4": "Genus1",
        "Z2xZ2xZ3": "Genus1",
        "Z3xZ3xZ5": "Genus1",
        "Z4xZ2xZ3": "Genus1",
        "Z4xZ2xZ7": "Genus1",
        "Z3xZ3xZ7": "Genus1",
        "Z180": "Genus1",
        "Z49xZ49": "AtLeastTwo",
        "Z8xZ8": "AtLeastTwo",
        "Z16xZ4": "AtLeastTwo",
        "Z2xZ2xZ9": "AtLeastTwo",
        "Z5xZ5xZ2": "AtLeastTwo",
        "Z8xZ2xZ3": "AtLeastTwo",
        "Z2xZ2xZ2": "AtLeastTwo",
        "Z30030": "AtLeastTwo",
    }
    for text, label in cases.items():
        spec = parse_group_spec(text, order_cap=None)
        assert classify_abelian(spec).label == label, text


def test_genus_zero_iff_planar_lattice_small_orders():
    """Dual route: the classification's planar class must coincide with
    an actual planarity test on every abelian group of order <= 50."""
    from itertools import product as iproduct

    def partitions(n):
        if n == 0:
            yield ()
            return
        for first in range(n, 0, -1):
            for rest in partitions(n - first):
                if not rest or first >= rest[0]:
                    yield (first,) + rest

    def factor(n):
        out = {}
        d = 2
        while d * d <= n:
            while n % d == 0:
                out[d] = out.get(d, 0) + 1
                n //= d
            d += 1
        if n > 1:
            out[n] = out.get(n, 0) + 1
        return out

    checked = 0
    for order in range(2, 51):
        fac = factor(order)
        per_prime = [
            [(p, part) for part in partitions(e)] for p, e in sorted(fac.items())
        ]
        for combo in iproduct(*per_prime):
            factors = []
            for p, part in combo:
                factors += [f"Z{p**k}" for k in part]
            text = "x".join(factors)
            spec = parse_group_spec(text)
            planar = __import__("latticegenus").is_planar(lattice_for(spec))
            assert (classify_abelian(spec).label == "Genus0") == planar, text
            checked += 1
    assert checked > 80


# ---------------------------------------------------------- family genus


def test_family_genus_values():
    # each family shape at two primes, and two groups in no family
    cases = {
        "Z4xZ4": GenusEstimate.exactly(1, ["formula:zp2xzp2(p=2)"]),
        "Z49xZ49": GenusEstimate.exactly(2, ["formula:zp2xzp2(p=7)"]),
        "Z8xZ4": GenusEstimate.exactly(1, ["formula:zp3xzp2(p=2)"]),
        "Z27xZ9": GenusEstimate.exactly(2, ["formula:zp3xzp2(p=3)"]),
        "Z7xZ7xZ2": GenusEstimate.exactly(3, ["formula:zpzpzq(p=7,q=2)"]),
        "Z2xZ2xZ3": GenusEstimate.exactly(1, ["formula:zpzpzq(p=2,q=3)"]),
        "Z2xZ2xZ2": GenusEstimate.at_least(2, ["bound:zpzpzp(p=2)"]),
        "Z3xZ3xZ3": GenusEstimate.at_least(7, ["bound:zpzpzp(p=3)"]),
        "Z3xZ3xZ4": GenusEstimate.at_least(2, ["bound:zpzpzq2(p=3,q=2)"]),
        "Z2xZ2xZ9": GenusEstimate.at_least(1, ["bound:zpzpzq2(p=2,q=3)"]),
        "Z8": None,
        "Z4xZ4xZ4": None,
    }
    for text, expected in cases.items():
        assert family_genus(parse_group_spec(text)) == expected, text


# ------------------------------------------------------- grid estimates


def test_estimate_grid_genus_goldens():
    est = estimate_grid_genus((3, 3, 3))
    assert est.exact and est.lower == 5
    est = estimate_grid_genus((1, 1))
    assert est.exact and est.lower == 0
    est = estimate_grid_genus((2, 2, 1, 1))
    assert (est.lower, est.upper, est.exact) == (4, 6, False)
    # dual routes both land on 3: the e1,2,2 closed form and the
    # recurrence upper bound against the rational lower bound
    est = estimate_grid_genus((3, 2, 2))
    assert est.exact and est.lower == 3
    est = estimate_grid_genus((9, 3, 1))
    assert est.exact and est.lower == 4
