"""Group parsing and subgroup enumeration against independent oracles.

Two oracles back the enumerator: an all-subsets filter that tries every
element subset of a tiny group, and a pairwise-join fixpoint over
cyclic subgroups for mid-sized groups.  Both are written here from
scratch, without reusing the package's enumeration code.  Larger groups
are checked against closed-form subgroup counts.
"""

import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegenus import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupSpec,
    build_lattice,
    enumerate_subgroups,
    grid_graph,
    is_isomorphic,
    lattice_for,
    parse_group_spec,
)
from latticegenus.groups import _is_prime, _prime_power_split


# ------------------------------------------------------------- oracles


def _elements(moduli):
    return list(itertools.product(*(range(m) for m in moduli)))


def _add(moduli, a, b):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def oracle_all_subsets(moduli):
    """Every addition-closed subset containing zero; tiny groups only."""
    zero = tuple(0 for _ in moduli)
    others = [e for e in _elements(moduli) if e != zero]
    subs = set()
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            cand = frozenset(combo) | {zero}
            if all(_add(moduli, a, b) in cand for a in cand for b in cand):
                subs.add(cand)
    return subs


def _cyclic_closure(moduli, gen):
    zero = tuple(0 for _ in moduli)
    out = {zero}
    cur = gen
    while cur != zero:
        out.add(cur)
        cur = _add(moduli, cur, gen)
    return frozenset(out)


def oracle_pair_join(moduli):
    """Fixpoint of pairwise sums of known subgroups, seeded with every
    cyclic subgroup.  Joins here are computed as full sumsets."""
    subs = {_cyclic_closure(moduli, g) for g in _elements(moduli)}
    changed = True
    while changed:
        changed = False
        for a, b in list(itertools.combinations(subs, 2)):
            sumset = frozenset(_add(moduli, x, y) for x in a for y in b)
            if sumset not in subs:
                subs.add(sumset)
                changed = True
    return subs


def _element_sets(spec_text):
    subs = enumerate_subgroups(parse_group_spec(spec_text))
    return {sub.elements for sub in subs.subgroups}


@pytest.mark.parametrize(
    "text", ["Z4", "Z2xZ2", "Z6", "Z8", "Z4xZ2", "Z2xZ2xZ2", "Z12", "Z2xZ2xZ3"]
)
def test_enumeration_matches_all_subsets_oracle(text):
    spec = parse_group_spec(text)
    assert _element_sets(text) == oracle_all_subsets(spec.moduli)


@pytest.mark.parametrize(
    "text",
    [
        "Z4xZ4",
        "Z2xZ2xZ2xZ2",
        "Z8xZ4",
        "Z9xZ3",
        "Z27",
        "Z16xZ4",
        "Z8xZ8",
        "Z2xZ2xZ9",
        "Z3xZ3xZ4",
        "Z25xZ5",
        "Z60",
    ],
)
def test_enumeration_matches_pair_join_oracle(text):
    spec = parse_group_spec(text)
    assert _element_sets(text) == oracle_pair_join(spec.moduli)


# -------------------------------------------------- closed-form counts


def _gaussian_binomial(n, k, q):
    """The number of k-dimensional subspaces of GF(q)^n: each partial
    product is itself a Gaussian binomial, so every division is exact."""
    out = 1
    for i in range(k):
        out = out * (q ** (n - i) - 1) // (q ** (i + 1) - 1)
    return out


def _divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


@pytest.mark.parametrize(
    "p, n, total, edges",
    [
        pytest.param(3, 4, 212, 1120, id="3-4-212"),
        pytest.param(5, 3, 64, 248, id="5-3-64"),
        pytest.param(2, 7, 29212, 358775, id="2-7-29212"),
    ],
)
def test_elementary_abelian_census_is_gaussian_binomials(p, n, total, edges):
    # a subgroup of Z_p^n of order p^k is a k-dimensional subspace
    want = {p**k: _gaussian_binomial(n, k, p) for k in range(n + 1)}
    assert sum(want.values()) == total
    # Z2^7 has more subgroups than the default cap
    subs = enumerate_subgroups(parse_group_spec("x".join([f"Z{p}"] * n)), order_cap=None)
    assert subs.census() == want
    # a k-dimensional subspace lies in G(n - k, 1)_p subspaces of one
    # dimension more
    covers = sum(_gaussian_binomial(n, k, p) * _gaussian_binomial(n - k, 1, p) for k in range(n))
    assert covers == edges
    assert build_lattice(subs).edge_count == edges


@pytest.mark.parametrize(
    "m, n, total",
    [(8, 8, 37), (27, 27, 76), (169, 169, 213), (16, 4, None), (12, 18, None)],
)
def test_rank_two_totals_follow_hampejs(m, n, total):
    # Hampejs, Holighaus, Toth and Wiesmeyr (2014): Z_m x Z_n has
    # sum over a | m, b | n of gcd(a, b) subgroups
    want = sum(math.gcd(a, b) for a in _divisors(m) for b in _divisors(n))
    assert total in (None, want)
    subs = enumerate_subgroups(parse_group_spec(f"Z{m}xZ{n}", order_cap=None), None)
    assert len(subs.subgroups) == want


@pytest.mark.parametrize(
    "text", ["Z3xZ3xZ3xZ3", "Z5xZ5xZ5", "Z2xZ2xZ2xZ2xZ2xZ2", "Z27xZ9", "Z8xZ4xZ2xZ3"]
)
def test_every_subgroup_is_closed_and_listed_once(text):
    spec = parse_group_spec(text)
    zero = tuple(0 for _ in spec.moduli)
    subs = enumerate_subgroups(spec).subgroups
    assert len({sub.elements for sub in subs}) == len(subs)
    for sub in subs:
        elems = sub.elements
        assert zero in elems
        assert all(_add(spec.moduli, a, b) in elems for a in elems for b in elems)


# ------------------------------------------------------------- parsing


def _factor_by_every_divisor(n):
    out, d = [], 2
    while n > 1:
        k = 0
        while n % d == 0:
            n //= d
            k += 1
        if k:
            out.append((d, k))
        d += 1
    return out


def _is_prime_by_every_divisor(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_prime_power_split_equals_brute_force():
    for n in range(2, 5001):
        assert _prime_power_split(n) == _factor_by_every_divisor(n), n
    near = [999953, 999959, 999983, 1000003, 1000033, 1000039]
    assert all(_is_prime_by_every_divisor(p) for p in near)
    for p, q in itertools.combinations_with_replacement(near, 2):
        want = [(p, 2)] if p == q else [(p, 1), (q, 1)]
        assert _prime_power_split(p * q) == want


def test_is_prime_equals_a_sieve():
    n = 10**5
    sieve = bytearray([0, 0]) + bytearray([1]) * (n - 1)
    for d in range(2, math.isqrt(n) + 1):
        if sieve[d]:
            sieve[d * d :: d] = bytearray(len(range(d * d, n + 1, d)))
    assert [k for k in range(n + 1) if _is_prime(k)] == [
        k for k in range(n + 1) if sieve[k]
    ]
    # a Carmichael number, a strong pseudoprime to bases 2, 3, 5 and 7,
    # and a 13-digit prime
    assert not _is_prime(561)
    assert not _is_prime(3215031751)
    assert 3215031751 == 151 * 751 * 28351
    assert _is_prime(1000000000039)
    assert _is_prime_by_every_divisor(1000000000039)


def test_prime_power_split_gives_up_past_the_trial_bound():
    # 1999993 is the last prime below the bound, 2000003 the first above
    assert _prime_power_split(1999993 * 2000003) == [(1999993, 1), (2000003, 1)]
    with pytest.raises(GroupError, match="no divisor found up to 2000000"):
        _prime_power_split(2000003**2)


def test_parse_canonicalizes_composite_factors():
    spec = parse_group_spec("Z72")
    assert spec.name() == "Z9xZ8"
    assert spec.order == 72
    assert parse_group_spec("Z12xZ2").name() == "Z3xZ4xZ2"


def test_parse_prime_pattern():
    assert parse_group_spec("Z8xZ2xZ3").prime_pattern() == {2: (3, 1), 3: (1,)}
    assert parse_group_spec("Z30").prime_pattern() == {2: (1,), 3: (1,), 5: (1,)}


@pytest.mark.parametrize("bad", ["", "Z", "Z1", "Zx", "Z4x", "K4", "Z-8", "Z4yZ4"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(GroupError):
        parse_group_spec(bad)


@pytest.mark.parametrize(
    "factors",
    [(), ((4, 1),), ((1, 2),), ((3, 0),), ((3,),), ((3, 1.0),)],
    ids=["empty", "composite-base", "unit-base", "zero-exponent", "not-a-pair",
         "not-integers"],
)
def test_spec_rejects_bad_factors(factors):
    with pytest.raises(GroupError):
        GroupSpec(factors)


_SPEC_TEXTS = st.one_of(
    st.text(max_size=12),
    st.text(alphabet="Zx0123456789 ,-\u00b2", max_size=12),
    # factors past the digit limit of int() on str
    st.integers(4301, 6000).map(lambda n: "Z" + "1" * n),
    # orders past that limit built from factors below it
    st.builds(
        lambda a, b: f"Z{2**a}xZ{3**b}", st.integers(1, 14000), st.integers(1, 9000)
    ),
)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(text=_SPEC_TEXTS)
def test_every_string_parses_or_raises_group_error(text):
    try:
        spec = parse_group_spec(text)
    except GroupError:
        return
    assert spec.order <= DEFAULT_ORDER_CAP


def test_parse_order_cap():
    with pytest.raises(GroupError):
        parse_group_spec("Z8192")
    assert parse_group_spec("Z8192", order_cap=None).order == 8192
    assert parse_group_spec(f"Z{DEFAULT_ORDER_CAP}").order == DEFAULT_ORDER_CAP


@pytest.mark.parametrize(
    "text, count",
    [("Z2xZ2xZ2xZ2xZ2xZ2", 2825), ("Z2xZ2xZ2xZ2xZ3", 67 * 2)],
    ids=["one-part", "product-of-parts"],
)
def test_order_cap_bounds_the_subgroup_count(text, count):
    # Z2^4 x Z3 has parts of 67 and 2 subgroups, so only the product
    # of the part counts passes its cap
    spec = parse_group_spec(text)
    assert len(enumerate_subgroups(spec, order_cap=count).subgroups) == count
    with pytest.raises(GroupError, match=f"subgroup count exceeds cap {count - 1}"):
        enumerate_subgroups(spec, order_cap=count - 1)


def test_classification_needs_no_cap():
    spec = parse_group_spec("Z30030", order_cap=None)
    assert spec.is_cyclic
    assert spec.exponents == (1, 1, 1, 1, 1, 1)


# ------------------------------------------------------- censuses, labels


# censuses frozen from the oracle runs above plus rank-2 p-group counts
# recomputed by hand (1 + (p+1) + ... columns of the divisor diamond)
_CENSUS = {
    "Z4xZ4": {1: 1, 2: 3, 4: 7, 8: 3, 16: 1},
    "Z8": {1: 1, 2: 1, 4: 1, 8: 1},
    "Z72": {1: 1, 2: 1, 3: 1, 4: 1, 6: 1, 8: 1, 9: 1, 12: 1, 18: 1, 24: 1, 36: 1, 72: 1},
    "Z25xZ25": {1: 1, 5: 6, 25: 31, 125: 6, 625: 1},
    "Z2xZ2xZ3": {1: 1, 2: 3, 3: 1, 4: 1, 6: 3, 12: 1},
    "Z9xZ9": {1: 1, 3: 4, 9: 13, 27: 4, 81: 1},
    "Z16xZ4": {1: 1, 2: 3, 4: 7, 8: 7, 16: 7, 32: 3, 64: 1},
}


@pytest.mark.parametrize("text,expected", sorted(_CENSUS.items()))
def test_frozen_censuses(text, expected):
    subs = enumerate_subgroups(parse_group_spec(text))
    assert subs.census() == expected


def test_labels_stable_and_ordered():
    subs = enumerate_subgroups(parse_group_spec("Z4xZ4"))
    labels = subs.labels()
    assert labels[0] == "S1#0"
    assert labels[-1] == "S16#0"
    assert labels.count("S2#0") == 1
    assert [l for l in labels if l.startswith("S2#")] == ["S2#0", "S2#1", "S2#2"]
    # labels enumerate subgroups in (order, element-list) order
    assert list(labels) == sorted(labels, key=lambda s: (int(s[1:].split("#")[0]), s))


def test_json_round_trip_shape():
    subs = enumerate_subgroups(parse_group_spec("Z6"))
    doc = subs.to_json_dict()
    assert doc["group"] == "Z3xZ2"
    assert [s["order"] for s in doc["subgroups"]] == [1, 2, 3, 6]
    assert doc["subgroups"][0]["elements"] == [[0, 0]]


# -------------------------------------------------------------- lattices


def test_lattice_edges_are_covering_pairs():
    subs = enumerate_subgroups(parse_group_spec("Z8xZ4"))
    lattice = build_lattice(subs)
    by_label = dict(zip(subs.labels(), subs.subgroups))
    for u, v in lattice.edges:
        a, b = by_label[u].elements, by_label[v].elements
        small, large = (a, b) if len(a) < len(b) else (b, a)
        assert small < large
        # nothing strictly between
        for other in subs.subgroups:
            assert not (small < other.elements < large)


def test_lattice_no_skip_inclusions():
    subs = enumerate_subgroups(parse_group_spec("Z4xZ2"))
    lattice = build_lattice(subs)
    by_label = dict(zip(subs.labels(), subs.subgroups))
    for u in lattice.vertices:
        for v in lattice.vertices:
            a, b = by_label[u].elements, by_label[v].elements
            if a < b and not any(a < c.elements < b for c in subs.subgroups):
                assert lattice.has_edge(u, v)


_LATTICE_SHAPES = {
    "Z8": (4, 3),
    "Z72": (12, 17),
    "Z4xZ4": (15, 24),
    "Z2xZ2xZ3": (10, 17),
    "Z2xZ2xZ3xZ3": (30, 76),
    "Z25xZ25": (45, 84),
    "Z1080": (32, 64),
    # rank <= 2 two-groups: E = #cyclic(nontrivial) + 3 * #rank-2, with
    # cyclic counts from element orders: Z16xZ4 gives 17 + 3*11, Z8xZ8
    # gives 21 + 3*15
    "Z16xZ4": (29, 50),
    "Z8xZ8": (37, 66),
    "Z3xZ3xZ4": (18, 36),
}


@pytest.mark.parametrize("text,shape", sorted(_LATTICE_SHAPES.items()))
def test_frozen_lattice_shapes(text, shape):
    lattice = lattice_for(text)
    assert (lattice.vertex_count, lattice.edge_count) == shape


@pytest.mark.parametrize(
    "text",
    [
        "Z8",
        "Z12",
        "Z30",
        "Z60",
        "Z72",
        "Z180",
        "Z210",
        "Z360",
        "Z625",
        "Z1024",
        "Z1080",
        "Z2310",
    ],
)
def test_cyclic_lattice_is_divisor_grid(text):
    spec = parse_group_spec(text, order_cap=None)
    lattice = lattice_for(spec, order_cap=None)
    grid = grid_graph(spec.exponents)
    assert is_isomorphic(lattice, grid) is not None


def test_lattice_for_accepts_text_and_spec():
    assert lattice_for("Z8").vertex_count == 4
    assert lattice_for(parse_group_spec("Z8")).vertex_count == 4
    with pytest.raises(GroupError):
        lattice_for("Z8192")
