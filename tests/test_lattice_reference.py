"""The subgroup enumerator and lattice builder against the element path
they replaced.

``reference_enumerate_subgroups`` and ``reference_build_lattice`` below
are the earlier implementation, kept verbatim apart from their names and
from each subgroup being its bare element frozenset: one
closure over the whole group's elements (an addition table up to
``_TABLE_LIMIT`` elements, tuple arithmetic above it) and a cover test over
every pair of subgroups.  The package's per-prime product, enumeration
from Hermite normal forms and prime-index covers must reproduce its labels,
element lists and edges exactly.
"""

import itertools

import pytest

from latticegenus import (
    DEFAULT_ORDER_CAP,
    Graph,
    GroupError,
    GroupSpec,
    SubgroupSet,
    build_lattice,
    enumerate_subgroups,
    parse_group_spec,
)

# full addition table is worth its quadratic build cost only up to here
_TABLE_LIMIT = 1500


def reference_enumerate_subgroups(
    g: GroupSpec, order_cap: int | None = DEFAULT_ORDER_CAP
) -> SubgroupSet:
    """Enumerate every subgroup of ``g``.

    Elements are encoded as indices into the lexicographic coordinate
    list so subgroups are sets of small ints during the closure; groups
    up to _TABLE_LIMIT get a precomputed addition table.
    """
    if order_cap is not None and g.order > order_cap:
        raise GroupError(f"group order {g.order} exceeds cap {order_cap}")
    moduli = g.moduli
    coords = list(itertools.product(*(range(m) for m in moduli)))
    index_of = {t: i for i, t in enumerate(coords)}
    n = len(coords)

    if n <= _TABLE_LIMIT:
        table = [
            [
                index_of[tuple((x + y) % m for x, y, m in zip(a, b, moduli))]
                for b in coords
            ]
            for a in coords
        ]

        def add(a: int, b: int) -> int:
            return table[a][b]

    else:

        def add(a: int, b: int) -> int:
            ta, tb = coords[a], coords[b]
            return index_of[tuple((x + y) % m for x, y, m in zip(ta, tb, moduli))]

    def cyclic_from(a: int) -> frozenset[int]:
        seen = {0}
        cur = a
        while cur != 0:
            seen.add(cur)
            cur = add(cur, a)
        return frozenset(seen)

    # one representative generator per distinct cyclic subgroup
    cyclic: dict[frozenset[int], int] = {}
    for a in range(n):
        sub = cyclic_from(a)
        if sub not in cyclic:
            cyclic[sub] = a

    def join(sub: frozenset[int], cyc: frozenset[int]) -> frozenset[int]:
        # union of cosets sub + c; cosets already inside the running
        # union can be skipped because sub + (sub + c) = sub + c
        out = set(sub)
        for c in cyc:
            if c not in out:
                out.update(add(c, s) for s in sub)
        return frozenset(out)

    found = set(cyclic)
    frontier = list(cyclic)
    while frontier:
        grown = []
        for sub in frontier:
            for cyc, gen in cyclic.items():
                if gen in sub:
                    continue
                joined = join(sub, cyc)
                if joined not in found:
                    found.add(joined)
                    grown.append(joined)
        frontier = grown

    subgroups = tuple(frozenset(coords[i] for i in sub) for sub in found)
    return SubgroupSet(g, subgroups)


def reference_build_lattice(s: SubgroupSet) -> Graph:
    """Build the lattice graph: an edge joins H and K exactly when one
    contains the other with no subgroup strictly between."""
    labels = s.labels()
    elems = list(s.subgroups)
    orders = [len(sub) for sub in s.subgroups]
    m = len(elems)
    ups: list[set[int]] = [set() for _ in range(m)]
    downs: list[set[int]] = [set() for _ in range(m)]
    for i in range(m):
        for j in range(m):
            if orders[i] < orders[j] and orders[j] % orders[i] == 0:
                if elems[i] < elems[j]:
                    ups[i].add(j)
                    downs[j].add(i)
    edges = []
    for i in range(m):
        for j in ups[i]:
            # covering pair iff nothing sits strictly between
            if not (ups[i] & downs[j]):
                edges.append((labels[i], labels[j]))
    return Graph(set(labels), edges)


def _partitions(k, largest=None):
    largest = k if largest is None else largest
    if k == 0:
        yield ()
    for first in range(min(k, largest), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first,) + rest


def _abelian_groups(max_order):
    """Every abelian group of order 2..max_order, one spec per type."""
    out = []
    for n in range(2, max_order + 1):
        split, m, p = [], n, 2
        while m > 1:
            k = 0
            while m % p == 0:
                m //= p
                k += 1
            if k:
                split.append([[(p, e) for e in lam] for lam in _partitions(k)])
            p += 1
        for choice in itertools.product(*split):
            out.append(GroupSpec(tuple(f for part in choice for f in part)))
    return out


SMALL = _abelian_groups(64)
# Z8xZ8xZ4 and Z9xZ9xZ3 have order classes wide enough for build_lattice's
# element index
LARGER = ["Z2xZ2xZ2xZ2xZ3xZ3", "Z25xZ25", "Z3xZ3xZ2xZ89", "Z8xZ8xZ4", "Z9xZ9xZ3"]


def _assert_same(spec):
    subs = enumerate_subgroups(spec, order_cap=None)
    ref = reference_enumerate_subgroups(spec, order_cap=None)
    assert subs.to_json_dict() == ref.to_json_dict(), spec.name()
    lattice, expected = build_lattice(subs), reference_build_lattice(ref)
    assert lattice.to_json_dict() == expected.to_json_dict(), spec.name()


def test_small_group_list_is_complete():
    # number of abelian group types of each order 2..64, summed
    assert len(SMALL) == 116
    assert len(set(SMALL)) == 116


def test_every_group_up_to_order_64_matches_the_reference():
    for spec in SMALL:
        _assert_same(spec)


@pytest.mark.parametrize("text", LARGER)
def test_larger_groups_match_the_reference(text):
    # Z3xZ3xZ2xZ89 (order 1602) is above the reference's table limit
    _assert_same(parse_group_spec(text, order_cap=None))
