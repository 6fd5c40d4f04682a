"""Finite abelian groups, subgroup enumeration, and subgroup-lattice graphs.

A group is given as a direct sum of cyclic prime-power factors.  Every
subgroup is the product of one subgroup of each p-primary part, so each
part is enumerated alone, by joining its cyclic subgroups one at a time
onto every subgroup found so far.  That is complete for abelian groups
since every subgroup is generated by its cyclic pieces, and a join adds
whole cosets through one translation list per cyclic generator.  The
lattice graph connects subgroups related by a covering inclusion, which
is an inclusion of prime index.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .graphs import Graph

DEFAULT_ORDER_CAP = 4096

# trial division gives up on a cofactor with no divisor up to here
_TRIAL_BOUND = 2 * 10**6


class GroupError(ValueError):
    """Malformed group expression, bad factor, or order over the cap."""


def _is_prime(n: int) -> bool:
    return n >= 2 and _prime_power_split(n) == [(n, 1)]


@dataclass(frozen=True)
class GroupSpec:
    """A finite abelian group as a direct sum of cyclic prime-power factors.

    ``factors`` holds (prime, exponent) pairs; construction canonicalizes
    them to descending (prime, exponent) order, so two specs are equal
    exactly when they describe isomorphic groups.
    """

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if not self.factors:
            raise GroupError("group needs at least one factor")
        canon = []
        for pair in self.factors:
            try:
                p, k = pair
            except (TypeError, ValueError):
                raise GroupError(f"factor {pair!r} is not a (prime, exponent) pair")
            if not isinstance(p, int) or not isinstance(k, int):
                raise GroupError(f"factor {pair!r} is not a pair of integers")
            if not _is_prime(p):
                raise GroupError(f"factor base {p} is not prime")
            if k < 1:
                raise GroupError(f"factor exponent {k} must be positive")
            canon.append((p, k))
        canon.sort(reverse=True)
        object.__setattr__(self, "factors", tuple(canon))

    @property
    def order(self) -> int:
        n = 1
        for p, k in self.factors:
            n *= p**k
        return n

    @property
    def moduli(self) -> tuple[int, ...]:
        """Order of each cyclic factor, in canonical factor order."""
        return tuple(p**k for p, k in self.factors)

    @property
    def is_cyclic(self) -> bool:
        primes = [p for p, _ in self.factors]
        return len(primes) == len(set(primes))

    @property
    def exponents(self) -> tuple[int, ...]:
        """Factor exponents in canonical order (for cyclic groups these
        are the grid side lengths of the lattice)."""
        return tuple(k for _, k in self.factors)

    def prime_pattern(self) -> dict[int, tuple[int, ...]]:
        """Map each prime to its descending exponent list."""
        out: dict[int, list[int]] = {}
        for p, k in self.factors:
            out.setdefault(p, []).append(k)
        return {p: tuple(sorted(ks, reverse=True)) for p, ks in out.items()}

    def name(self) -> str:
        return "x".join(f"Z{p**k}" for p, k in self.factors)

    def __str__(self) -> str:
        return self.name()


def _prime_power_split(m: int) -> list[tuple[int, int]]:
    """Split ``m`` into (prime, exponent) pairs by trial division up to
    ``_TRIAL_BOUND``; a cofactor it cannot certify raises GroupError."""
    out, n, d = [], m, 2
    stop = min(math.isqrt(n), _TRIAL_BOUND)
    while d <= stop:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
            stop = min(math.isqrt(n), _TRIAL_BOUND)
        d += 1
    # a cofactor with no divisor up to d - 1 is prime only below d * d
    if d * d <= n:
        raise GroupError(f"cannot factor {m}: no divisor found up to {_TRIAL_BOUND}")
    if n > 1:
        out.append((n, 1))
    return out


def parse_group_spec(text: str, order_cap: int | None = DEFAULT_ORDER_CAP) -> GroupSpec:
    """Parse an expression like ``"Z4xZ2xZ3"`` into a canonical GroupSpec.

    Each ``Z<m>`` token is split into its prime-power cyclic factors, so
    ``"Z72"`` and ``"Z8xZ9"`` produce the same spec.  ``order_cap`` of
    ``None`` lifts the size check.
    """
    if not isinstance(text, str) or not text.strip():
        raise GroupError("empty group expression")
    factors: list[tuple[int, int]] = []
    for token in text.strip().split("x"):
        token = token.strip()
        body = token[1:]
        # isdecimal, not isdigit: superscripts are digits that int() rejects
        if not token.startswith("Z") or not body.isdecimal():
            raise GroupError(f"malformed factor {token!r}: expected Z<m> with m >= 2")
        m = int(body)
        if m < 2:
            raise GroupError(f"factor order {m} is below 2")
        factors.extend(_prime_power_split(m))
    spec = GroupSpec(tuple(factors))
    if order_cap is not None and spec.order > order_cap:
        raise GroupError(f"group order {spec.order} exceeds cap {order_cap}")
    return spec


@dataclass(frozen=True)
class Subgroup:
    """A subgroup given by its full element set (coordinate tuples)."""

    elements: frozenset[tuple[int, ...]]

    @property
    def order(self) -> int:
        return len(self.elements)

    def sorted_elements(self) -> list[tuple[int, ...]]:
        return sorted(self.elements)


@dataclass(frozen=True)
class SubgroupSet:
    """All subgroups of a group, canonically ordered and labeled.

    Subgroups sort by (order, sorted element list); the label of the
    i-th subgroup of a given order is ``"S<order>#<i>"``, so labels are
    stable across runs.
    """

    group: GroupSpec
    subgroups: tuple[Subgroup, ...]

    def __post_init__(self) -> None:
        ordered = sorted(self.subgroups, key=lambda s: (s.order, s.sorted_elements()))
        object.__setattr__(self, "subgroups", tuple(ordered))

    def labels(self) -> tuple[str, ...]:
        out = []
        index_within_order: dict[int, int] = {}
        for sub in self.subgroups:
            i = index_within_order.get(sub.order, 0)
            index_within_order[sub.order] = i + 1
            out.append(f"S{sub.order}#{i}")
        return tuple(out)

    def by_label(self) -> dict[str, Subgroup]:
        return dict(zip(self.labels(), self.subgroups))

    def census(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for sub in self.subgroups:
            out[sub.order] = out.get(sub.order, 0) + 1
        return out

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.name(),
            "subgroups": [
                {
                    "id": label,
                    "order": sub.order,
                    "elements": [list(e) for e in sub.sorted_elements()],
                }
                for label, sub in zip(self.labels(), self.subgroups)
            ],
        }


def _primary_subgroups(p: int, moduli: tuple[int, ...]) -> list[list[tuple]]:
    """Every subgroup of the p-group with cyclic factors ``moduli``, as
    lists of coordinate tuples.  Elements are indices into the coordinate
    list; each distinct cyclic subgroup gets one generator ``a`` and one
    translation list ``x -> x + a``, through which every subgroup found so
    far is joined with ``<a>``."""
    coords = list(itertools.product(*(range(m) for m in moduli)))
    index_of = {t: i for i, t in enumerate(coords)}
    found = {frozenset([0])}
    covered = {0}
    for a in range(len(coords)):
        if a in covered:
            continue
        shift = [
            index_of[tuple((x + y) % m for x, y, m in zip(t, coords[a], moduli))]
            for t in coords
        ]
        # k*a generates <a> exactly when p does not divide k
        cur, k = a, 1
        while cur != 0:
            if k % p:
                covered.add(cur)
            cur, k = shift[cur], k + 1
        # found holds the subgroups generated by earlier generators, so
        # joining each with <a> gives those generated by generators up to a
        for sub in list(found):
            if a in sub:
                continue
            # cosets sub + k*a are equal or disjoint, and the first one
            # already present is sub itself
            out, coset = set(sub), list(sub)
            while shift[coset[0]] not in out:
                coset = [shift[x] for x in coset]
                out.update(coset)
            found.add(frozenset(out))
    return [[coords[i] for i in sub] for sub in found]


def enumerate_subgroups(
    g: GroupSpec, order_cap: int | None = DEFAULT_ORDER_CAP
) -> SubgroupSet:
    """Enumerate every subgroup of ``g``.

    A finite abelian group is the product of its p-primary parts, and
    every subgroup is the product of one subgroup of each part.  Each
    part is enumerated by itself; canonical factor order keeps a prime's
    factors adjacent, so a product subgroup's elements are the
    concatenated coordinate tuples of its parts.
    """
    if order_cap is not None and g.order > order_cap:
        raise GroupError(f"group order {g.order} exceeds cap {order_cap}")
    parts = [
        _primary_subgroups(p, tuple(p**k for _, k in group))
        for p, group in itertools.groupby(g.factors, key=lambda f: f[0])
    ]
    subgroups = tuple(
        Subgroup(frozenset(sum(elems, ()) for elems in itertools.product(*combo)))
        for combo in itertools.product(*parts)
    )
    return SubgroupSet(g, subgroups)


def build_lattice(s: SubgroupSet) -> Graph:
    """Build the lattice graph: an edge joins H and K exactly when one
    contains the other with no subgroup strictly between.

    ``s`` must hold every subgroup of its group, as SubgroupSet does.
    """
    labels = s.labels()
    subs = s.subgroups
    by_order: dict[int, list[int]] = {}
    for j, sub in enumerate(subs):
        by_order.setdefault(sub.order, []).append(j)
    primes = {p for p, _ in s.group.factors}
    edges = []
    for i, sub in enumerate(subs):
        # H < K is a cover iff [K:H] is prime: the abelian K/H has a
        # subgroup of every order dividing its own
        for p in primes:
            for j in by_order.get(sub.order * p, ()):
                if sub.elements < subs[j].elements:
                    edges.append((labels[i], labels[j]))
    return Graph(labels, edges)


def lattice_for(
    text_or_spec: str | GroupSpec, order_cap: int | None = DEFAULT_ORDER_CAP
) -> Graph:
    """Convenience: parse (if needed), enumerate, and build the lattice."""
    if isinstance(text_or_spec, GroupSpec):
        spec = text_or_spec
    else:
        spec = parse_group_spec(text_or_spec, order_cap=order_cap)
    return build_lattice(enumerate_subgroups(spec, order_cap=order_cap))
