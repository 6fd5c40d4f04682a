"""Finite abelian groups, subgroup enumeration, and subgroup-lattice graphs.

A group is given as a direct sum of cyclic prime-power factors.  Every
subgroup is the product of one subgroup of each p-primary part, so each
part is enumerated alone.  A subgroup of Z_m1 x ... x Z_mn is a lattice
between diag(m)·Z^n and Z^n, and is enumerated exactly once through that
lattice's Hermite normal form: an upper-triangular basis whose pivots
are powers of p dividing the moduli (Hampejs, Holighaus, Toth and
Wiesmeyr, J. Numbers 2014, for rank 2; Butler, Mem. AMS 539, 1994, for
higher rank).  The lattice graph connects subgroups related by a
covering inclusion, which is an inclusion of prime index; an order
class that many subgroups search for covers is searched through an
index from each element to the bitmask of the members holding it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .graphs import Graph

DEFAULT_ORDER_CAP = 4096

# trial division gives up on a cofactor with no divisor up to here
_TRIAL_BOUND = 2 * 10**6


class GroupError(ValueError):
    """Malformed group expression, bad factor, or order or subgroup count
    over the cap."""


def _is_prime(n: int) -> bool:
    """Primality, exact wherever ``_prime_power_split`` can certify.

    Up to _TRIAL_BOUND**2 this is Miller-Rabin with the prime bases up to
    37, which has no strong pseudoprime below 3.3e24; above it, n must
    split, and a cofactor the split cannot certify raises GroupError.
    """
    if n > _TRIAL_BOUND**2:
        return _prime_power_split(n) == [(n, 1)]
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or n in bases:
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


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
        d += 1 if d == 2 else 2
    # a cofactor with no divisor up to d - 1 is prime only below d * d
    if d * d <= n:
        raise GroupError(f"cannot factor {m}: no divisor found up to {_TRIAL_BOUND}")
    if n > 1:
        out.append((n, 1))
    return out


def _check_order(order: int, order_cap: int | None) -> None:
    if order_cap is not None and order > order_cap:
        # str() refuses an int past the interpreter's digit limit
        bits = order.bit_length()
        shown = order if bits < 4096 else f"above 2^{bits - 1}"
        raise GroupError(f"group order {shown} exceeds cap {order_cap}")


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
        try:
            m = int(body)
        except ValueError:
            # int() refuses more digits than the interpreter's limit
            raise GroupError(f"factor order has too many digits ({len(body)})")
        if m < 2:
            raise GroupError(f"factor order {m} is below 2")
        factors.extend(_prime_power_split(m))
    spec = GroupSpec(tuple(factors))
    _check_order(spec.order, order_cap)
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


def _check_count(count: int, order_cap: int | None) -> None:
    if order_cap is not None and count > order_cap:
        raise GroupError(f"subgroup count exceeds cap {order_cap}")


def _primary_subgroups(
    p: int, moduli: tuple[int, ...], order_cap: int | None
) -> list[list[tuple]]:
    """Every subgroup of the p-group with cyclic factors ``moduli``, each
    once, as a list of coordinate tuples; raises GroupError rather than
    list more than ``order_cap`` of them (``None`` lifts the check).

    The subgroups of Z_m1 x ... x Z_mn are the lattices L with
    diag(m)·Z^n <= L <= Z^n, and each such L has one upper-triangular row
    Hermite normal form B: pivot d_i is a power of p dividing m_i, and
    each entry right of a pivot is reduced modulo its column's pivot.  B
    is built from the bottom row up; a candidate row i is kept when
    m_i·e_i lies in the span of rows i..n, which a triangular solve on
    rows i+1..n decides.  The subgroup's elements are sum c_k·B_k mod m
    with 0 <= c_k < m_k/d_k, each met once.  Elements are handled as
    indices into the coordinate list, so every subgroup shares its tuples
    with the others.
    """
    n = len(moduli)
    coords = list(itertools.product(*(range(m) for m in moduli)))
    # index of a coordinate tuple x is sum x_j * stride[j]; an element of
    # the span of rows i+1..n is zero in coordinates up to i, so its
    # index is below stride[i]
    stride = [math.prod(moduli[j + 1 :]) for j in range(n)]
    out: list[list[tuple]] = []

    # local, so the tables go with this call
    @functools.cache
    def shift(tail: tuple[int, ...]) -> list[int]:
        """x -> x + tail on indices below stride[n - 1 - len(tail)]."""
        table = [0]
        for j, t in zip(range(n - 1, -1, -1), reversed(tail)):
            m, s = moduli[j], stride[j]
            table = [(a + t) % m * s + y for a in range(m) for y in table]
        return table

    def in_span(w: list[int], rows: list[tuple[int, ...]]) -> bool:
        """Whether w, over the columns of rows, is an integer combination
        of the triangular rows."""
        for j, row in enumerate(rows):
            q, rem = divmod(w[j], row[0])
            if rem:
                return False
            for k in range(j + 1, len(w)):
                w[k] -= q * row[k - j]
        return True

    def extend(i: int, rows: list[tuple[int, ...]], elems: list[int]) -> None:
        # rows holds B_{i+1..n} cut to their columns from the pivot on, and
        # elems the indices of their span mod m
        m = moduli[i]
        pivots = [row[0] for row in rows]
        d = 1
        while m % d == 0:
            r = m // d
            step = d * stride[i]
            for tail in itertools.product(*(range(e) for e in pivots)):
                if not in_span([r * t for t in tail], rows):
                    continue
                cosets, table = [elems], shift(tail)
                for _ in range(1, r):
                    cosets.append([table[x] for x in cosets[-1]])
                sub = [c * step + x for c, coset in enumerate(cosets) for x in coset]
                if i:
                    extend(i - 1, [(d, *tail)] + rows, sub)
                else:
                    _check_count(len(out) + 1, order_cap)
                    out.append([coords[x] for x in sub])
            d *= p

    extend(n - 1, [], [0])
    return out


def enumerate_subgroups(
    g: GroupSpec, order_cap: int | None = DEFAULT_ORDER_CAP
) -> SubgroupSet:
    """Enumerate every subgroup of ``g``.

    ``order_cap`` bounds both the group's order and its subgroup count,
    the vertex count of its lattice; ``None`` lifts both checks.

    A finite abelian group is the product of its p-primary parts, and
    every subgroup is the product of one subgroup of each part.  Each
    part is enumerated by itself; canonical factor order keeps a prime's
    factors adjacent, so a product subgroup's elements are the
    concatenated coordinate tuples of its parts.
    """
    _check_order(g.order, order_cap)
    parts = [
        _primary_subgroups(p, tuple(p**k for _, k in group), order_cap)
        for p, group in itertools.groupby(g.factors, key=lambda f: f[0])
    ]
    _check_count(math.prod(map(len, parts)), order_cap)
    subgroups = []
    for combo in itertools.product(*parts):
        # prefix products: each part's tuples are concatenated once per
        # element of the product so far
        elems = combo[0]
        for part in combo[1:]:
            elems = [x + y for x in elems for y in part]
        subgroups.append(Subgroup(frozenset(elems)))
    return SubgroupSet(g, tuple(subgroups))


def build_lattice(s: SubgroupSet) -> Graph:
    """Build the lattice graph: an edge joins H and K exactly when one
    contains the other with no subgroup strictly between.

    ``s`` must hold every subgroup of its group, as SubgroupSet does.

    An order class in which more subgroups look for covers than each of
    its members has elements gets an index: element -> bitmask of the
    members that hold it.  The AND of the rows of H's elements is the
    set of members containing H, and each survivor is confirmed by the
    subset test.  Building the index costs a step per element of each
    member and saves a scan of the class per look, so the other classes
    keep the subset test alone: every class of a cyclic group, and of
    the fan lift's Z_{p^2} x Z_{p^2}, whose index would hold p^4 keys.
    """
    labels = s.labels()
    subs = s.subgroups
    by_order: dict[int, list[int]] = {}
    for j, sub in enumerate(subs):
        by_order.setdefault(sub.order, []).append(j)
    primes = {p for p, _ in s.group.factors}
    # how many subgroups look for their covers in each order class
    looks: dict[int, int] = {}
    for order, members in by_order.items():
        for p in primes:
            looks[order * p] = looks.get(order * p, 0) + len(members)
    index: dict[int, dict[tuple[int, ...], int]] = {}
    for order, members in by_order.items():
        if looks.get(order, 0) > order:
            rows: dict[tuple[int, ...], int] = {}
            for bit, j in enumerate(members):
                for x in subs[j].elements:
                    rows[x] = rows.get(x, 0) | 1 << bit
            index[order] = rows
    edges = []
    for i, sub in enumerate(subs):
        # H < K is a cover iff [K:H] is prime: the abelian K/H has a
        # subgroup of every order dividing its own
        for p in primes:
            members = by_order.get(sub.order * p, ())
            rows = index.get(sub.order * p)
            if rows is not None:
                mask = (1 << len(members)) - 1
                # each x is a key: the class is not empty, so |H|·p
                # divides |G| and H has a cover in it
                for x in sub.elements:
                    mask &= rows[x]
                    if not mask & (mask - 1):
                        break
                found = []
                while mask:
                    low = mask & -mask
                    found.append(members[low.bit_length() - 1])
                    mask ^= low
                members = found
            for j in members:
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
