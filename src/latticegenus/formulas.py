"""Closed-form genus values, bounds, and classification tables.

Everything here is pure arithmetic: the genus interval type that every
layer reports in, exact genus formulas for grid-graph families, the
Euler-formula lower bound for girth-4 graphs, upper-bound recurrences
for three-parameter grids, block additivity, the closed forms of five
lattice families, and the lookup tables classifying cyclic and abelian
groups by lattice genus.  All intermediate values are exact rationals;
floats never appear.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .graphs import InvariantError, grid_edge_count, grid_vertex_count
from .groups import GroupSpec


class FormulaError(ValueError):
    """A formula was applied outside its stated precondition."""


@dataclass(frozen=True)
class GenusEstimate:
    """Best known genus interval for a graph, with reasons.

    ``upper`` of ``None`` means no upper bound is known, and the
    estimate is ``exact`` when the two bounds meet.  ``provenance``
    records which formulas, certificates, or searches produced the
    bounds.
    """

    lower: int
    upper: int | None
    provenance: tuple[str, ...] = field(default=())

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise FormulaError(f"negative genus lower bound {self.lower}")
        if self.upper is not None and self.upper < self.lower:
            raise FormulaError(f"upper {self.upper} below lower {self.lower}")
        object.__setattr__(self, "provenance", tuple(self.provenance))

    @property
    def exact(self) -> bool:
        return self.upper == self.lower

    @staticmethod
    def exactly(genus: int, provenance: Iterable[str]) -> "GenusEstimate":
        return GenusEstimate(genus, genus, provenance)

    @staticmethod
    def at_least(lower: int, provenance: Iterable[str]) -> "GenusEstimate":
        return GenusEstimate(lower, None, provenance)

    def merge(self, other: "GenusEstimate") -> "GenusEstimate":
        """Intersect two estimates for the same graph.

        Raises InvariantError if the intervals are disjoint: two results
        for the same graph contradict each other, which is a bug, not bad
        input.
        """
        lower = max(self.lower, other.lower)
        uppers = [u for u in (self.upper, other.upper) if u is not None]
        upper = min(uppers) if uppers else None
        if upper is not None and upper < lower:
            raise InvariantError(
                f"contradictory estimates: [{self.lower},{self.upper}] from "
                f"{list(self.provenance)} vs [{other.lower},{other.upper}] "
                f"from {list(other.provenance)}"
            )
        prov = list(self.provenance)
        prov.extend(t for t in other.provenance if t not in prov)
        return GenusEstimate(lower, upper, prov)

    def to_json_dict(self) -> dict:
        return {
            "lower": self.lower,
            "upper": self.upper,
            "exact": self.exact,
            "provenance": list(self.provenance),
        }


def euler_lower_bound(v: int, e: int) -> Fraction:
    """Exact rational genus lower bound 1 + e/4 - v/2 for a connected
    graph with girth at least 4 and at least 3 vertices.

    The bound assumes every face has length at least 4, which fails on
    fewer than 3 vertices (K1 and K2 are planar), so v < 3 gives 0.
    """
    if v < 3:
        return Fraction(0)
    return 1 + Fraction(e, 4) - Fraction(v, 2)


def euler_lower_bound_int(v: int, e: int) -> int:
    """Ceiling of euler_lower_bound, clamped to a usable genus bound;
    the same precondition holds, and v < 3 gives 0."""
    return max(0, math.ceil(euler_lower_bound(v, e)))


def _check_exponents(exponents: Iterable[int]) -> tuple[int, ...]:
    out = tuple(int(e) for e in exponents)
    if not out or any(e < 1 for e in out):
        raise FormulaError(f"grid exponents must be positive: {out}")
    return out


def grid_lower_bound(exponents: Iterable[int]) -> int:
    """Genus lower bound for the grid graph with the given side lengths,
    valid whenever there are at least two parameters."""
    exps = _check_exponents(exponents)
    if len(exps) <= 1:
        raise FormulaError("grid lower bound needs at least two parameters")
    return euler_lower_bound_int(grid_vertex_count(exps), grid_edge_count(exps))


def white_genus(exponents: Iterable[int]) -> int:
    """Exact genus of a grid graph with at least three parameters, at
    least three of them odd (lower-embeddable case): such a grid embeds
    with only 4-faces, so its genus is Euler's bound."""
    exps = _check_exponents(exponents)
    odd = sum(1 for e in exps if e % 2 == 1)
    if len(exps) < 3 or odd < 3:
        raise FormulaError(
            f"need >= 3 parameters with >= 3 odd, got {exps}"
        )
    value = euler_lower_bound(grid_vertex_count(exps), grid_edge_count(exps))
    if value.denominator != 1:
        raise FormulaError(f"formula gave non-integer {value} for {exps}")
    return max(0, int(value))


def genus_grid_e1_e2_1(e1: int, e2: int) -> int:
    """Exact genus of the grid with parameters (e1, e2, 1)."""
    if e1 < 1 or e2 < 1:
        raise FormulaError(f"parameters must be positive: {(e1, e2)}")
    return (e1 // 2) * (e2 // 2)


def genus_grid_e1_2_2(e1: int) -> int:
    """Exact genus of the grid with parameters (e1, 2, 2)."""
    if e1 < 1:
        raise FormulaError(f"parameter must be positive: {e1}")
    return e1


def grid_upper_bound(exponents: Iterable[int]) -> int:
    """Genus upper bound for a three-parameter grid with at least one
    even parameter, by deleting one layer per even parameter and paying
    the stated handle cost; the reduced all-odd grid has known genus."""
    exps = tuple(sorted(_check_exponents(exponents), reverse=True))
    if len(exps) != 3:
        raise FormulaError(f"recurrence needs exactly 3 parameters, got {exps}")
    evens = [e for e in exps if e % 2 == 0]
    odds = [e for e in exps if e % 2 == 1]
    if not evens:
        raise FormulaError(f"no even parameter in {exps}")

    def genus_of(reduced: tuple[int, ...]) -> int:
        if all(e % 2 == 1 for e in reduced):
            return white_genus(reduced)
        return grid_upper_bound(reduced)

    if len(evens) == 1:
        o1, o2 = odds
        ev = evens[0]
        step = (o1 + 1) * (o2 + 1) // 4 - 1
        return genus_of((o1, o2, ev - 1)) + step
    if len(evens) == 2:
        o1 = odds[0]
        ev1, ev2 = evens
        step = (o1 + 1) * (ev1 + ev2) // 4 - 1
        return genus_of((o1, ev1 - 1, ev2 - 1)) + step
    e1, e2, e3 = evens
    step = (e1 * e2 + e1 * e3 + e2 * e3) // 4 - 1
    return genus_of((e1 - 1, e2 - 1, e3 - 1)) + step


def genus_complete_bipartite(m: int, n: int) -> int:
    """Exact genus of the complete bipartite graph on m and n vertices."""
    if m < 2 or n < 2:
        raise FormulaError(f"need both sides >= 2, got {(m, n)}")
    return math.ceil(Fraction((m - 2) * (n - 2), 4))


def block_additive_genus(per_block: Iterable[GenusEstimate]) -> GenusEstimate:
    """Sum the genus estimates of a graph's blocks, given in block order.

    Genus adds over biconnected components, so lower and upper bounds
    add componentwise and the sum is exact when every block is.
    """
    lower = 0
    upper: int | None = 0
    prov: list[str] = ["block-additivity"]
    for est in per_block:
        lower += est.lower
        if upper is not None:
            upper = None if est.upper is None else upper + est.upper
        for tag in est.provenance:
            if tag not in prov:
                prov.append(tag)
    return GenusEstimate(lower, upper, prov)


@dataclass(frozen=True)
class AbelianClass:
    """Genus classification of a finite abelian group's lattice: planar,
    toroidal, or genus at least two; for a cyclic group by its exponent
    multiset, an exact value for genus 0..4, the interval [4,6] for the
    one unresolved multiset, or a genus >= 5 verdict."""

    label: str
    lower: int
    upper: int | None


_GENUS1_TRIPLES = {(2, 2, 1), (3, 2, 1), (3, 3, 1)}
_GENUS2_TRIPLES = {(4, 2, 1), (4, 3, 1), (5, 2, 1), (5, 3, 1), (2, 2, 2)}
_GENUS3_TRIPLES = {(6, 2, 1), (6, 3, 1), (7, 2, 1), (7, 3, 1), (3, 2, 2)}
_GENUS4_TRIPLES = {
    (8, 2, 1),
    (8, 3, 1),
    (9, 2, 1),
    (9, 3, 1),
    (4, 4, 1),
    (5, 4, 1),
    (5, 5, 1),
    (4, 2, 2),
    (3, 3, 2),
}


def _is_planar_grid(exps: tuple[int, ...]) -> bool:
    """The grid is planar: at most two factors, or three with at most
    one exponent above 1."""
    k = len(exps)
    return k <= 2 or (k == 3 and sum(1 for e in exps if e > 1) <= 1)


def classify_cyclic(exponents: Iterable[int]) -> AbelianClass:
    """Classify the lattice genus of a cyclic group whose order has the
    given prime-power exponents (one entry per distinct prime)."""
    exps = tuple(sorted((int(e) for e in exponents), reverse=True))
    if not exps or exps[-1] < 1:
        raise FormulaError(f"exponents must be a nonempty positive multiset: {exps}")

    def exact(g: int) -> AbelianClass:
        return AbelianClass(f"Genus{g}", g, g)

    if _is_planar_grid(exps):
        return exact(0)
    if exps in _GENUS1_TRIPLES or exps == (1, 1, 1, 1):
        return exact(1)
    if exps in _GENUS2_TRIPLES or exps == (2, 1, 1, 1):
        return exact(2)
    if exps in _GENUS3_TRIPLES or exps == (3, 1, 1, 1):
        return exact(3)
    if exps in _GENUS4_TRIPLES or exps == (4, 1, 1, 1):
        return exact(4)
    if exps == (2, 2, 1, 1):
        return AbelianClass("Range(4,6)", 4, 6)
    return AbelianClass("AtLeast5", 5, None)


def classify_abelian(g: GroupSpec) -> AbelianClass:
    """Classify any finite abelian group's lattice as planar, toroidal,
    or genus at least two, from its canonical factor pattern."""
    if g.is_cyclic:
        c = classify_cyclic(g.exponents)
        if c.label == "Genus0":
            return AbelianClass("Genus0", 0, 0)
        if c.label == "Genus1":
            return AbelianClass("Genus1", 1, 1)
        return AbelianClass("AtLeastTwo", 2, None)

    pattern = g.prime_pattern()
    primes = sorted(pattern)
    if len(primes) == 1:
        p = primes[0]
        exps = pattern[p]
        if len(exps) == 2 and exps[1] == 1:
            return AbelianClass("Genus0", 0, 0)
        if exps == (2, 2) and p in (2, 3, 5):
            return AbelianClass("Genus1", 1, 1)
        if exps == (3, 2) and p == 2:
            return AbelianClass("Genus1", 1, 1)
        return AbelianClass("AtLeastTwo", 2, None)
    if len(primes) == 2:
        # one prime carries the non-cyclic part, the other is a single
        # flat factor
        for p, q in ((primes[0], primes[1]), (primes[1], primes[0])):
            if pattern[q] != (1,):
                continue
            if pattern[p] == (1, 1) and p in (2, 3):
                return AbelianClass("Genus1", 1, 1)
            if pattern[p] == (2, 1) and p == 2:
                return AbelianClass("Genus1", 1, 1)
    return AbelianClass("AtLeastTwo", 2, None)


def family_genus(spec: GroupSpec) -> GenusEstimate | None:
    """Genus of the group's lattice from the closed form of its lattice
    family (Z_{p^2}^2, Z_{p^3} x Z_{p^2}, Z_p^2 x Z_q, Z_p^3, Z_p^2 x
    Z_{q^2}), or None when it is in none.  The last two families give
    open-ended estimates."""
    pattern = spec.prime_pattern()
    # of two primes, p is the one with the (1, 1) part and q the other
    primes = sorted(pattern, key=lambda r: pattern[r] != (1, 1))
    shape = tuple(pattern[r] for r in primes)
    p, q = primes[0], primes[-1]
    if shape == ((2, 2),):
        return GenusEstimate.exactly(
            math.ceil(Fraction(p - 1, 4)), [f"formula:zp2xzp2(p={p})"]
        )
    if shape == ((3, 2),):
        if p == 2:
            return GenusEstimate.exactly(1, ["formula:zp3xzp2(p=2)"])
        return GenusEstimate.exactly(
            2 * math.ceil(Fraction(p - 2, 4)), [f"formula:zp3xzp2(p={p})"]
        )
    if shape == ((1, 1), (1,)):
        return GenusEstimate.exactly(
            math.ceil(Fraction(p - 1, 2)), [f"formula:zpzpzq(p={p},q={q})"]
        )
    if shape == ((1, 1, 1),):
        return GenusEstimate.at_least(
            math.ceil(Fraction(p**3 - 1, 4)), [f"bound:zpzpzp(p={p})"]
        )
    if shape == ((1, 1), (2,)):
        return GenusEstimate.at_least(p - 1, [f"bound:zpzpzq2(p={p},q={q})"])
    return None


def estimate_grid_genus(exponents: Iterable[int]) -> GenusEstimate:
    """Best genus estimate for a grid graph, merging every applicable
    closed form, table entry, and bound.  Raises if two sources
    contradict each other."""
    exps = tuple(sorted(_check_exponents(exponents), reverse=True))
    k = len(exps)
    estimates: list[GenusEstimate] = []

    if _is_planar_grid(exps):
        estimates.append(GenusEstimate.exactly(0, ["planar-grid"]))
    if k >= 2:
        estimates.append(
            GenusEstimate.at_least(grid_lower_bound(exps), ["bound:grid-lower"])
        )
    if k >= 3 and sum(1 for e in exps if e % 2 == 1) >= 3:
        estimates.append(GenusEstimate.exactly(white_genus(exps), ["formula:white"]))
    if k == 3 and exps[2] == 1:
        estimates.append(
            GenusEstimate.exactly(
                genus_grid_e1_e2_1(exps[0], exps[1]), ["formula:e1-e2-1"]
            )
        )
    if k == 3 and exps[1] == 2 and exps[2] == 2:
        estimates.append(
            GenusEstimate.exactly(genus_grid_e1_2_2(exps[0]), ["formula:e1-2-2"])
        )
    if k == 3 and any(e % 2 == 0 for e in exps):
        estimates.append(
            GenusEstimate(0, grid_upper_bound(exps), ["bound:grid-upper"])
        )
    table = classify_cyclic(exps)
    estimates.append(
        GenusEstimate(table.lower, table.upper, [f"table:cyclic:{table.label}"])
    )

    merged = estimates[0]
    for est in estimates[1:]:
        merged = merged.merge(est)
    return merged
