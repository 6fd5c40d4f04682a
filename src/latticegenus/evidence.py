"""Genus evidence: the one place where genus bounds are combined.

Each piece of evidence is a ``GenusEstimate`` with its provenance tag,
and pieces combine by ``merge``, which raises ``InvariantError`` when two
of them contradict each other.  ``group_bounds`` composes what is known
about one group's lattice: the classification table, the closed-form
families, a planarity test and the Euler bound.  ``exact_genus_small``
bounds the genus of any small connected graph from a planarity test,
block additivity, the Euler bound and verified search certificates.
``crosscheck_rows`` sets the classification's prediction for each
roster group against evidence found independently of it: a planarity
test, a verified genus-1 certificate (searched for or constructed), a
minor whose genus forces genus >= 2, or the Euler bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .embeddings import fan_lift_certificate, verify_certificate
from .formulas import (
    AbelianClass,
    GenusEstimate,
    block_additive_genus,
    classify_abelian,
    estimate_grid_genus,
    euler_lower_bound_int,
    family_genus,
    genus_complete_bipartite,
)
from .graphs import (
    MINOR_BUDGET_DEFAULT,
    Graph,
    block_decomposition,
    complete_bipartite,
    double_k33_pattern,
    find_minor,
    girth,
    is_planar,
)
from .groups import DEFAULT_ORDER_CAP, GroupSpec, lattice_for, parse_group_spec
from .search import (
    SEARCH_BUDGET_DEFAULT,
    SearchConfig,
    SearchError,
    exact_genus_exhaustive,
    rotation_count,
    search_embedding,
)

# below this rotation-system count, settling exact genus by DFS is
# cheaper than running the heuristic
_SMALL_EXHAUSTIVE_LIMIT = 10**4


def _k5() -> Graph:
    verts = [f"v{i}" for i in range(1, 6)]
    return Graph(verts, [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]])


# the named minor patterns, by the name the minor command takes
MINOR_PATTERNS = {
    "bowtie": double_k33_pattern,
    "k33": lambda: complete_bipartite(3, 3),
    "k5": _k5,
    "k64": lambda: complete_bipartite(6, 4),
}

# the genus a pattern forces on any host that has it as a minor, and why
_MINOR_GENUS = {
    # two K33 blocks sharing a cut vertex: genus adds over blocks
    "bowtie": (
        2 * genus_complete_bipartite(3, 3),
        ("minor:double-k33", "block-additivity"),
    ),
    "k64": (
        genus_complete_bipartite(6, 4),
        ("minor:k6-4", "formula:complete-bipartite"),
    ),
}


def _planarity(g: Graph) -> GenusEstimate:
    if is_planar(g):
        return GenusEstimate.exactly(0, ["planarity"])
    return GenusEstimate.at_least(1, ["nonplanar"])


def _euler_bound(g: Graph) -> GenusEstimate:
    # the quadrilateral Euler bound needs girth >= 4: every lattice has
    # it, as a cover changes Omega(|H|) by exactly 1, so the parity of
    # Omega(|H|) 2-colors the lattice and it has no odd cycle;
    # exact_genus_small applies it to any graph once girth(g) >= 4
    lower = euler_lower_bound_int(g.vertex_count, g.edge_count)
    return GenusEstimate.at_least(lower, ["bound:euler"])


def exact_genus_small(
    g: Graph,
    budget: int = SEARCH_BUDGET_DEFAULT,
    seed: int = 0,
) -> GenusEstimate:
    """Best certified genus estimate for a small connected graph.

    Pipeline: planarity, block decomposition with per-block recursion,
    Euler lower bound (girth >= 4), then certificates from exhaustive
    search (tiny graphs) or the heuristic at increasing targets.  Each
    piece merges in with its provenance tag, so a certificate that beats
    a lower bound raises InvariantError.  The result is exact only when
    a verified certificate meets the lower bound.
    """
    if not g.is_connected():
        raise SearchError("need a connected graph")
    est = _planarity(g)
    if est.exact:
        return est

    blocks = block_decomposition(g)
    if len(blocks) > 1:
        return block_additive_genus(
            [exact_genus_small(block, budget, seed) for block in blocks]
        )

    if girth(g) >= 4:
        est = est.merge(_euler_bound(g))

    if rotation_count(g) <= _SMALL_EXHAUSTIVE_LIMIT:
        genus, _cert = exact_genus_exhaustive(g)
        return est.merge(GenusEstimate.exactly(genus, ["search:exhaustive"]))

    for target in range(est.lower, est.lower + 4):
        outcome = search_embedding(
            g, SearchConfig(target, mode="heuristic", seed=seed, budget=budget)
        )
        if outcome.status == "found":
            upper = outcome.verified.genus
            return est.merge(GenusEstimate(0, upper, ["search:heuristic"]))
    return GenusEstimate.at_least(est.lower, [*est.provenance, "search:budget"])


def group_bounds(
    spec: GroupSpec, order_cap: int | None = DEFAULT_ORDER_CAP
) -> GenusEstimate:
    """Genus bounds for a group's lattice: the classification table, the
    closed form of a matching lattice family, a planarity test, and for
    a nonplanar lattice the Euler bound."""
    if spec.is_cyclic:
        # a cyclic group's lattice is exactly the divisor grid
        return estimate_grid_genus(spec.exponents)
    cls = classify_abelian(spec)
    est = GenusEstimate(cls.lower, cls.upper, [f"table:abelian:{cls.label}"])
    family = family_genus(spec)
    if family is not None:
        est = est.merge(family)
    lattice = lattice_for(spec, order_cap=order_cap)
    planarity = _planarity(lattice)
    est = est.merge(planarity)
    if not planarity.exact:
        est = est.merge(_euler_bound(lattice))
    return est


# classification prediction vs independent evidence, one row per group;
# evidence tags: planar = planarity test, torus-search = heuristic
# genus-1 certificate, fan-lift = constructed certificate, minor-* =
# witness forcing genus >= 2, euler = edge-count lower bound
_ROSTER: tuple[tuple[str, str], ...] = (
    ("Z8", "planar"),
    ("Z30", "planar"),
    ("Z60", "planar"),
    ("Z72", "planar"),
    ("Z4xZ2", "planar"),
    ("Z32xZ2", "planar"),
    ("Z9xZ3", "planar"),
    ("Z25xZ5", "planar"),
    ("Z4xZ4", "torus-search"),
    ("Z8xZ4", "torus-search"),
    ("Z9xZ9", "torus-search"),
    ("Z25xZ25", "fan-lift"),
    ("Z2xZ2xZ3", "torus-search"),
    ("Z2xZ2xZ5", "torus-search"),
    ("Z3xZ3xZ2", "torus-search"),
    ("Z3xZ3xZ5", "torus-search"),
    ("Z4xZ2xZ3", "torus-search"),
    ("Z4xZ2xZ5", "torus-search"),
    ("Z180", "torus-search"),
    ("Z210", "torus-search"),
    ("Z360", "torus-search"),
    ("Z1080", "torus-search"),
    ("Z16xZ4", "minor-bowtie"),
    ("Z8xZ8", "minor-bowtie"),
    ("Z27xZ27", "minor-bowtie"),
    ("Z8xZ2xZ3", "minor-bowtie"),
    ("Z9xZ3xZ2", "minor-bowtie"),
    ("Z2xZ2xZ9", "minor-bowtie"),
    ("Z3xZ3xZ4", "minor-k64"),
    ("Z4xZ4xZ3", "euler"),
    ("Z2xZ2xZ3xZ3", "euler"),
    ("Z3xZ3xZ2xZ5", "euler"),
    ("Z1260", "euler"),
)


def _row_evidence(
    spec: GroupSpec, tag: str, seed: int, budget: int | None
) -> GenusEstimate | None:
    """Independent genus evidence for one roster row, or None when the
    budget ran out before the needed bound was established."""
    lattice = lattice_for(spec, order_cap=None)
    if tag in ("planar", "torus-search", "fan-lift"):
        planarity = _planarity(lattice)
        if tag == "planar" or planarity.exact:
            return planarity
    if tag == "torus-search":
        cfg = SearchConfig(
            target_genus=1,
            seed=seed,
            budget=budget if budget is not None else SEARCH_BUDGET_DEFAULT,
        )
        if search_embedding(lattice, cfg).status == "found":
            return GenusEstimate.exactly(1, ["nonplanar", "certificate:search"])
        return None
    if tag == "fan-lift":
        cert = fan_lift_certificate(sorted(spec.prime_pattern())[0])
        genus = verify_certificate(cert.graph, cert).genus
        return GenusEstimate.exactly(genus, ["nonplanar", "certificate:fan-lift"])
    if tag.startswith("minor-"):
        name = tag.removeprefix("minor-")
        lower, provenance = _MINOR_GENUS[name]
        result = find_minor(
            lattice,
            MINOR_PATTERNS[name](),
            budget if budget is not None else MINOR_BUDGET_DEFAULT,
        )
        if result.witness is not None:
            return GenusEstimate.at_least(lower, provenance)
        return None
    return _euler_bound(lattice)


def _row_agrees(predicted: AbelianClass, est: GenusEstimate) -> bool:
    if predicted.label == "Genus0":
        return est.exact and est.lower == 0
    if predicted.label == "Genus1":
        return est.exact and est.lower == 1
    return est.lower >= 2


@dataclass(frozen=True)
class CrosscheckRow:
    """One roster group: its predicted class, the kind of evidence
    sought, the evidence (None if the budget ran out) and the verdict,
    one of ``agree``, ``DISAGREE`` or ``inconclusive``."""

    spec: GroupSpec
    predicted: AbelianClass
    tag: str
    estimate: GenusEstimate | None
    status: str


def crosscheck_rows(seed: int, budget: int | None) -> Iterator[CrosscheckRow]:
    """Check the classification against independent evidence, one
    roster row at a time.  ``budget`` caps each search (rotation
    evaluations) and each minor hunt (nodes); None keeps the defaults.
    A budget that is not positive is refused before the first row."""
    if budget is not None and budget <= 0:
        raise SearchError("budget must be positive")
    for text, tag in _ROSTER:
        spec = parse_group_spec(text, order_cap=None)
        predicted = classify_abelian(spec)
        est = _row_evidence(spec, tag, seed, budget)
        if est is None:
            status = "inconclusive"
        elif _row_agrees(predicted, est):
            status = "agree"
        else:
            status = "DISAGREE"
        yield CrosscheckRow(spec, predicted, tag, est, status)
