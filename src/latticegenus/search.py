"""The genus search engines over rotation systems.

Two engines: a seeded annealing heuristic that climbs on face count
(used for upper bounds via found certificates), and an exhaustive DFS
over rotation systems with an admissible face-count prune (used to
settle exact genus on small graphs); ``evidence`` combines what they
find with the other genus bounds.  Both count faces incrementally: a
heuristic move retraces only the faces its swap touches, and the DFS
keeps its closed-face and open-chain tallies up to date as it assigns
and unassigns rotations.  A found certificate is verified once, where
the search makes it, and the outcome carries the verifier's result, so
the searches need not be trusted, only the verifier.

The heuristic draws each move's vertex and position from
``getrandbits`` by the rejection loop that ``randrange`` runs, so a
seed gives the values, the evaluations and the faces that
``randrange`` would; it reads a move's three darts from in-dart rows
it keeps with the next array, the whole rotation.  Either engine hands
its final next array to the face tracer.

No face is shorter than a floor read off the graph in O(V + E): 2 on a
tree, else 4 if the graph is bipartite, as every subgroup lattice is,
and 3 if not.  So the 2E darts close at most 2E // floor faces: both
modes refute a target that needs more before any evaluation, and the
DFS prune lets its open darts close at most open_darts // floor faces.
Both also refute genus 0 on a nonplanar graph before any evaluation.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Callable

from .graphs import Graph, InvariantError, _two_colorable, is_planar
from .embeddings import EmbeddingCertificate, VerifiedGenus, _Darts, verify_certificate

EXHAUSTIVE_THRESHOLD = 10**9
# the evaluation or node budget of a search when none is given
SEARCH_BUDGET_DEFAULT = 10**6

_STALL_CUTOFF = 12000
# each heuristic restart gets at most budget // _BUDGET_SLICES evaluations
_BUDGET_SLICES = 16


class SearchError(ValueError):
    """Invalid search configuration or input graph."""


@dataclass(frozen=True)
class SearchConfig:
    """Parameters for one genus search.

    ``budget`` counts rotation evaluations (heuristic) or DFS nodes
    (exhaustive).  The heuristic spends all of it unless it finds a
    certificate first.  Exhaustive mode additionally requires the total
    rotation-system count to stay under EXHAUSTIVE_THRESHOLD.
    """

    target_genus: int
    mode: str = "heuristic"
    seed: int = 0
    budget: int = SEARCH_BUDGET_DEFAULT

    def __post_init__(self) -> None:
        if self.mode not in ("heuristic", "exhaustive"):
            raise SearchError(f"unknown mode {self.mode!r}")
        if self.budget <= 0:
            raise SearchError("budget must be positive")
        if self.target_genus < 0:
            raise SearchError("target genus must be nonnegative")


@dataclass(frozen=True)
class SearchOutcome:
    """Result of a search: a certificate with its verified genus, a proof
    of absence, or an exhausted budget.  Heuristic mode proves absence
    only by the face ceiling or, at genus 0, by planarity, with zero
    evaluations."""

    status: str
    certificate: EmbeddingCertificate | None
    evaluations: int
    verified: VerifiedGenus | None = None

    def __post_init__(self) -> None:
        if self.status == "found" and (self.certificate is None or self.verified is None):
            raise InvariantError("search reported found without a verified certificate")

    @staticmethod
    def found(
        cert: EmbeddingCertificate, verified: VerifiedGenus, evaluations: int
    ) -> "SearchOutcome":
        return SearchOutcome("found", cert, evaluations, verified)

    @staticmethod
    def exhausted(evaluations: int) -> "SearchOutcome":
        return SearchOutcome("exhausted", None, evaluations)

    @staticmethod
    def budget_exceeded(evaluations: int) -> "SearchOutcome":
        return SearchOutcome("budget", None, evaluations)


def rotation_count(g: Graph) -> int:
    """Number of rotation systems up to per-vertex cyclic shifts."""
    return math.prod(math.factorial(max(0, len(nb) - 1)) for nb in g.adj)


def _face_target(g: Graph, target_genus: int) -> int:
    return 2 - 2 * target_genus - g.vertex_count + g.edge_count


def _face_floor(g: Graph) -> int:
    """A lower bound on the length of every face of connected g, in
    O(V + E): 2 for a tree, else the least girth its 2-colouring allows."""
    # a face walk holding no cycle walks a tree T both ways along each
    # edge, so at each vertex of T the rotation maps T-neighbours to
    # T-neighbours; being one cycle, it has no others, and T is all of g
    if g.edge_count == g.vertex_count - 1:
        return 2
    return 4 if _two_colorable(g.adj) else 3


def search_embedding(
    g: Graph,
    cfg: SearchConfig,
    progress: Callable[[int, int], None] | None = None,
) -> SearchOutcome:
    """Search for an embedding of genus at most cfg.target_genus.

    Heuristic mode runs annealing restarts, each on at most a sixteenth
    of cfg.budget, until it finds a certificate or has spent exactly
    cfg.budget evaluations; it is deterministic given cfg.seed.
    ``progress`` (if given) receives (restart, best_face_count) after
    each restart.  Exhaustive mode proves nonexistence when it completes
    without finding a certificate.  Either mode proves it at once when
    the target needs more faces than the face floor allows, or when the
    target is genus 0 and g is not planar.
    """
    if not g.is_connected() or g.edge_count == 0:
        raise SearchError("need a connected graph with at least one edge")
    floor = _face_floor(g)
    # the 2E darts make at most 2E // floor faces, fewer than the target
    if _face_target(g, cfg.target_genus) > 2 * g.edge_count // floor:
        return SearchOutcome.exhausted(0)
    # genus 0 is planarity, which is_planar settles without a search
    if cfg.target_genus == 0 and not is_planar(g):
        return SearchOutcome.exhausted(0)
    if cfg.mode == "exhaustive":
        return _search_exhaustive(g, cfg, floor)
    return _search_heuristic(g, cfg, progress)


def _found(g: Graph, darts: _Darts, nxt: list[int], target: int,
           evaluations: int) -> SearchOutcome:
    """The found outcome for a complete next array, its certificate
    verified."""
    cert = EmbeddingCertificate(g, darts.faces(nxt))
    result = verify_certificate(g, cert)
    if result.genus > target:
        raise InvariantError(
            f"search certificate has genus {result.genus}, above target {target}"
        )
    return SearchOutcome.found(cert, result, evaluations)


def _search_heuristic(
    g: Graph, cfg: SearchConfig, progress: Callable[[int, int], None] | None
) -> SearchOutcome:
    darts = _Darts(g)
    swap_delta = darts.swap_delta
    f_target = _face_target(g, cfg.target_genus)
    slice_budget = max(1, cfg.budget // _BUDGET_SLICES)
    # never empty here: a connected graph with no vertex of degree >= 3
    # is a path or a cycle, of genus 0, so its first evaluation meets
    # every target
    movable = [v for v, nb in enumerate(g.adj) if len(nb) >= 3]
    n_movable = len(movable)
    # a move's vertex and position are drawn as randrange(n) draws them:
    # getrandbits(n.bit_length()) until the draw falls below n, so a seed
    # gives the values, and the outcome, that randrange would
    k_movable = n_movable.bit_length()
    evaluations = 0
    restart = 0

    while evaluations < cfg.budget:
        # each restart gets one slice of the budget, the last what is left
        stop = min(evaluations + slice_budget, cfg.budget)
        rng = random.Random(cfg.seed * 1_000_003 + restart)
        getrandbits = rng.getrandbits
        # the shuffled rotation only seeds inrot and nxt, which encode it
        rotation = [list(nb) for nb in g.adj]
        for rot in rotation:
            rng.shuffle(rot)
        # inrot[v] holds the darts (u,v) for u in v's rotation order;
        # darts.swap keeps it in step with nxt
        inrot = darts.in_rows(rotation)
        nxt = darts.next_array(rotation)
        faces = len(darts.orbits(nxt))
        evaluations += 1
        best = faces
        if faces >= f_target:
            return _found(g, darts, nxt, cfg.target_genus, evaluations)

        stall = 0
        step = 0
        while evaluations < stop and stall < _STALL_CUTOFF:
            r = getrandbits(k_movable)
            while r >= n_movable:
                r = getrandbits(k_movable)
            v = movable[r]
            row = inrot[v]
            deg = len(row)
            k = deg.bit_length()
            i = getrandbits(k)
            while i >= deg:
                i = getrandbits(k)
            # a rejected move is never applied, so it needs no undo
            delta = swap_delta(nxt, row[i - 1], row[i], row[i + 1 if i + 1 < deg else 0])
            evaluations += 1
            step += 1
            # the temperature matters only to a move that loses faces
            if delta >= 0 or rng.random() < math.exp(
                delta / max(0.02, 1.5 * (0.9997**step))
            ):
                darts.swap(nxt, inrot, v, i)
                faces += delta
                if faces > best:
                    best = faces
                    stall = 0
                else:
                    stall += 1
                if faces >= f_target:
                    outcome = _found(g, darts, nxt, cfg.target_genus, evaluations)
                    if progress is not None:
                        progress(restart, best)
                    return outcome
            else:
                stall += 1
        if progress is not None:
            progress(restart, best)
        restart += 1
    return SearchOutcome.budget_exceeded(evaluations)


class _PartialRotation:
    """A rotation system assigned vertex by vertex, with the face tallies
    of the exhaustive prune kept up to date as the DFS runs.

    Assigned turns link darts into closed faces and open chains (paths
    of the partial next array).  A chain is known by its ends:
    ``first[end]`` and ``last[start]`` name the other end and
    ``length[start]`` its dart count.  ``unassign`` must undo the latest
    ``assign`` still in force.  The DFS is LIFO, so an end entry that a
    link left stale keeps its value until that link is undone, and
    ``unassign`` reads each link back from those entries.
    """

    def __init__(self, darts: _Darts, floor: int):
        n = darts.count
        self.floor = floor
        self.dart_id = darts.dart_id
        self.nxt = [-1] * n
        self.first = list(range(n))
        self.last = list(range(n))
        self.length = [1] * n
        self.closed = 0
        self.chains = n
        self.open_darts = n

    def bound(self) -> int:
        """Upper bound on the final face count: closed faces plus the
        best the open chains could still yield, no face shorter than the
        floor.  Each assigned turn links two chains or closes one, so
        the open chains are exactly the unassigned turns."""
        return self.closed + min(self.chains, self.open_darts // self.floor)

    def assign(self, v: int, rot: list[int]) -> None:
        ids, nxt, first, last, length = (
            self.dart_id, self.nxt, self.first, self.last, self.length
        )
        row = ids[v]
        deg = len(rot)
        for i, u in enumerate(rot):
            d = ids[u][v]
            t = row[rot[(i + 1) % deg]]
            nxt[d] = t
            s = first[d]
            if s == t:
                # d ends the chain that t starts: it closes into a face
                self.closed += 1
                self.open_darts -= length[s]
            else:
                e = last[t]
                last[s] = e
                first[e] = s
                length[s] += length[t]
        self.chains -= deg

    def unassign(self, v: int, rot: list[int]) -> None:
        ids, nxt, first, last, length = (
            self.dart_id, self.nxt, self.first, self.last, self.length
        )
        for u in reversed(rot):
            d = ids[u][v]
            t = nxt[d]
            nxt[d] = -1
            s = first[d]
            if s == t:
                self.closed -= 1
                self.open_darts += length[s]
            else:
                e = last[t]
                last[s] = d
                first[e] = t
                length[s] -= length[t]
        self.chains += len(rot)


def _search_exhaustive(g: Graph, cfg: SearchConfig, floor: int) -> SearchOutcome:
    if rotation_count(g) > EXHAUSTIVE_THRESHOLD:
        raise SearchError(
            f"{rotation_count(g)} rotation systems exceed the exhaustive "
            f"threshold {EXHAUSTIVE_THRESHOLD}"
        )
    darts = _Darts(g)
    f_target = _face_target(g, cfg.target_genus)
    nv = g.vertex_count

    # assign rotations along a BFS order from the highest-degree vertex
    # so partial faces close early and the prune bites
    start = max(range(nv), key=lambda v: (len(g.adj[v]), -v))
    order = [start]
    seen_v = {start}
    qi = 0
    while qi < len(order):
        for u in g.adj[order[qi]]:
            if u not in seen_v:
                seen_v.add(u)
                order.append(u)
        qi += 1

    state = _PartialRotation(darts, floor)
    # a vertex of degree <= 2 has one rotation: assign it now, so the DFS
    # recurses only over the branching vertices, at most 29 of them, as
    # 2**30 rotation systems would pass EXHAUSTIVE_THRESHOLD
    branching = []
    for v in order:
        if len(g.adj[v]) <= 2:
            state.assign(v, g.adj[v])
        else:
            branching.append(v)
    evaluations = 0
    found: list[SearchOutcome] = []

    def dfs(pos: int) -> bool:
        nonlocal evaluations
        if evaluations >= cfg.budget:
            return False
        evaluations += 1
        if pos == len(branching):
            # with every rotation assigned no chain is open, so the
            # bound() >= f_target that let us in is the exact face count,
            # and state.nxt is the complete next array
            found.append(_found(g, darts, state.nxt, cfg.target_genus, evaluations))
            return True
        v = branching[pos]
        nb = g.adj[v]
        first, rest = nb[0], nb[1:]
        for perm in itertools.permutations(rest):
            rot = [first, *perm]
            state.assign(v, rot)
            if state.bound() >= f_target and dfs(pos + 1):
                return True
            state.unassign(v, rot)
            if evaluations >= cfg.budget:
                break
        return False

    if state.bound() >= f_target and dfs(0):
        return found[0]
    if evaluations >= cfg.budget:
        return SearchOutcome.budget_exceeded(evaluations)
    return SearchOutcome.exhausted(evaluations)


def exact_genus_exhaustive(
    g: Graph, budget: int = 10**8
) -> tuple[int, EmbeddingCertificate]:
    """Exact genus of a small graph by exhausting increasing targets."""
    max_genus = (g.edge_count - g.vertex_count + 2) // 2
    for target in range(0, max_genus + 1):
        outcome = search_embedding(
            g, SearchConfig(target, mode="exhaustive", budget=budget)
        )
        if outcome.status == "found":
            return outcome.verified.genus, outcome.certificate
        if outcome.status == "budget":
            raise SearchError("budget exhausted before genus was settled")
    raise InvariantError("some rotation system must embed the graph")

