"""Labeled simple graphs and the constructions used throughout the toolkit.

Graphs are immutable, with distinct string vertices and each edge given once;
other input is refused, not repaired. This module covers construction (paths,
cycles, grid graphs, the G_n and H_n gadget families, complete bipartite
patterns), structural queries (girth, connectivity, blocks, planarity,
isomorphism), and graph minors: witness validation and a backtracking
branch-set search with degree-based kernelization and pattern symmetry broken
along a stabilizer chain. A Graph numbers its vertices once (id = index in the
sorted ``vertices``); every engine, the face engine in ``embeddings`` included,
reads that numbering and maps ids back to labels only at its edges.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass

import networkx as nx

__all__ = [
    "GraphError",
    "InvariantError",
    "Graph",
    "path_graph",
    "cycle_graph",
    "complete_bipartite",
    "double_k33_pattern",
    "grid_graph",
    "grid_vertex_count",
    "grid_edge_count",
    "gn_graph",
    "hn_graph",
    "zppq_graph",
    "girth",
    "is_planar",
    "is_isomorphic",
    "block_decomposition",
    "MinorWitness",
    "validate_minor_witness",
    "MinorSearchResult",
    "find_minor",
]


class GraphError(ValueError):
    """Raised for malformed graph constructions, queries, or witnesses."""


class InvariantError(RuntimeError):
    """The library contradicted itself: a bug, not bad input.  Raised
    explicitly, not by ``assert``, so the check survives ``python -O``."""


# ============================================================
# Core graph type
# ============================================================

class Graph:
    """Immutable simple graph on distinct string labels, each edge given once,
    else GraphError. ``index`` maps each label to its id (its position in
    ``vertices``); ``adj[i]`` holds id i's neighbor ids in ascending order;
    read-only."""

    __slots__ = ("vertices", "edges", "index", "adj")

    def __init__(self, vertices, edges):
        vs = list(vertices)
        for v in vs:
            if not isinstance(v, str):
                raise GraphError(f"vertex {v!r} is not a string")
        vs.sort()
        index = {v: i for i, v in enumerate(vs)}
        if len(index) < len(vs):
            v = next(v for v, w in zip(vs, vs[1:]) if v == w)
            raise GraphError(f"vertex {v!r} is listed twice")
        nbrs: list[list[int]] = [[] for _ in vs]
        for pair in edges:
            u, v = pair
            try:
                a, b = index[u], index[v]
            except (KeyError, TypeError):  # TypeError: an unhashable end
                raise GraphError(f"edge ({u!r}, {v!r}) leaves the vertex set") from None
            if a == b:
                raise GraphError(f"loop edge at {u!r}")
            nbrs[a].append(b)
            nbrs[b].append(a)
        for a, row in enumerate(nbrs):
            row.sort()
            if len(set(row)) < len(row):
                b = next(b for b, c in zip(row, row[1:]) if b == c)
                raise GraphError(f"edge ({vs[a]!r}, {vs[b]!r}) is listed twice")
        # ids ascend with labels, so this is the (lower, higher) label order
        es = [(vs[a], vs[b]) for a, row in enumerate(nbrs) for b in row if a < b]
        self.vertices: tuple[str, ...] = tuple(vs)
        self.edges: tuple[tuple[str, str], ...] = tuple(es)
        self.index: dict[str, int] = index
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, nbrs))

    # ---- basic queries ----

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: str, v: str) -> bool:
        a, b = self.index.get(u), self.index.get(v)
        if a is None or b is None:
            return False
        row = self.adj[a]
        i = bisect_left(row, b)
        return i < len(row) and row[i] == b

    def neighbors(self, v: str) -> tuple[str, ...]:
        try:
            i = self.index[v]
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None
        return tuple(self.vertices[w] for w in self.adj[i])

    def degree(self, v: str) -> int:
        try:
            return len(self.adj[self.index[v]])
        except KeyError:
            raise GraphError(f"unknown vertex {v!r}") from None

    def is_connected(self) -> bool:
        return _connected(self.adj, range(len(self.adj)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.vertices == other.vertices and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {self.edge_count} edges)"

    # ---- serialization ----

    def to_json_dict(self) -> dict:
        return {"vertices": list(self.vertices), "edges": [list(e) for e in self.edges]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Graph":
        try:
            return cls(
                _json_array(data["vertices"], "vertices"),
                [tuple(_json_array(e, "edge")) for e in _json_array(data["edges"], "edges")],
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, GraphError):
                raise
            raise GraphError(f"malformed graph JSON: {exc}") from exc

    def to_dot(self, name: str = "G") -> str:
        lines = [f'graph "{name}" {{']
        for v in self.vertices:
            lines.append(f'  "{v}";')
        for u, v in self.edges:
            lines.append(f'  "{u}" -- "{v}";')
        lines.append("}")
        return "\n".join(lines) + "\n"


def _json_array(value, what: str):
    """``value`` if it is a JSON array (list or tuple); anything else, a
    string included, raises TypeError rather than be read element-wise."""
    if not isinstance(value, (list, tuple)):
        raise TypeError(f"{what} must be an array, not {type(value).__name__}")
    return value


def _json_strings(value, what: str):
    """``value`` if it is a JSON array of strings; else TypeError."""
    for x in _json_array(value, what):
        if not isinstance(x, str):
            raise TypeError(f"{what} entry {x!r} is not a string")
    return value


# ============================================================
# Constructors
# ============================================================

def path_graph(length: int, prefix: str = "") -> Graph:
    """Path with `length` edges on vertices prefix+0 .. prefix+length."""
    if length < 0:
        raise GraphError("path length must be nonnegative")
    verts = [f"{prefix}{i}" for i in range(length + 1)]
    return Graph(verts, [(verts[i], verts[i + 1]) for i in range(length)])


def cycle_graph(n: int, prefix: str = "") -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    verts = [f"{prefix}{i}" for i in range(n)]
    return Graph(verts, [(verts[i], verts[(i + 1) % n]) for i in range(n)])


def complete_bipartite(m: int, n: int) -> Graph:
    """K_{m,n} on parts L1..Lm and R1..Rn."""
    if m < 1 or n < 1:
        raise GraphError("both parts must be nonempty")
    left = [f"L{i}" for i in range(1, m + 1)]
    right = [f"R{j}" for j in range(1, n + 1)]
    return Graph(left + right, [(u, v) for u in left for v in right])


def double_k33_pattern() -> Graph:
    """Two K_{3,3} graphs sharing exactly one vertex (the bowtie pattern)."""
    verts = ["x", "a1", "a2", "b1", "b2", "b3", "c1", "c2", "d1", "d2", "d3"]
    edges = [(u, v) for u in ("x", "a1", "a2") for v in ("b1", "b2", "b3")]
    edges += [(u, v) for u in ("x", "c1", "c2") for v in ("d1", "d2", "d3")]
    return Graph(verts, edges)


def grid_graph(exponents) -> Graph:
    """Cartesian product of paths with lengths e_1 >= ... >= e_k >= 1.

    Vertices are coordinate tuples rendered as comma-joined strings; two
    vertices are adjacent iff they differ by one in exactly one coordinate.
    """
    ex = _canonical_exponents(exponents)
    ranges = [range(e + 1) for e in ex]
    coords = list(itertools.product(*ranges))
    label = lambda c: ",".join(map(str, c))
    edges = []
    for c in coords:
        for i, e in enumerate(ex):
            if c[i] < e:
                d = list(c)
                d[i] += 1
                edges.append((label(c), label(tuple(d))))
    return Graph([label(c) for c in coords], edges)


def _canonical_exponents(exponents) -> tuple[int, ...]:
    ex = tuple(int(e) for e in exponents)
    if not ex or any(e < 1 for e in ex):
        raise GraphError("grid exponents must be positive integers")
    return tuple(sorted(ex, reverse=True))


def grid_vertex_count(exponents) -> int:
    ex = _canonical_exponents(exponents)
    out = 1
    for e in ex:
        out *= e + 1
    return out


def grid_edge_count(exponents) -> int:
    ex = _canonical_exponents(exponents)
    total = 0
    for i, e in enumerate(ex):
        term = e
        for j, f in enumerate(ex):
            if j != i:
                term *= f + 1
        total += term
    return total


def gn_graph(n: int) -> Graph:
    """Hub gadget on a, b, c with n pendant pairs alpha_i, beta_i.

    Edges: b-alpha_i, b-beta_i, a-alpha_i, c-beta_i, alpha_i-beta_i.
    2n+3 vertices and 5n edges.
    """
    if n < 2:
        raise GraphError("gn_graph needs n >= 2")
    al = [f"alpha_{i}" for i in range(1, n + 1)]
    be = [f"beta_{i}" for i in range(1, n + 1)]
    edges = []
    for i in range(n):
        edges += [("b", al[i]), ("b", be[i]), ("a", al[i]), ("c", be[i]), (al[i], be[i])]
    return Graph(["a", "b", "c", *al, *be], edges)


def hn_graph(n: int) -> Graph:
    """Two disjoint copies of the G_n gadget plus five connecting edges.

    Copy 0 uses a_0, b_0, c_0 with pairs alpha_i, beta_i; copy 1 uses a_1,
    b_1, c_1 with pairs gamma_i, delta_i. Connectors: a_0-a_1, b_0-b_1,
    c_0-c_1, b_0-a_1, c_0-b_1. 4n+6 vertices and 10n+5 edges.
    """
    if n < 2:
        raise GraphError("hn_graph needs n >= 2")
    verts, edges = [], []
    for s, x, y in ((0, "alpha", "beta"), (1, "gamma", "delta")):
        a, b, c = f"a_{s}", f"b_{s}", f"c_{s}"
        verts += [a, b, c]
        for i in range(1, n + 1):
            xi, yi = f"{x}_{i}", f"{y}_{i}"
            verts += [xi, yi]
            edges += [(b, xi), (b, yi), (a, xi), (c, yi), (xi, yi)]
    edges += [("a_0", "a_1"), ("b_0", "b_1"), ("c_0", "c_1"), ("b_0", "a_1"), ("c_0", "b_1")]
    return Graph(verts, edges)


def zppq_graph(p: int) -> Graph:
    """The lattice shape of Z_p x Z_p x Z_q on explicit labels.

    Vertices: a (trivial), b (the p^2 subgroup), c (the q subgroup), d (the
    full group), i_a for the p+1 subgroups of size p, i_c for the p+1
    subgroups of size pq. Edges: a-i_a, b-i_a, c-i_c, d-i_c, i_a-i_c, a-c,
    b-d. 2(p+3) vertices and 5p+7 edges.
    """
    if p < 2:
        raise GraphError("zppq_graph needs p >= 2")
    bottoms = [f"{i}_a" for i in range(p + 1)]
    tops = [f"{i}_c" for i in range(p + 1)]
    edges = [("a", "c"), ("b", "d")]
    for i in range(p + 1):
        edges += [
            ("a", bottoms[i]),
            ("b", bottoms[i]),
            ("c", tops[i]),
            ("d", tops[i]),
            (bottoms[i], tops[i]),
        ]
    return Graph(["a", "b", "c", "d", *bottoms, *tops], edges)


# ============================================================
# Structural queries
# ============================================================

def _connected(adj, members) -> bool:
    """Whether the ids in ``members`` (a set or range) induce a connected
    subgraph of the id adjacency ``adj``; vacuously so when empty."""
    if not members:
        return True
    start = next(iter(members))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w in members and w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(members)


def _two_colorable(adj) -> bool:
    """Whether the id adjacency ``adj`` is bipartite, every component
    included."""
    color = [-1] * len(adj)
    for root in range(len(adj)):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            other = color[u] ^ 1
            for w in adj[u]:
                if color[w] < 0:
                    color[w] = other
                    stack.append(w)
                elif color[w] != other:
                    return False
    return True


def girth(g: Graph):
    """Length of the shortest cycle; float('inf') for forests.

    No cycle is shorter than 4 in a 2-colorable graph or shorter than 3
    in any other, so the search stops as soon as it meets that floor:
    on a subgroup lattice, bipartite because a cover changes Omega(|H|)
    by one, the first 4-cycle ends it.
    """
    best = float("inf")
    adj = g.adj
    floor = 4 if _two_colorable(adj) else 3
    # one BFS per root: id w is reached in root's BFS iff mark[w] == root,
    # so no table is cleared between roots
    mark = [-1] * len(adj)
    dist = [0] * len(adj)
    parent = [-1] * len(adj)
    for root in range(len(adj)):
        if best == floor:
            break
        mark[root] = root
        dist[root] = 0
        parent[root] = -1
        queue = [root]
        while queue:
            nxt = []
            for u in queue:
                du = dist[u]
                if 2 * du >= best - 1:
                    continue
                pu = parent[u]
                for w in adj[u]:
                    if mark[w] != root:
                        mark[w] = root
                        dist[w] = du + 1
                        parent[w] = u
                        nxt.append(w)
                    elif pu != w and parent[w] != u:
                        best = min(best, du + dist[w] + 1)
            queue = nxt
    return best


def to_networkx(g: Graph) -> "nx.Graph":
    """The graph on its ids, nodes and edges added in ascending order."""
    h = nx.Graph()
    h.add_nodes_from(range(g.vertex_count))
    h.add_edges_from((u, v) for u, nb in enumerate(g.adj) for v in nb if u < v)
    return h


def is_planar(g: Graph) -> bool:
    """Planarity; Euler's formula settles the dense cases without
    networkx.

    A planar simple graph on n >= 3 vertices has at most 3n - 6 edges,
    and at most 2n - 4 when it is 2-colorable (every face then has
    length at least 4).  K2 is why n >= 3 is needed: 1 > 3·2 - 6.
    """
    n, e = g.vertex_count, g.edge_count
    if n >= 3 and (e > 3 * n - 6 or (e > 2 * n - 4 and _two_colorable(g.adj))):
        return False
    ok, _ = nx.check_planarity(to_networkx(g))
    return ok


def is_isomorphic(g: Graph, h: Graph):
    """Vertex bijection g -> h when isomorphic, else None.

    The mapping returned by the solver is re-validated edge by edge before
    being handed back, so a wrong mapping can never escape.
    """
    if g.vertex_count != h.vertex_count or g.edge_count != h.edge_count:
        return None
    # matched on integer ids, so the string hash seed cannot steer which
    # mapping VF2++ returns
    found = nx.vf2pp_isomorphism(to_networkx(g), to_networkx(h))
    if found is None:
        return None
    mapping = {g.vertices[a]: h.vertices[b] for a, b in found.items()}
    if sorted(mapping) != list(g.vertices) or sorted(mapping.values()) != list(h.vertices):
        raise GraphError("isomorphism solver returned a non-bijection")
    hedges = set(h.edges)
    for u, v in g.edges:
        a, b = mapping[u], mapping[v]
        if ((a, b) if a <= b else (b, a)) not in hedges:
            raise GraphError("isomorphism solver returned a non-edge-preserving map")
    return mapping


def block_decomposition(g: Graph) -> tuple[Graph, ...]:
    """Blocks (maximal 2-connected subgraphs, bridges included), sorted."""
    if not g.is_connected():
        raise GraphError("block decomposition needs a connected graph")
    blocks = []
    for edge_set in nx.biconnected_component_edges(to_networkx(g)):
        edges = [(g.vertices[u], g.vertices[v]) for u, v in edge_set]
        blocks.append(Graph({v for e in edges for v in e}, edges))
    blocks.sort(key=lambda b: (b.vertices, b.edges))
    # every edge lands in exactly one block
    counted = sum(b.edge_count for b in blocks)
    if counted != g.edge_count:
        raise GraphError("block decomposition lost or duplicated edges")
    return tuple(blocks)


# ============================================================
# Minor witnesses and search
# ============================================================

@dataclass(frozen=True)
class MinorWitness:
    """Disjoint connected branch sets, one per pattern vertex."""

    branch_sets: dict

    def to_json_dict(self) -> dict:
        return {"branch_sets": {k: sorted(v) for k, v in sorted(self.branch_sets.items())}}

    @classmethod
    def from_json_dict(cls, data: dict) -> "MinorWitness":
        try:
            return cls({
                k: frozenset(_json_strings(v, "branch set"))
                for k, v in data["branch_sets"].items()
            })
        except (KeyError, TypeError, AttributeError) as exc:
            raise GraphError(f"malformed minor witness: {exc}") from exc


def validate_minor_witness(host: Graph, pattern: Graph, witness: MinorWitness) -> None:
    """Raise GraphError unless the witness proves pattern is a minor of host."""
    sets = witness.branch_sets
    if sorted(sets) != list(pattern.vertices):
        raise GraphError("branch sets must be keyed by exactly the pattern vertices")
    ids: dict[str, set[int]] = {}
    used: set[int] = set()
    for pv, bs in sets.items():
        if not bs:
            raise GraphError(f"branch set for {pv!r} is empty")
        extra = set(bs) - host.index.keys()
        if extra:
            raise GraphError(f"branch set for {pv!r} uses unknown vertices {sorted(extra)!r}")
        ids[pv] = {host.index[v] for v in bs}
        if used & ids[pv]:
            raise GraphError("branch sets are not pairwise disjoint")
        used |= ids[pv]
        if not _connected(host.adj, ids[pv]):
            raise GraphError(f"branch set for {pv!r} is not connected in the host")
    for pu, pv in pattern.edges:
        b = ids[pv]
        if not any(w in b for x in ids[pu] for w in host.adj[x]):
            raise GraphError(f"no host edge realizes pattern edge ({pu!r}, {pv!r})")


# the node budget of find_minor when none is given
MINOR_BUDGET_DEFAULT = 10**7


@dataclass(frozen=True)
class MinorSearchResult:
    witness: "MinorWitness | None"
    exhausted: bool
    nodes: int


class _Budget(Exception):
    pass


def _kernelize(adj: dict[int, set[int]]) -> dict[tuple[int, int], tuple[int, ...]]:
    """Drop degree<=1 vertices and suppress degree-2 vertices, in place.

    ``adj`` maps vertex ids to neighbor-id sets. Sound and complete for
    patterns of minimum degree >= 3. Returns, for each kernel edge in
    both directions, the interior host path it stands for: ``paths[(u,
    w)]`` runs from u to w, so witnesses can be lifted back.
    """
    paths: dict[tuple[int, int], tuple[int, ...]] = {}
    changed = True
    while changed:
        changed = False
        for v in sorted(adj):
            deg = len(adj[v])
            if deg <= 1:
                for w in adj[v]:
                    adj[w].discard(v)
                    paths.pop((v, w), None)
                    paths.pop((w, v), None)
                del adj[v]
                changed = True
            elif deg == 2:
                u, w = sorted(adj[v])
                inner = paths.pop((u, v), ()) + (v,) + paths.pop((v, w), ())
                paths.pop((v, u), None)
                paths.pop((w, v), None)
                adj[u].discard(v)
                adj[w].discard(v)
                del adj[v]
                # suppressing would create a parallel edge; drop v instead
                if w not in adj[u]:
                    adj[u].add(w)
                    adj[w].add(u)
                    paths[(u, w)] = inner
                    paths[(w, u)] = inner[::-1]
                changed = True
    return paths


def _pattern_order(pattern: Graph) -> list:
    """Static placement order: most already-placed neighbors first.

    Starts from a highest-degree vertex and repeatedly picks the unplaced
    vertex with the most placed neighbors (ties: higher degree, then label),
    so adjacency constraints bind as early as possible.
    """
    start = max(pattern.vertices, key=lambda v: (pattern.degree(v), v))
    order = [start]
    placed = {start}
    while len(order) < pattern.vertex_count:
        best = None
        for v in sorted(pattern.vertices):
            if v in placed:
                continue
            k = sum(1 for w in pattern.neighbors(v) if w in placed)
            if k == 0:
                continue
            key = (-k, -pattern.degree(v), v)
            if best is None or key < best[0]:
                best = (key, v)
        if best is None:
            raise GraphError("minor search requires a connected pattern")
        order.append(best[1])
        placed.add(best[1])
    return order


def _symmetry_constraints(pattern: Graph, order: list) -> list[set]:
    """cons[j]: the levels ell < j such that some automorphism of pattern
    fixes order[:ell] pointwise and sends order[ell] to order[j].

    Read off the stabilizer chain of ``order`` without listing the group:
    one isomorphism test per same-degree pair, with order[:ell] labeled by
    level so that only their pointwise stabilizer matches.
    """
    g = to_networkx(pattern)
    h = g.copy()
    order = [pattern.index[v] for v in order]
    cons: list[set] = [set() for _ in order]
    for ell, v in enumerate(order):
        for j in range(ell + 1, len(order)):
            w = order[j]
            if len(pattern.adj[w]) != len(pattern.adj[v]):
                continue
            g.nodes[v]["pin"] = h.nodes[w]["pin"] = -1
            if nx.vf2pp_isomorphism(g, h, node_label="pin") is not None:
                cons[j].add(ell)
            del h.nodes[w]["pin"]
        g.nodes[v]["pin"] = h.nodes[v]["pin"] = ell
    return cons


def find_minor(
    host: Graph, pattern: Graph, budget: int = MINOR_BUDGET_DEFAULT
) -> MinorSearchResult:
    """Backtracking branch-set search for pattern as a minor of host.

    Depth-first passes over kernel bitmasks, the k-th pass allowing branch
    sets of at most k kernel vertices: pattern vertices are placed in a
    most-constrained-first order, candidate branch sets grow in a
    canonical anchor-then-frontier order, and wherever the stabilizer of
    levels 0..ell-1 sends level ell to level j, level j's branch set must
    have the larger minimum vertex, as in the lex-least of any witness's
    images under the pattern's automorphisms, so symmetric assignments
    are tried once. Deterministic, so the first witness found is stable.
    The result's `exhausted` flag is True only when a pass finished
    within budget without its cap ever cutting a branch set short: that
    pass searched the whole tree, which proves the pattern is not a minor.
    `nodes` counts branch-set candidates over all passes; a search the
    budget stops reports exactly `budget`.
    """
    if budget <= 0:
        raise GraphError("budget must be positive")
    if not pattern.vertices:
        return MinorSearchResult(MinorWitness({}), False, 0)
    if pattern.vertex_count > host.vertex_count:
        return MinorSearchResult(None, True, 0)

    # host ids from kernelization to the lifted witness
    adj = {v: set(nb) for v, nb in enumerate(host.adj)}
    paths = _kernelize(adj) if min(map(len, pattern.adj)) >= 3 and pattern.edge_count else {}
    nk = len(adj)
    if pattern.vertex_count > nk or 2 * pattern.edge_count > sum(map(len, adj.values())):
        return MinorSearchResult(None, True, 0)

    verts = sorted(adj)
    bit_of = {v: b for b, v in enumerate(verts)}
    nbr = [sum(1 << bit_of[w] for w in adj[v]) for v in verts]
    deg = [len(adj[v]) for v in verts]
    # per bit: neighbor mask, and degree less the ends of the tree edge to it
    by_bit = {1 << b: (nbr[b], deg[b] - 2) for b in range(len(verts))}

    order = _pattern_order(pattern)
    pos = {v: i for i, v in enumerate(order)}
    needed = [
        tuple(sorted(pos[w] for w in pattern.neighbors(v) if pos[w] < pos[v]))
        for v in order
    ]
    pdeg = [pattern.degree(v) for v in order]
    npat = len(order)

    # pattern automorphisms permute branch sets of any witness into another
    # witness, so only the lex-least representative (by branch-set minimum
    # vertex, in placement order) needs to be searched: each automorphism
    # pins an ordering between the first level it moves and that level's
    # image, and the lex-least witness satisfies every one of these at once
    cons = _symmetry_constraints(pattern, order)

    # fut[i]: (r, k) for each level r <= i whose pattern vertex still has
    # k > 0 edges unplaced after level i; each needs its own free neighbor
    # of r's branch set, since branch sets are disjoint and every one of
    # them must touch r's set through a distinct host vertex
    fut = [
        [(r, k) for r in range(i + 1)
         if (k := sum(1 for w in pattern.neighbors(order[r]) if pos[w] > i))]
        for i in range(npat)
    ]
    # anchor masks by kernel degree, highest first: pattern vertices needing
    # many boundary edges resolve fastest around the host's densest spots
    deg_classes = [sum(1 << b for b in range(nk) if deg[b] == d)
                   for d in sorted(set(deg), reverse=True)]

    nodes = 0
    sets = [0] * npat
    setadj = [0] * npat
    witness_box: list[list[int]] = []
    size_capped = False
    max_size = nk
    # the active placement's context, one slot per level: place(i) fills
    # slot i before its first grow(i, ...) and every grow(i, ...) returns
    # before place(i) does, while deeper levels write only deeper slots,
    # so slot i holds level i's context whenever grow(i, ...) reads it
    free_at = [0] * npat
    used_at = [0] * npat
    region_at = [0] * npat
    rest_at: list[list[tuple[int, int]]] = [[] for _ in range(npat)]
    slack_at = [0] * npat
    capped_at = [False] * npat

    # outdeg: degree sum of cur less the two ends of each spanning-tree
    # edge, an upper bound on the host edges leaving cur
    def grow(i: int, cur: int, curadj: int, frontier: int, banned: int,
             size: int, outdeg: int) -> bool:
        nonlocal nodes, size_capped
        if nodes == budget:
            raise _Budget
        nodes += 1
        # a required neighbor whose remaining contact zone is banned or
        # swallowed can never be reached by any extension of this set
        touches_all = True
        for rmask, radj in rest_at[i]:
            if not curadj & rmask:
                if not radj & ~(banned | cur):
                    return False
                touches_all = False
        if touches_all and outdeg >= pdeg[i]:
            nfree = free_at[i] & ~cur
            setadj[i] = curadj
            for r, k in fut[i]:
                if (setadj[r] & nfree).bit_count() < k:
                    break
            else:
                sets[i] = cur
                if place(i + 1, nfree, used_at[i] + size):
                    return True
                sets[i] = 0
        if size >= slack_at[i]:
            if capped_at[i] and frontier:
                size_capped = True
            return False
        # the frontier is disjoint from cur and banned, and its bits
        # leave it (and avail) as they are tried, lowest first
        ext = frontier
        avail = region_at[i] & ~(banned | cur)
        while ext:
            vb = ext & -ext
            ext ^= vb
            avail ^= vb
            nv, dv = by_bit[vb]
            if grow(i, cur | vb, curadj | nv, ext | (nv & avail), banned,
                    size + 1, outdeg + dv):
                return True
            banned |= vb
        return False

    def place(i: int, free: int, used: int) -> bool:
        if i == npat:
            witness_box.append(list(sets))
            return True
        true_slack = nk - used - (npat - i - 1)
        if true_slack < 1:
            return False
        req = needed[i]
        min_above = 0
        for ell in cons[i]:
            low = sets[ell] & -sets[ell]
            if low > min_above:
                min_above = low
        # the whole branch set must sit above every constraining minimum,
        # since growing can only lower a set's minimum vertex
        region = free & ~(min_above - 1) if min_above else free
        amask = setadj[req[0]] & region if req else region
        if not amask:
            return False
        capped = max_size < true_slack
        free_at[i] = free
        used_at[i] = used
        region_at[i] = region
        rest_at[i] = [(sets[r], setadj[r] & region) for r in req[1:]]
        slack_at[i] = max_size if capped else true_slack
        capped_at[i] = capped

        banned = 0
        for dm in deg_classes:
            todo = amask & dm
            while todo:
                ab = todo & -todo
                todo ^= ab
                a = ab.bit_length() - 1
                if grow(i, ab, nbr[a], nbr[a] & region & ~banned, banned, 1, deg[a]):
                    return True
                banned |= ab
        return False

    # deepen on the largest branch set allowed: small-cap passes are cheap
    # and most witnesses use small sets, while a pass that never hits its
    # cap has explored the whole tree and proves absence
    found = False
    exhausted = False
    try:
        for cap in range(1, nk + 1):
            max_size = cap
            size_capped = False
            if place(0, (1 << nk) - 1, 0):
                found = True
                break
            if not size_capped:
                exhausted = True
                break
    except _Budget:
        return MinorSearchResult(None, False, nodes)

    if not found:
        return MinorSearchResult(None, exhausted, nodes)
    # lift: a kernel edge between two branch sets adds its interior path
    # to the lower end's set, leaving the path's last host edge as the
    # cross connection (inside one set, the whole path joins that set)
    masks = witness_box[0]
    owner = {verts[b]: i for i in range(npat) for b in range(nk) if masks[i] >> b & 1}
    lifted = [set() for _ in range(npat)]
    for v, i in owner.items():
        lifted[i].add(v)
        for w in adj[v]:
            if v < w and w in owner:
                lifted[i].update(paths.get((v, w), ()))
    witness = MinorWitness(
        {order[i]: frozenset(host.vertices[v] for v in bs) for i, bs in enumerate(lifted)}
    )
    validate_minor_witness(host, pattern, witness)
    return MinorSearchResult(witness, False, nodes)
