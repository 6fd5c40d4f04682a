"""Shared test helpers: a fixed corpus of small connected graphs and a
brute-force genus oracle that enumerates every rotation system with no
pruning."""

import itertools
import math
import random

from latticegenus import Graph


def brute_force_genus(g: Graph) -> int:
    """Exact genus by maximizing face count over all rotation systems.

    Written independently of the search module: faces are counted by
    walking the dart successor map until every dart is consumed.
    """
    vertices = list(g.vertices)
    per_vertex = []
    for v in vertices:
        nbrs = g.neighbors(v)
        # pinning the first neighbor drops cyclic relabelings of the
        # same rotation, which changes nothing about the face counts
        per_vertex.append(
            [(nbrs[0],) + rest for rest in itertools.permutations(nbrs[1:])]
        )
    best = 0
    for combo in itertools.product(*per_vertex):
        succ = {}
        for v, nbrs in zip(vertices, combo):
            for i, u in enumerate(nbrs):
                succ[(u, v)] = (v, nbrs[(i + 1) % len(nbrs)])
        remaining = set(succ)
        faces = 0
        while remaining:
            start = cur = next(iter(remaining))
            while True:
                remaining.discard(cur)
                cur = succ[cur]
                if cur == start:
                    break
            faces += 1
        best = max(best, faces)
    return (2 - g.vertex_count + g.edge_count - best) // 2


def sample_connected_graphs(
    count: int, seed: int = 20260819, max_rotations: int = 8000
) -> list[Graph]:
    """Fixed pseudorandom sample of connected graphs on 4..7 vertices,
    capped so the brute-force oracle stays enumerable."""
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        # alternate sparse and dense regimes: sparse graphs are mostly
        # planar, dense 5-6 vertex graphs supply the genus-1 cases
        if rng.random() < 0.5:
            n = rng.randint(4, 7)
            p = rng.choice((0.3, 0.4, 0.5, 0.6))
        else:
            n = rng.randint(5, 6)
            p = rng.choice((0.7, 0.8, 0.9))
        labels = [f"v{i}" for i in range(n)]
        edges = [
            (labels[i], labels[j])
            for i in range(n)
            for j in range(i + 1, n)
            if rng.random() < p
        ]

        parent = {v: v for v in labels}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for u, v in edges:
            parent[find(u)] = find(v)
        if len({find(v) for v in labels}) != 1:
            continue

        degree = {v: 0 for v in labels}
        for u, v in edges:
            degree[u] += 1
            degree[v] += 1
        rotations = 1
        for v in labels:
            rotations *= math.factorial(max(0, degree[v] - 1))
        if rotations > max_rotations:
            continue
        out.append(Graph(labels, edges))
    return out


def petersen_graph() -> Graph:
    """The Petersen graph: cubic, girth 5, genus 1."""
    outer = [f"o{i}" for i in range(5)]
    inner = [f"i{i}" for i in range(5)]
    edges = [(outer[i], outer[(i + 1) % 5]) for i in range(5)]
    edges += [(outer[i], inner[i]) for i in range(5)]
    edges += [(inner[i], inner[(i + 2) % 5]) for i in range(5)]
    return Graph(outer + inner, edges)
