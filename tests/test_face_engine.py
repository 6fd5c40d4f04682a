"""The face-tracing engine against slow references, the incremental face
counts of both searches against full recounts, and the searches against
pinned evaluation counts and faces."""

import json
import math
import random
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latticegenus.search as search
from latticegenus import (
    Graph,
    RotationSystem,
    SearchConfig,
    complete_bipartite,
    exact_genus_exhaustive,
    gn_graph,
    lattice_for,
    search_embedding,
    trace_faces,
    zppq_graph,
)
from latticegenus.embeddings import _Darts

from conftest import petersen_graph

PINS = json.loads((Path(__file__).parent / "search_pins.json").read_text())


def reference_faces(g, rot):
    """Label-keyed face tracer kept as the engine's oracle: darts in
    sorted (tail, head) order, each unseen dart starting a new walk."""
    index = {
        v: {u: i for i, u in enumerate(nbrs)} for v, nbrs in rot.order.items()
    }

    def next_dart(u, v):
        nbrs = rot.order[v]
        return v, nbrs[(index[v][u] + 1) % len(nbrs)]

    darts = sorted(
        [(u, v) for u, v in g.edges] + [(v, u) for u, v in g.edges]
    )
    seen = set()
    faces = []
    for start in darts:
        if start in seen:
            continue
        walk = []
        cur = start
        while cur not in seen:
            seen.add(cur)
            walk.append(cur[0])
            cur = next_dart(*cur)
        faces.append(tuple(walk))
    return tuple(faces)


def _random_rotation(g, rng):
    order = {}
    for v in g.vertices:
        nbrs = list(g.neighbors(v))
        rng.shuffle(nbrs)
        order[v] = tuple(nbrs)
    return RotationSystem(order)


@pytest.mark.parametrize(
    "build",
    [
        lambda: complete_bipartite(3, 3),
        lambda: gn_graph(6),
        lambda: zppq_graph(5),
        lambda: lattice_for("Z4xZ4"),
        lambda: lattice_for("Z2xZ2xZ3"),
    ],
    ids=["k33", "gn6", "zppq5", "Z4xZ4", "Z2xZ2xZ3"],
)
def test_engine_faces_equal_the_reference_exactly(build):
    g = build()
    rng = random.Random(20261018)
    for _ in range(30):
        rot = _random_rotation(g, rng)
        # same walks, same starting vertex, same order: not just the
        # same embedding up to canonical form
        assert trace_faces(g, rot).faces == reference_faces(g, rot)


def reference_face_count(darts, rotation):
    """The full retrace the heuristic ran on every move before its
    counts became incremental: rebuild next, walk all 2E darts."""
    nxt = darts.next_array(rotation)
    seen = bytearray(darts.count)
    faces = 0
    for d in range(darts.count):
        if seen[d]:
            continue
        faces += 1
        cur = d
        while not seen[cur]:
            seen[cur] = 1
            cur = nxt[cur]
    return faces


def reference_bound(nxt, unassigned_degree, floor):
    """The exhaustive prune's bound as it was before its tallies became
    incremental: three scans over every dart of the partial next array
    (-1 where the turn is not assigned yet), no face shorter than floor."""
    count = len(nxt)
    # upper bound on the final face count: closed faces plus the
    # best the open chains and unassigned turns could still yield
    pred_known = bytearray(count)
    for d in range(count):
        if nxt[d] >= 0:
            pred_known[nxt[d]] = 1
    visited = bytearray(count)
    chains = 0
    open_darts = 0
    for d in range(count):
        if pred_known[d] or visited[d]:
            continue
        chains += 1
        cur = d
        while cur >= 0 and not visited[cur]:
            visited[cur] = 1
            open_darts += 1
            cur = nxt[cur]
    closed = 0
    for d in range(count):
        if visited[d]:
            continue
        closed += 1
        cur = d
        while not visited[cur]:
            visited[cur] = 1
            cur = nxt[cur]
    return closed + min(chains, open_darts // floor, unassigned_degree)


def _nx_graph(g):
    h = nx.Graph()
    h.add_nodes_from(g.vertices)
    h.add_edges_from(g.edges)
    return h


def reference_floor(g):
    """The face-length floor from networkx: 2 on a tree, whose one face
    walks each edge both ways, else the least girth a 2-colouring allows."""
    h = _nx_graph(g)
    if nx.girth(h) == math.inf:
        return 2
    return 4 if nx.is_bipartite(h) else 3


def _check_swaps(g, rng, moves):
    """Random swaps at vertices of degree >= 3, each kept or reverted at
    random; after every swap and every revert the next array and the
    incremental face count must equal a full rebuild and recount."""
    darts = _Darts(g)
    movable = [v for v, nb in enumerate(g.adj) if len(nb) >= 3]
    rotation = [list(nb) for nb in g.adj]
    for rot in rotation:
        rng.shuffle(rot)
    nxt = darts.next_array(rotation)
    faces = len(darts.orbits(nxt))
    assert faces == reference_face_count(darts, rotation)
    for _ in range(moves if movable else 0):
        v = rng.choice(movable)
        i = rng.randrange(len(rotation[v]))
        delta = darts.swap_delta(nxt, rotation, v, i)
        darts.swap(nxt, rotation, v, i)
        assert nxt == darts.next_array(rotation)
        assert faces + delta == reference_face_count(darts, rotation)
        if rng.random() < 0.5:
            darts.swap(nxt, rotation, v, i)
            assert nxt == darts.next_array(rotation)
            assert faces == reference_face_count(darts, rotation)
        else:
            faces += delta


@pytest.mark.parametrize(
    "build",
    [
        lambda: complete_bipartite(3, 3),
        lambda: gn_graph(6),
        lambda: zppq_graph(5),
        lambda: lattice_for("Z4xZ4"),
        lambda: lattice_for("Z2xZ2xZ3"),
        lambda: lattice_for("Z360"),
    ],
    ids=["k33", "gn6", "zppq5", "Z4xZ4", "Z2xZ2xZ3", "Z360"],
)
def test_swap_face_counts_equal_a_full_recount(build):
    g = build()
    rng = random.Random(20261018)
    for _ in range(4):
        _check_swaps(g, rng, 150)


@st.composite
def _connected_graphs(draw):
    n = draw(st.integers(3, 9))
    labels = [f"v{i}" for i in range(n)]
    # a random spanning tree keeps the graph connected; extra edges on
    # top raise degrees past 3 so there are moves to make
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return Graph(labels, [(labels[i], labels[j]) for i, j in sorted(edges)])


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(g=_connected_graphs(), seed=st.integers(0, 2**32 - 1))
def test_swap_face_counts_equal_a_full_recount_on_random_graphs(g, seed):
    _check_swaps(g, random.Random(seed), 40)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(g=_connected_graphs())
def test_face_floor_never_exceeds_the_girth(g):
    floor = search._face_floor(g)
    assert floor == reference_floor(g)
    if g.edge_count == g.vertex_count - 1:
        assert floor == 2
    else:
        assert floor <= nx.girth(_nx_graph(g))


def test_face_floor_on_a_girth_five_graph():
    g = petersen_graph()
    assert (search._face_floor(g), nx.girth(_nx_graph(g))) == (3, 5)


@pytest.mark.parametrize(
    "build, genus",
    [
        (lambda: complete_bipartite(3, 3), 1),
        (lambda: complete_bipartite(3, 4), 1),
        (petersen_graph, 1),
    ],
    ids=["k33", "k34", "petersen"],
)
def test_prune_tallies_equal_the_rescan_at_every_node(monkeypatch, build, genus):
    g = build()
    floor = reference_floor(g)
    tallied = search._PartialRotation.bound
    checked = []

    def rescanned(state):
        value = tallied(state)
        assert value == reference_bound(state.nxt, state.unassigned_degree, floor)
        checked.append(value)
        return value

    monkeypatch.setattr(search._PartialRotation, "bound", rescanned)
    assert exact_genus_exhaustive(g)[0] == genus
    # Euler refutes K3,3 and K3,4 on the sphere before any DFS runs, and
    # their floor of 4 refutes it at the DFS root; with floor 2, still
    # admissible, the DFS walks the refutation and the tallies are checked
    floor = 2
    for target in range(genus):
        cfg = SearchConfig(target, mode="exhaustive")
        assert search._search_exhaustive(g, cfg, floor).status == "exhausted"
    assert len(checked) > 10


def _pinned(outcome):
    faces = outcome.certificate.faces if outcome.certificate else None
    return {
        "status": outcome.status,
        "evaluations": outcome.evaluations,
        "faces": None if faces is None else [list(f) for f in faces],
    }


# recorded values, never regenerated to make a test pass: a change to a
# face count, the search path or the dart order fails here


@pytest.mark.parametrize("group", sorted(PINS["heuristic"]))
def test_heuristic_torus_search_is_pinned(group):
    g = lattice_for(group, order_cap=None)
    outcome = search_embedding(g, SearchConfig(1, seed=0))
    assert _pinned(outcome) == PINS["heuristic"][group]


@pytest.mark.parametrize("key", sorted(PINS["exhaustive"]))
def test_exhaustive_search_is_pinned(key):
    shape, target = key.split("@")
    m, n = map(int, shape[1:].split(","))
    g = complete_bipartite(m, n)
    outcome = search_embedding(g, SearchConfig(int(target), mode="exhaustive"))
    assert _pinned(outcome) == PINS["exhaustive"][key]
