"""Graph type, constructors, and structural helpers."""

import itertools
import json
import random
import time

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latticegenus import (
    Graph,
    GraphError,
    MinorWitness,
    block_decomposition,
    complete_bipartite,
    cycle_graph,
    double_k33_pattern,
    girth,
    gn_graph,
    grid_edge_count,
    grid_graph,
    grid_vertex_count,
    hn_graph,
    is_isomorphic,
    is_planar,
    lattice_for,
    path_graph,
    validate_minor_witness,
    zppq_graph,
)


# ------------------------------------------------------------ the type


def test_graph_normalizes_and_validates():
    g = Graph({"b", "a", "c"}, [("b", "a"), ("a", "c")])
    assert g.vertices == ("a", "b", "c")
    assert g.edges == (("a", "b"), ("a", "c"))
    assert g.has_edge("b", "a")
    assert not g.has_edge("b", "c")
    assert g.neighbors("a") == ("b", "c")


def test_graph_numbers_vertices_by_sorted_label():
    g = Graph(["c", "a", "d", "b"], [("d", "a"), ("c", "a"), ("b", "c")])
    assert g.index == {"a": 0, "b": 1, "c": 2, "d": 3}
    assert g.adj == ((2, 3), (2,), (0, 1), (0,))
    assert [g.degree(v) for v in g.vertices] == [2, 1, 2, 1]
    # labels from outside the graph are a plain "no", not an error
    assert not g.has_edge("a", "zz") and not g.has_edge("zz", "a")
    with pytest.raises(GraphError):
        g.neighbors("zz")
    assert Graph([], []).is_connected()
    assert g.degree("a") == 2
    with pytest.raises(GraphError, match="unknown vertex 'zz'"):
        g.degree("zz")
    # a hub's long neighbor row answers like the edge list, at both ends
    hub = gn_graph(200)
    edges = set(hub.edges)
    assert max(len(row) for row in hub.adj) == 400
    for u, v in itertools.product(hub.vertices + ("zz",), repeat=2):
        assert hub.has_edge(u, v) == ((u, v) in edges or (v, u) in edges)


def test_graph_rejects_bad_edges():
    with pytest.raises(GraphError):
        Graph({"a"}, [("a", "a")])
    with pytest.raises(GraphError):
        Graph({"a"}, [("a", "b")])


def test_graph_refuses_repeated_edges():
    # the input lists two edges; storing one would certify another graph
    for repeat in [("a", "b"), ("b", "a")]:
        with pytest.raises(GraphError, match=r"edge \('a', 'b'\) is listed twice"):
            Graph({"a", "b", "c"}, [("a", "b"), ("b", "c"), repeat])


def test_graph_refuses_repeated_labels():
    with pytest.raises(GraphError, match="vertex 'b' is listed twice"):
        Graph(["a", "b", "c", "b"], [("a", "b")])


@pytest.mark.parametrize(
    "vertices, edges",
    [
        (["0", 1, "2"], [("0", "2")]),
        ([1, "1", "0"], [("0", "1")]),
        ([("a",), "b"], []),
        (["a", "b"], [("a", 1)]),
        (["a", "b"], [(["a"], "b")]),
    ],
    ids=["int-vertex", "int-beside-string", "tuple-vertex", "int-end", "list-end"],
)
def test_graph_refuses_non_string_labels(vertices, edges):
    # a label is never coerced: 1 and "1" are not one vertex
    with pytest.raises(GraphError, match="is not a string|leaves the vertex set"):
        Graph(vertices, edges)


@st.composite
def _labelled_edge_lists(draw):
    labels = draw(st.lists(st.text(max_size=3), min_size=1, max_size=8, unique=True))
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1 :]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    flips = draw(st.lists(st.booleans(), min_size=len(chosen), max_size=len(chosen)))
    edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(chosen, flips)]
    return draw(st.permutations(labels)), draw(st.permutations(edges))


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(graph=_labelled_edge_lists())
def test_graph_edge_order_matches_sorted_label_pairs(graph):
    # the edge list read off the id rows is the one a sort of the
    # (lower, higher) label pairs gives, whatever order the input takes
    vertices, edges = graph
    g = Graph(vertices, edges)
    assert g.vertices == tuple(sorted(vertices))
    assert g.edges == tuple(sorted((min(u, v), max(u, v)) for u, v in edges))
    nbrs = {v: [] for v in vertices}
    for u, v in edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    for v in vertices:
        assert g.adj[g.index[v]] == tuple(sorted(g.index[w] for w in nbrs[v]))


def test_graph_json_round_trip():
    g = grid_graph((2, 1))
    doc = g.to_json_dict()
    # stable shape: sorted vertex list, sorted pair list
    assert doc["vertices"] == sorted(doc["vertices"])
    assert doc["edges"] == sorted(doc["edges"])
    again = Graph.from_json_dict(json.loads(json.dumps(doc)))
    assert again == g


@pytest.mark.parametrize(
    "doc",
    [
        {"vertices": "abc", "edges": [["a", "b"]]},
        {"vertices": ["a", "b"], "edges": ["ab"]},
        {"vertices": ["a", "b"], "edges": "ab"},
        {"vertices": ["a", "b"], "edges": [{"a": 1, "b": 2}]},
    ],
    ids=["vertices-string", "edge-string", "edges-string", "edge-object"],
)
def test_graph_json_requires_arrays(doc):
    # a string or object read element-wise would name vertices that the
    # document never lists
    with pytest.raises(GraphError, match="malformed graph JSON"):
        Graph.from_json_dict(doc)


def test_graph_to_dot_mentions_all_edges():
    g = path_graph(2)
    dot = g.to_dot(name="p2")
    assert dot.startswith('graph "p2" {')
    for u, v in g.edges:
        assert f'"{u}" -- "{v}"' in dot


def test_connectivity_and_induced():
    g = Graph({"a", "b", "c", "d"}, [("a", "b"), ("c", "d")])
    assert not g.is_connected()
    # the subgraphs that {a, b} and {a, c} induce
    assert Graph({"a", "b"}, [("a", "b")]).is_connected()
    assert not Graph({"a", "c"}, []).is_connected()


# --------------------------------------------------------- constructors


def test_path_cycle_bipartite_shapes():
    assert path_graph(3).vertex_count == 4
    assert path_graph(3).edge_count == 3
    assert cycle_graph(5).edge_count == 5
    k33 = complete_bipartite(3, 3)
    assert k33.vertex_count == 6
    assert k33.edge_count == 9
    assert all(k33.degree(v) == 3 for v in k33.vertices)


def test_double_k33_pattern_shape():
    bowtie = double_k33_pattern()
    assert bowtie.vertex_count == 11
    assert bowtie.edge_count == 18
    degrees = sorted(bowtie.degree(v) for v in bowtie.vertices)
    # shared hub of two K33 copies has degree 6
    assert degrees == [3] * 10 + [6]
    blocks = block_decomposition(bowtie)
    assert len(blocks) == 2
    assert all(is_isomorphic(b, complete_bipartite(3, 3)) for b in blocks)


def test_grid_graph_is_product_of_paths():
    g = grid_graph((3, 2))
    assert g.vertex_count == grid_vertex_count((3, 2)) == 12
    assert g.edge_count == grid_edge_count((3, 2)) == 3 * 3 + 2 * 4
    # brute force: coordinate pairs joined when at L1 distance 1
    pairs = list(itertools.product(range(4), range(3)))
    direct = Graph(
        map(str, pairs),
        [(str(x), str(y)) for x, y in itertools.combinations(pairs, 2)
         if abs(x[0] - y[0]) + abs(x[1] - y[1]) == 1],
    )
    assert is_isomorphic(g, direct) is not None


def test_gadget_graph_shapes():
    g6 = gn_graph(6)
    assert g6.vertex_count == 15
    assert g6.edge_count == 30
    h5 = hn_graph(5)
    assert h5.vertex_count == 26
    assert h5.edge_count == 55
    z3 = zppq_graph(3)
    assert z3.vertex_count == 12
    assert z3.edge_count == 22  # 8*2 + 6 product edges


def test_zppq_graph_is_the_two_prime_lattice():
    assert is_isomorphic(zppq_graph(3), lattice_for("Z3xZ3xZ2")) is not None
    assert is_isomorphic(zppq_graph(5), lattice_for("Z5xZ5xZ2")) is not None


# ------------------------------------------------------ girth and blocks


def test_girth_values():
    assert girth(path_graph(4)) == float("inf")
    assert girth(cycle_graph(5)) == 5
    assert girth(complete_bipartite(3, 3)) == 4
    assert girth(grid_graph((2, 2))) == 4


def test_lattices_are_bipartite_girth_four():
    for text in ("Z4xZ4", "Z2xZ2xZ3", "Z8xZ4", "Z9xZ9"):
        lattice = lattice_for(text)
        assert girth(lattice) == 4


def _from_nx(h):
    return Graph([str(v) for v in h], [(str(u), str(v)) for u, v in h.edges])


@pytest.mark.parametrize("seed", range(40))
def test_girth_matches_networkx(seed):
    rng = random.Random(seed)
    h = nx.gnp_random_graph(rng.randint(1, 14), rng.uniform(0.05, 0.5), seed=seed)
    assert girth(_from_nx(h)) == nx.girth(h)


def test_girth_two_colors_every_component():
    # the C4's labels sort first; a 2-coloring that stopped after the
    # first component would set the floor at 4 and stop at the C4
    c4 = [("a0", "a1"), ("a1", "a2"), ("a2", "a3"), ("a3", "a0")]
    k3 = [("b0", "b1"), ("b1", "b2"), ("b2", "b0")]
    g = Graph({v for e in c4 + k3 for v in e}, c4 + k3)
    assert g.vertices[0] == "a0"
    assert girth(g) == 3


@pytest.mark.parametrize("seed", range(40))
def test_planarity_matches_networkx(seed):
    rng = random.Random(seed)
    h = nx.gnp_random_graph(rng.randint(1, 14), rng.uniform(0.05, 0.7), seed=seed)
    assert is_planar(_from_nx(h)) == nx.check_planarity(h)[0]


def test_planarity_matches_networkx_on_dense_bipartite_graphs():
    crossed = 0
    for seed in range(60):
        rng = random.Random(seed)
        h = nx.bipartite.random_graph(
            rng.randint(2, 7), rng.randint(2, 7), rng.uniform(0.3, 0.9), seed=seed
        )
        n, e = h.number_of_nodes(), h.number_of_edges()
        crossed += 2 * n - 4 < e <= 3 * n - 6
        assert is_planar(_from_nx(h)) == nx.check_planarity(h)[0], seed
    # enough of them sit between the two Euler bounds to test the second
    assert crossed >= 15


@pytest.mark.parametrize(
    "h, planar",
    [
        # e = 10 > 3n - 6 = 9
        pytest.param(nx.complete_graph(5), False, id="K5"),
        # bipartite, e = 9 > 2n - 4 = 8
        pytest.param(nx.complete_bipartite_graph(3, 3), False, id="K3,3"),
        # bipartite, e = 12 = 2n - 4: the bound is strict
        pytest.param(nx.hypercube_graph(3), True, id="Q3"),
        # not bipartite, e = 15 <= 3n - 6 = 24: networkx decides
        pytest.param(nx.petersen_graph(), False, id="Petersen"),
        pytest.param(nx.complete_graph(1), True, id="K1"),
        # e = 1 > 3n - 6 = 0, so the bounds need n >= 3
        pytest.param(nx.complete_graph(2), True, id="K2"),
    ],
)
def test_planarity_at_the_euler_bounds(h, planar):
    assert nx.check_planarity(h)[0] == planar
    assert is_planar(_from_nx(h)) == planar


def _partitions(k, most=None):
    most = k if most is None else most
    if k == 0:
        yield ()
    for first in range(min(k, most), 0, -1):
        for rest in _partitions(k - first, first):
            yield (first, *rest)


def _abelian_groups(max_order):
    """One expression per isomorphism class of abelian group of order
    2..max_order: a partition of each prime's exponent."""
    for n in range(2, max_order + 1):
        choices, m = [], n
        for p in range(2, n + 1):
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            if e:
                choices.append(["x".join(f"Z{p**k}" for k in part) for part in _partitions(e)])
        for combo in itertools.product(*choices):
            yield "x".join(combo)


def _big_omega(n):
    count, p = 0, 2
    while n > 1:
        while n % p == 0:
            n //= p
            count += 1
        p += 1
    return count


def test_omega_parity_two_colors_every_small_lattice():
    # a cover has prime index, so it changes Omega(|H|) by exactly 1: this
    # is why the Euler bound needs no girth check on lattices
    groups = list(_abelian_groups(64))
    assert len(groups) == 116
    for text in groups:
        lattice = lattice_for(text)
        color = {v: _big_omega(int(v[1:v.index("#")])) % 2 for v in lattice.vertices}
        assert all(color[u] != color[v] for u, v in lattice.edges), text


def test_block_decomposition_splits_at_cut_vertices():
    g = Graph(
        {"a", "b", "c", "d", "e"},
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")],
    )
    blocks = block_decomposition(g)
    assert len(blocks) == 2
    assert sorted(b.vertex_count for b in blocks) == [3, 3]


def test_planarity_and_isomorphism():
    assert is_planar(grid_graph((3, 3)))
    assert not is_planar(complete_bipartite(3, 3))
    assert is_isomorphic(cycle_graph(4), grid_graph((1, 1))) is not None
    assert is_isomorphic(cycle_graph(4), path_graph(3)) is None
    mapping = is_isomorphic(cycle_graph(3), cycle_graph(3))
    assert mapping is not None and set(mapping) == set(cycle_graph(3).vertices)


def _fanned_gadget(p):
    """G_{p+1} with each rim edge alpha_i-beta_i replaced by p paths of
    length 2, written here from the gadget's edge list."""
    g = gn_graph(p + 1)
    rim = {(f"alpha_{i}", f"beta_{i}") for i in range(1, p + 2)}
    edges = [e for e in g.edges if e not in rim and e[::-1] not in rim]
    fans = []
    for i in range(1, p + 2):
        for j in range(1, p + 1):
            w = f"fan{i}_{j}"
            fans.append(w)
            edges += [(f"alpha_{i}", w), (w, f"beta_{i}")]
    return Graph(set(g.vertices) | set(fans), edges)


def _relabeled(g, seed):
    labels = list(g.vertices)
    random.Random(seed).shuffle(labels)
    new = {v: f"x{i}" for i, v in enumerate(labels)}
    return Graph(set(new.values()), [(new[u], new[v]) for u, v in g.edges])


@pytest.mark.parametrize(
    "pair",
    [
        lambda: (_fanned_gadget(5), lattice_for("Z25xZ25")),
        lambda: (_fanned_gadget(13), lattice_for("Z169xZ169", order_cap=None)),
        lambda: (complete_bipartite(2, 60), _relabeled(complete_bipartite(2, 60), 1)),
        lambda: (lattice_for("Z31xZ31"), _relabeled(lattice_for("Z31xZ31"), 2)),
    ],
    ids=["fan-gadget-25", "fan-gadget-169", "k2-60", "z31xz31"],
)
def test_isomorphism_on_banks_of_twins_is_fast(pair):
    # many degree-2 vertices share both neighbors: interchangeable twins
    # a backtracking matcher must not thrash over
    g, h = pair()
    start = time.perf_counter()
    mapping = is_isomorphic(g, h)
    assert time.perf_counter() - start < 1.0
    assert mapping is not None
    assert sorted(mapping.values()) == list(h.vertices)
    assert all(h.has_edge(mapping[u], mapping[v]) for u, v in g.edges)


# ---------------------------------------------------------- minor tools


def test_witness_validation_accepts_hand_witness():
    # C4 is a minor of C6: merge two opposite pairs
    host = cycle_graph(6, prefix="C")
    pattern = cycle_graph(4, prefix="Q")
    witness = MinorWitness(
        {
            "Q0": frozenset({"C0", "C1"}),
            "Q1": frozenset({"C2"}),
            "Q2": frozenset({"C3", "C4"}),
            "Q3": frozenset({"C5"}),
        }
    )
    validate_minor_witness(host, pattern, witness)


@pytest.mark.parametrize(
    "branch_sets",
    [
        # missing a pattern vertex
        {"Q0": {"C0"}, "Q1": {"C2"}, "Q2": {"C3"}},
        # overlapping sets
        {"Q0": {"C0", "C1"}, "Q1": {"C1"}, "Q2": {"C3"}, "Q3": {"C5"}},
        # disconnected branch set
        {"Q0": {"C0", "C2"}, "Q1": {"C1"}, "Q2": {"C3"}, "Q3": {"C5"}},
        # pattern edge with no host edge between the sets
        {"Q0": {"C0"}, "Q1": {"C2"}, "Q2": {"C3"}, "Q3": {"C5"}},
        # unknown host vertex
        {"Q0": {"X"}, "Q1": {"C2"}, "Q2": {"C3"}, "Q3": {"C5"}},
    ],
)
def test_witness_validation_rejects_corruptions(branch_sets):
    host = cycle_graph(6, prefix="C")
    pattern = cycle_graph(4, prefix="Q")
    witness = MinorWitness({k: frozenset(v) for k, v in branch_sets.items()})
    with pytest.raises(GraphError):
        validate_minor_witness(host, pattern, witness)


def test_witness_validation_rejects_a_disconnected_branch_set():
    # every pattern edge is realized, so only the connectivity check can fail
    host = cycle_graph(6, prefix="C")
    pattern = Graph(["a", "b"], [("a", "b")])
    witness = MinorWitness({"a": frozenset({"C0", "C2"}), "b": frozenset({"C1"})})
    with pytest.raises(GraphError, match="not connected"):
        validate_minor_witness(host, pattern, witness)


def test_witness_json_round_trip():
    witness = MinorWitness({"a": frozenset({"x", "y"}), "b": frozenset({"z"})})
    doc = witness.to_json_dict()
    assert doc == {"branch_sets": {"a": ["x", "y"], "b": ["z"]}}
    assert MinorWitness.from_json_dict(doc) == witness
    with pytest.raises(GraphError):
        MinorWitness.from_json_dict({"nope": 1})
    # a string branch set is not the set of its characters
    with pytest.raises(GraphError, match="branch set must be an array"):
        MinorWitness.from_json_dict({"branch_sets": {"x": "abc"}})
    # nor is an entry coerced to the string it prints as
    with pytest.raises(GraphError, match="branch set entry 1 is not a string"):
        MinorWitness.from_json_dict({"branch_sets": {"x": ["a", 1]}})
