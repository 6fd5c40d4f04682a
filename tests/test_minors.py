"""Minor search on group lattices: the genus-2 witnesses and the
absence proofs that back them up.

``tests/minor_pins.json`` pins the search itself: for each (host,
pattern, budget) case it holds the node count, the ``exhausted`` flag
and the witness JSON the engine returned when the file was recorded.
Re-record it (and review the diff) with

    PYTHONPATH=src python tests/test_minors.py --record
"""

import functools
import itertools
import json
import random
import sys
from pathlib import Path

import networkx as nx
import pytest

from latticegenus import (
    Graph,
    GraphError,
    MinorSearchResult,
    MinorWitness,
    complete_bipartite,
    cycle_graph,
    double_k33_pattern,
    find_minor,
    grid_graph,
    lattice_for,
    validate_minor_witness,
)
from latticegenus.graphs import _pattern_order, _symmetry_constraints

BOWTIE_HOSTS = ["Z16xZ4", "Z8xZ8", "Z8xZ2xZ3", "Z9xZ3xZ2", "Z2xZ2xZ9"]
PINS_PATH = Path(__file__).parent / "minor_pins.json"


def _k5() -> Graph:
    return Graph("abcde", [(u, v) for u, v in itertools.combinations("abcde", 2)])


PATTERNS = {
    "bowtie": double_k33_pattern,
    "k33": lambda: complete_bipartite(3, 3),
    "k5": _k5,
    "k64": lambda: complete_bipartite(6, 4),
    "k4": lambda: Graph("abcd", itertools.combinations("abcd", 2)),
    "k23": lambda: complete_bipartite(2, 3),
    "c4": lambda: cycle_graph(4, prefix="C"),
}


def _random_host(seed: int, core: Graph | None = None) -> Graph:
    """``core`` (by default a dense random graph) with some edges
    subdivided and pendant trees hung on, labeled so that label order is
    unrelated to structure."""
    rng = random.Random(seed)
    if core is None:
        n = rng.randint(6, 9)
        edges = {(i - 1, i) for i in range(1, n)}
        edges |= {
            (u, v) for u, v in itertools.combinations(range(n), 2) if rng.random() < 0.5
        }
    else:
        index = {v: i for i, v in enumerate(core.vertices)}
        n = core.vertex_count
        edges = {(index[u], index[v]) for u, v in core.edges}
    nxt = n
    out = []
    for u, v in sorted(edges):
        if rng.random() < 0.35:
            chain = [u] + list(range(nxt, nxt + rng.randint(1, 3))) + [v]
            nxt = chain[-2] + 1
            out += zip(chain, chain[1:])
        else:
            out.append((u, v))
    for _ in range(rng.randint(1, 4)):
        at = rng.randrange(nxt)
        for _ in range(rng.randint(1, 3)):
            out.append((at, nxt))
            at, nxt = nxt, nxt + 1
    names = [f"n{i:02d}" for i in range(nxt)]
    rng.shuffle(names)
    return Graph(names, [(names[u], names[v]) for u, v in out])


def _subdivided_k33_with_pendants() -> Graph:
    """K3,3 with every edge subdivided once and a pendant path on each
    branch vertex, so kernelization both prunes and suppresses."""
    k33 = complete_bipartite(3, 3)
    edges = []
    for u, v in k33.edges:
        edges += [(u, f"s{u}{v}"), (f"s{u}{v}", v)]
    for v in k33.vertices:
        edges += [(v, f"t{v}"), (f"t{v}", f"u{v}")]
    return Graph({x for e in edges for x in e}, edges)


# (host, pattern, budget): crosscheck rows cheap enough to replay,
# Kuratowski witnesses and absence proofs in small lattices and grids, a
# budget stop, degree-2 patterns (searched without kernelization),
# random hosts whose witnesses pull in kernel-path interiors, absence
# proofs in decorated planar grids, and the dearest searches: the large
# witness hunts and the absence proofs that theory settles
PIN_CASES = [
    ("Z16xZ4", "bowtie", 10**7),
    ("Z8xZ2xZ3", "bowtie", 10**7),
    ("Z9xZ3xZ2", "bowtie", 10**7),
    ("Z2xZ2xZ9", "bowtie", 10**7),
    ("Z16xZ4", "bowtie", 10),
    ("Z2xZ2xZ3", "k33", 10**7),
    ("Z2xZ2xZ3", "k5", 10**7),
    ("Z4xZ4", "k33", 10**7),
    ("Z4xZ4", "k5", 10**7),
    ("Z4xZ2xZ3", "k33", 10**7),
    ("Z2xZ2", "k64", 10**7),
    ("Z4xZ4", "k23", 10**7),
    ("Z4xZ4", "c4", 10**7),
    ("2,2,2", "k33", 10**7),
    ("2,2,2", "k5", 10**7),
    ("3,3", "k5", 10**7),
    ("3,3", "k33", 10**7),
    ("subdivided-k33", "k33", 10**7),
    ("subdivided-k33", "k23", 10**7),
] + [
    (f"random-{seed}", pattern, 10**6)
    for seed, pattern in zip(range(8), ("k33", "k5", "k4", "k33", "k23", "k4", "c4", "k5"))
] + [("planar-0", "k5", 10**6), ("planar-1", "k33", 10**6)] + [
    (host, pattern, 10**7)
    for host, pattern in (
        ("Z8xZ8", "bowtie"), ("Z27xZ27", "bowtie"), ("Z3xZ3xZ4", "k64"), ("Z60", "k33"),
        ("Z72", "k5"), ("Z8xZ4", "bowtie"), ("Z9xZ9", "bowtie"), ("Z8xZ4", "k64"),
    )
]


def _pin_host(name: str) -> Graph:
    if name.startswith("random-"):
        return _random_host(int(name.removeprefix("random-")))
    if name.startswith("planar-"):
        return _random_host(int(name.removeprefix("planar-")), grid_graph((3, 3)))
    if name == "subdivided-k33":
        return _subdivided_k33_with_pendants()
    if name[0].isdecimal():
        return grid_graph(tuple(int(t) for t in name.split(",")))
    return lattice_for(name)


@functools.cache
def _search(host: str, pattern: str, budget: int) -> MinorSearchResult:
    """find_minor on a named host, run once per (host, pattern, budget) in
    this module: the witness tests and the pins share the dear searches
    (5 011 023 nodes for Z8xZ8 bowtie, 2 450 958 for Z3xZ3xZ4 k64)."""
    return find_minor(_pin_host(host), PATTERNS[pattern](), budget)


def _pin(host: str, pattern: str, budget: int) -> dict:
    result = _search(host, pattern, budget)
    return {
        "exhausted": result.exhausted,
        "nodes": result.nodes,
        "witness": None if result.witness is None else result.witness.to_json_dict(),
    }


def test_pattern_as_its_own_minor():
    g = complete_bipartite(3, 3)
    result = find_minor(g, g)
    assert result.witness is not None
    validate_minor_witness(g, g, result.witness)


def test_budget_must_be_positive():
    g = complete_bipartite(3, 3)
    with pytest.raises(GraphError):
        find_minor(g, g, budget=0)


def test_empty_pattern_is_a_minor_of_every_host():
    empty = Graph([], [])
    for host in (lattice_for("Z4"), empty):
        result = find_minor(host, empty)
        assert result == MinorSearchResult(MinorWitness({}), False, 0)
        validate_minor_witness(host, empty, result.witness)


def test_oversized_pattern_is_dismissed_without_search():
    result = find_minor(cycle_graph(4, prefix="C"), complete_bipartite(3, 3))
    assert result.witness is None
    assert result.exhausted
    assert result.nodes == 0


def test_small_nonplanar_lattice_contains_kuratowski_minors():
    # this 10-vertex lattice carries both kinds of nonplanarity witness;
    # the K5 one was validated by hand (branch sets {S12#0,S6#0},
    # {S4#0,S2#1}, {S6#2,S2#2}, {S6#1,S3#0}, {S1#0,S2#0} realize all
    # ten pattern edges)
    host = lattice_for("Z2xZ2xZ3")
    for pattern in (complete_bipartite(3, 3), _k5()):
        found = find_minor(host, pattern)
        assert found.witness is not None
        validate_minor_witness(host, pattern, found.witness)


def test_planar_grid_has_no_kuratowski_minor():
    host = grid_graph((3, 3))
    for pattern in (_k5(), complete_bipartite(3, 3)):
        result = find_minor(host, pattern)
        assert result.witness is None
        assert result.exhausted


@pytest.mark.parametrize("name", BOWTIE_HOSTS)
def test_double_k33_witness_in_rank_two_lattices(name):
    host = lattice_for(name)
    pattern = double_k33_pattern()
    result = _search(name, "bowtie", 10**7)
    assert result.witness is not None
    assert result.nodes <= 10**7
    validate_minor_witness(host, pattern, result.witness)


def test_k64_witness_in_z3z3z4():
    host = lattice_for("Z3xZ3xZ4")
    pattern = complete_bipartite(6, 4)
    result = _search("Z3xZ3xZ4", "k64", 10**7)
    assert result.witness is not None
    validate_minor_witness(host, pattern, result.witness)


def test_search_is_deterministic():
    host = lattice_for("Z16xZ4")
    pattern = double_k33_pattern()
    first = find_minor(host, pattern, budget=10**7)
    second = find_minor(host, pattern, budget=10**7)
    assert first.nodes == second.nodes
    assert first.witness.branch_sets == second.witness.branch_sets


def test_starved_budget_is_not_a_proof():
    host = lattice_for("Z16xZ4")
    result = find_minor(host, double_k33_pattern(), budget=10)
    assert result.witness is None
    assert not result.exhausted


def test_witness_survives_json_round_trip():
    host = lattice_for("Z2xZ2xZ3")
    pattern = complete_bipartite(3, 3)
    witness = find_minor(host, pattern).witness
    back = MinorWitness.from_json_dict(witness.to_json_dict())
    validate_minor_witness(host, pattern, back)


def test_witness_in_subdivided_host_pulls_in_path_interiors():
    # kernelization drops the pendant paths and suppresses every
    # subdivision vertex; the lift must put the interiors back
    host = _subdivided_k33_with_pendants()
    pattern = complete_bipartite(3, 3)
    result = find_minor(host, pattern)
    assert result.witness is not None
    validate_minor_witness(host, pattern, result.witness)
    used = set().union(*result.witness.branch_sets.values())
    assert any(v.startswith("s") for v in used)
    assert not any(v.startswith(("t", "u")) for v in used)


@pytest.mark.parametrize("pattern", ["k23", "c4"])
def test_low_degree_patterns_search_the_whole_host(pattern):
    host = lattice_for("Z4xZ4")
    result = find_minor(host, PATTERNS[pattern]())
    assert result.witness is not None
    validate_minor_witness(host, PATTERNS[pattern](), result.witness)


@pytest.mark.parametrize(
    "host,pattern,budget", PIN_CASES, ids=[f"{h}-{p}-{b}" for h, p, b in PIN_CASES]
)
def test_search_is_pinned(host, pattern, budget):
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    want = pins[f"{host} {pattern} {budget}"]
    assert _pin(host, pattern, budget) == want


@pytest.mark.parametrize("host,pattern", [("Z16xZ4", "bowtie"), ("Z4xZ4", "k5")])
def test_budget_of_exactly_the_nodes_needed_suffices(host, pattern):
    # a found case and an absence proof: the search that needs n nodes
    # finishes on budget n, and budget n - 1 stops it after n - 1 nodes
    want = json.loads(PINS_PATH.read_text(encoding="utf-8"))[f"{host} {pattern} {10**7}"]
    n = want["nodes"]
    assert _pin(host, pattern, n) == want
    assert _pin(host, pattern, n - 1) == {"exhausted": False, "nodes": n - 1, "witness": None}


def test_pins_cover_every_case_and_kind():
    pins = json.loads(PINS_PATH.read_text(encoding="utf-8"))
    assert sorted(pins) == sorted(f"{h} {p} {b}" for h, p, b in PIN_CASES)
    assert any(pin["witness"] for pin in pins.values())
    assert any(pin["exhausted"] for pin in pins.values())
    assert any(not pin["exhausted"] and not pin["witness"] for pin in pins.values())


def reference_constraints(pattern: Graph, order: list) -> list[set]:
    """The enumeration ``find_minor`` used before the stabilizer chain:
    list every automorphism and record its first moved level at the
    position of that level's image.  The loop is kept verbatim,
    including its cap on the number of automorphisms; only the networkx
    graph is built here, on labels."""
    pos = {v: i for i, v in enumerate(order)}
    npat = len(order)
    cons: list[set] = [set() for _ in range(npat)]
    auto_count = 0
    h = nx.Graph(pattern.edges)
    h.add_nodes_from(pattern.vertices)
    for sigma in nx.vf2pp_all_isomorphisms(h, h):
        auto_count += 1
        for ell in range(npat):
            img = sigma[order[ell]]
            if img != order[ell]:
                cons[pos[img]].add(ell)
                break
        if auto_count >= 100_000:
            break
    return cons


def _from_networkx(h: "nx.Graph") -> Graph:
    return Graph([str(v) for v in h], [(str(u), str(v)) for u, v in h.edges])


def _connected_gnp(seed: int) -> Graph:
    rng = random.Random(seed)
    n = rng.randint(4, 9)
    while True:
        h = nx.gnp_random_graph(n, rng.uniform(0.3, 0.8), seed=rng.randrange(10**6))
        if nx.is_connected(h):
            return _from_networkx(h)


CONSTRAINT_PATTERNS = PATTERNS | {
    "k44": lambda: complete_bipartite(4, 4),
    "petersen": lambda: _from_networkx(nx.petersen_graph()),
    "cube": lambda: _from_networkx(nx.convert_node_labels_to_integers(nx.hypercube_graph(3))),
} | {f"gnp-{seed}": (lambda seed=seed: _connected_gnp(seed)) for seed in range(32)}


@pytest.mark.parametrize("name", CONSTRAINT_PATTERNS)
def test_symmetry_constraints_match_automorphism_enumeration(name):
    pattern = CONSTRAINT_PATTERNS[name]()
    order = _pattern_order(pattern)
    assert _symmetry_constraints(pattern, order) == reference_constraints(pattern, order)


@pytest.mark.parametrize("m,n", [(3, 3), (4, 4), (6, 4), (3, 8)])
def test_symmetry_constraints_of_complete_bipartite(m, n):
    # S_m x S_n (with the side swap when m = n): once order[0] is pinned
    # the sides are fixed, and each level's orbit is the rest of its side;
    # K3,8 has 241 920 automorphisms, past the old enumeration's cap
    pattern = complete_bipartite(m, n)
    order = _pattern_order(pattern)
    cons = _symmetry_constraints(pattern, order)
    for j, w in enumerate(order):
        want = {ell for ell in range(j) if order[ell][0] == w[0] or (m == n and ell == 0)}
        assert cons[j] == want


def record() -> None:
    pins = {
        f"{h} {p} {b}": _pin(h, p, b) for h, p, b in PIN_CASES
    }
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: PYTHONPATH=src python tests/test_minors.py --record")
    record()
