"""Genus search: exhaustive and heuristic modes, the exact-genus
pipeline, and cross-validation against the brute-force oracle."""

import itertools
import json

import pytest

import latticegenus.search as search
from conftest import brute_force_genus, petersen_graph, sample_connected_graphs
from latticegenus import (
    GenusEstimate,
    Graph,
    InvariantError,
    SearchConfig,
    SearchError,
    SearchOutcome,
    VerifiedGenus,
    complete_bipartite,
    cycle_graph,
    double_k33_pattern,
    exact_genus_exhaustive,
    exact_genus_small,
    grid_graph,
    lattice_for,
    path_graph,
    rotation_count,
    search_embedding,
    verify_certificate,
)


def test_config_validation():
    with pytest.raises(SearchError):
        SearchConfig(1, mode="thorough")
    with pytest.raises(SearchError):
        SearchConfig(1, budget=0)
    with pytest.raises(SearchError):
        SearchConfig(-1)


@pytest.mark.parametrize("budget", [1, 10, 16, 17, 2000])
def test_heuristic_never_spends_more_than_its_budget(budget):
    # Z9xZ2xZ2 has a double-K3,3 minor, so genus >= 2, and the 13 faces
    # of genus 1 are under the 56 // 4 = 14 that the face floor allows:
    # the genus-1 search spends its whole budget
    outcome = search_embedding(lattice_for("Z9xZ2xZ2"), SearchConfig(1, budget=budget))
    assert outcome.status == "budget"
    assert outcome.evaluations == budget


def test_search_needs_a_connected_graph_with_edges():
    disconnected = Graph("abcd", [("a", "b"), ("c", "d")])
    with pytest.raises(SearchError):
        search_embedding(disconnected, SearchConfig(0))
    with pytest.raises(SearchError):
        search_embedding(Graph("a", []), SearchConfig(0))


def test_rotation_count_values():
    assert rotation_count(path_graph(3, prefix="P")) == 1
    assert rotation_count(cycle_graph(5, prefix="C")) == 1
    assert rotation_count(complete_bipartite(3, 3)) == 64
    k4 = Graph("abcd", [(u, v) for u, v in itertools.combinations("abcd", 2)])
    assert rotation_count(k4) == 16


def test_exhaustive_mode_refuses_huge_rotation_spaces():
    big = complete_bipartite(5, 5)
    # 11 faces at genus 3 fit under the 50 // 4 = 12 the girth allows, so
    # only the rotation count stops the search
    with pytest.raises(SearchError):
        search_embedding(big, SearchConfig(3, mode="exhaustive"))
    # 17 faces at genus 0 do not: Euler refutes it before the count matters
    refuted = search_embedding(big, SearchConfig(0, mode="exhaustive"))
    assert (refuted.status, refuted.evaluations) == ("exhausted", 0)


def test_k33_torus_found_and_sphere_refuted():
    g = complete_bipartite(3, 3)
    found = search_embedding(g, SearchConfig(1, mode="exhaustive"))
    assert found.status == "found"
    assert verify_certificate(g, found.certificate).genus == 1

    # a sphere embedding would need 5 quadrilaterals from 18 darts
    refuted = search_embedding(g, SearchConfig(0, mode="exhaustive"))
    assert refuted.status == "exhausted"
    assert refuted.certificate is None
    assert refuted.evaluations == 0

    # with the chord L1-L2 it has a triangle, and 6 faces fit in 20
    # darts, so past planarity only the DFS refutes the sphere
    chorded = Graph(g.vertices, [*g.edges, ("L1", "L2")])
    cfg = SearchConfig(0, mode="exhaustive")
    refuted = search._search_exhaustive(chorded, cfg, search._face_floor(chorded))
    assert refuted.status == "exhausted"
    assert refuted.certificate is None
    assert refuted.evaluations > 0
    assert search_embedding(chorded, cfg) == SearchOutcome.exhausted(0)


@pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
@pytest.mark.parametrize(
    "build", [lambda: lattice_for("Z4xZ4"), petersen_graph], ids=["Z4xZ4", "petersen"]
)
def test_sphere_refuted_by_planarity_before_any_evaluation(build, mode):
    # the face floor leaves genus 0 open on both: 11 faces fit in
    # 48 // 4 = 12, and 7 in 30 // 3 = 10
    g = build()
    outcome = search_embedding(g, SearchConfig(0, mode=mode))
    assert outcome == SearchOutcome.exhausted(0)


@pytest.mark.parametrize("mode", ["exhaustive", "heuristic"])
def test_found_outcome_carries_the_verifier_result(mode):
    g = complete_bipartite(3, 3)
    outcome = search_embedding(g, SearchConfig(1, mode=mode))
    assert outcome.status == "found"
    assert outcome.verified == verify_certificate(g, outcome.certificate)


def test_found_outcome_needs_a_verified_certificate():
    cert = search_embedding(grid_graph((1, 1)), SearchConfig(0)).certificate
    with pytest.raises(InvariantError):
        SearchOutcome("found", None, 1)
    with pytest.raises(InvariantError):
        SearchOutcome("found", cert, 1)
    with pytest.raises(InvariantError):
        SearchOutcome("found", None, 1, VerifiedGenus(2, 0))
    assert SearchOutcome("budget", None, 1).verified is None


def test_exhaustive_budget_runs_out_gracefully():
    # genus 2, so the torus is refuted only after tens of thousands of nodes
    g = double_k33_pattern()
    outcome = search_embedding(g, SearchConfig(1, mode="exhaustive", budget=3))
    assert outcome.status == "budget"
    assert outcome.certificate is None


def test_planar_grid_found_at_target_zero():
    g = grid_graph((2, 2))
    for mode in ("exhaustive", "heuristic"):
        outcome = search_embedding(g, SearchConfig(0, mode=mode))
        assert outcome.status == "found"
        assert verify_certificate(g, outcome.certificate).genus == 0


def test_rank_two_lattice_embeds_in_the_torus():
    g = lattice_for("Z8xZ4")
    outcome = search_embedding(g, SearchConfig(1, mode="heuristic", seed=0))
    assert outcome.status == "found"
    assert verify_certificate(g, outcome.certificate).genus == 1


def test_heuristic_search_is_reproducible():
    g = lattice_for("Z4xZ4")
    cfg = SearchConfig(1, mode="heuristic", seed=7, budget=10**5)
    first = search_embedding(g, cfg)
    second = search_embedding(g, cfg)
    assert first.status == second.status == "found"
    assert first.evaluations == second.evaluations
    a = json.dumps(first.certificate.to_json_dict(), sort_keys=True)
    b = json.dumps(second.certificate.to_json_dict(), sort_keys=True)
    assert a == b


def test_progress_callback_sees_each_restart():
    # 13 faces at genus 1, under the 56 // 4 = 14 that the floor allows
    g = lattice_for("Z9xZ2xZ2")
    seen = []
    outcome = search_embedding(
        g,
        SearchConfig(1, mode="heuristic", seed=1, budget=300_000),
        progress=lambda restart, best: seen.append((restart, best)),
    )
    # genus 1 is unreachable, so every restart runs and reports; restarts
    # that stall early leave budget for more than sixteen of them
    assert outcome.status == "budget"
    assert outcome.evaluations == 300_000
    assert [r for r, _ in seen] == list(range(20))
    assert all(isinstance(best, int) and best >= 1 for _, best in seen)


@pytest.mark.parametrize(
    "build, genus",
    [
        (lambda: cycle_graph(4, prefix="C"), 0),
        (lambda: Graph("abcd", [(u, v) for u, v in itertools.combinations("abcd", 2)]), 0),
        (lambda: Graph("abcde", [(u, v) for u, v in itertools.combinations("abcde", 2)]), 1),
        (lambda: complete_bipartite(3, 3), 1),
    ],
    ids=["c4", "k4", "k5", "k33"],
)
def test_exact_exhaustive_on_known_graphs(build, genus):
    g = build()
    value, cert = exact_genus_exhaustive(g)
    assert value == genus
    assert verify_certificate(g, cert).genus == genus


def test_exact_exhaustive_matches_the_oracle_on_a_sample():
    for g in sample_connected_graphs(25):
        value, cert = exact_genus_exhaustive(g)
        assert value == brute_force_genus(g)
        assert verify_certificate(g, cert).genus == value


def _with_pendants(g, count):
    """g with a path of ``count`` new vertices hung off its first vertex."""
    tail = [g.vertices[0], *(f"p{i}" for i in range(count))]
    return Graph([*g.vertices, *tail[1:]], [*g.edges, *zip(tail, tail[1:])])


def _ceiling_sample():
    """The oracle sample plus the shapes the face floor treats apart:
    trees (floor 2), cycles, girth 5, pendant vertices, and bipartite
    graphs Euler refutes on the sphere."""
    k4 = Graph("abcd", [(u, v) for u, v in itertools.combinations("abcd", 2)])
    star = Graph("habcd", [("h", x) for x in "abcd"])
    return [
        *sample_connected_graphs(25),
        path_graph(1, prefix="P"),
        path_graph(6, prefix="P"),
        star,
        _with_pendants(star, 2),
        cycle_graph(3, prefix="C"),
        cycle_graph(6, prefix="C"),
        petersen_graph(),
        _with_pendants(k4, 1),
        _with_pendants(complete_bipartite(3, 3), 2),
        complete_bipartite(3, 3),
        complete_bipartite(3, 4),
    ]


def test_face_ceiling_agrees_with_the_oracle_in_both_modes():
    ceiling_refutations = 0
    for g in _ceiling_sample():
        genus = brute_force_genus(g)
        for target in range(genus + 1):
            exhaustive = search_embedding(g, SearchConfig(target, mode="exhaustive"))
            heuristic = search_embedding(g, SearchConfig(target, budget=2000))
            if target < genus:
                assert exhaustive.status == "exhausted"
                assert heuristic.status in ("exhausted", "budget")
            else:
                assert exhaustive.status == "found"
                assert exhaustive.verified.genus == genus
                assert heuristic.status != "exhausted"
            # the heuristic refutes only through the ceiling, which
            # decides both modes alike and before any evaluation
            if heuristic.status == "exhausted":
                assert heuristic.evaluations == 0 == exhaustive.evaluations
                ceiling_refutations += 1
    assert ceiling_refutations >= 3


def test_exhaustive_search_assigns_forced_vertices_without_recursing():
    # one rotation system, 4000 vertices of degree 2: far deeper than
    # the interpreter's recursion limit if each vertex were a DFS level
    outcome = search_embedding(cycle_graph(4000), SearchConfig(0, mode="exhaustive"))
    assert (outcome.status, outcome.evaluations) == ("found", 1)
    assert outcome.verified.genus == 0


def test_genus_is_monotone_under_edge_removal():
    for g in sample_connected_graphs(8, seed=4):
        whole = brute_force_genus(g)
        for drop in g.edges:
            kept = [e for e in g.edges if e != drop]
            sub = Graph(g.vertices, kept)
            if not sub.is_connected():
                continue
            assert brute_force_genus(sub) <= whole


def test_exact_genus_small_planar_case():
    est = exact_genus_small(grid_graph((2, 2)))
    assert (est.lower, est.upper, est.exact) == (0, 0, True)
    assert est.provenance == ("planarity",)


def test_exact_genus_small_on_a_torus_lattice():
    est = exact_genus_small(lattice_for("Z4xZ4"), budget=10**5, seed=0)
    assert (est.lower, est.upper, est.exact) == (1, 1, True)
    assert est.provenance == ("nonplanar", "bound:euler", "search:heuristic")
    # K5 has a triangle, so only its nonplanarity bounds it below
    k5 = Graph("abcde", [(u, v) for u, v in itertools.combinations("abcde", 2)])
    est = exact_genus_small(k5)
    assert (est.lower, est.upper, est.exact) == (1, 1, True)
    assert est.provenance == ("nonplanar", "search:exhaustive")
    for g in (complete_bipartite(3, 3), petersen_graph(), lattice_for("Z8xZ4")):
        est = exact_genus_small(g)
        assert (est.lower, est.upper, est.exact) == (1, 1, True)
    est = exact_genus_small(complete_bipartite(4, 4), budget=10**5, seed=0)
    assert (est.lower, est.upper, est.exact) == (1, 1, True)


def test_exact_genus_small_adds_over_blocks():
    # two K33 blocks glued at a vertex need genus 2
    est = exact_genus_small(double_k33_pattern(), budget=10**5, seed=0)
    assert (est.lower, est.upper, est.exact) == (2, 2, True)
    assert est.provenance == (
        "block-additivity", "nonplanar", "bound:euler", "search:exhaustive"
    )


def test_exact_genus_small_matches_the_oracle_on_a_sample():
    for g in sample_connected_graphs(200):
        est = exact_genus_small(g)
        assert est.exact and est.lower == brute_force_genus(g)


def test_exact_genus_small_merges_outside_knowledge():
    known = GenusEstimate.at_least(1, ["external"])
    est = exact_genus_small(lattice_for("Z4xZ4"), budget=10**5, seed=0).merge(known)
    assert est.exact and est.lower == 1
    assert "external" in est.provenance


def test_exact_genus_small_starved_budget_stays_an_interval():
    est = exact_genus_small(lattice_for("Z16xZ4"), budget=10, seed=0)
    assert (est.lower, est.upper, est.exact) == (1, None, False)
    assert est.provenance[-1] == "search:budget"
