"""Genus search: exhaustive and heuristic modes, the exact-genus
pipeline, and cross-validation against the brute-force oracle."""

import itertools
import json

import pytest

from conftest import brute_force_genus, sample_connected_graphs
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
    # Z4xZ4 is not planar, so the genus-0 search spends its whole budget
    outcome = search_embedding(lattice_for("Z4xZ4"), SearchConfig(0, budget=budget))
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
    with pytest.raises(SearchError):
        search_embedding(big, SearchConfig(0, mode="exhaustive"))


def test_k33_torus_found_and_sphere_refuted():
    g = complete_bipartite(3, 3)
    found = search_embedding(g, SearchConfig(1, mode="exhaustive"))
    assert found.status == "found"
    assert verify_certificate(g, found.certificate).genus == 1

    refuted = search_embedding(g, SearchConfig(0, mode="exhaustive"))
    assert refuted.status == "exhausted"
    assert refuted.certificate is None
    assert refuted.evaluations > 0


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
    g = complete_bipartite(3, 3)
    outcome = search_embedding(g, SearchConfig(0, mode="exhaustive", budget=3))
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
    g = complete_bipartite(3, 3)
    seen = []
    outcome = search_embedding(
        g,
        SearchConfig(0, mode="heuristic", seed=1, budget=300_000),
        progress=lambda restart, best: seen.append((restart, best)),
    )
    # genus 0 is unreachable, so every restart runs and reports; restarts
    # that stall early leave budget for more than sixteen of them
    assert outcome.status == "budget"
    assert outcome.evaluations == 300_000
    assert [r for r, _ in seen] == list(range(25))
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
    assert est.exact and est.lower == 0 == est.upper
    assert "planarity" in est.provenance


def test_exact_genus_small_on_a_torus_lattice():
    est = exact_genus_small(lattice_for("Z4xZ4"), budget=10**5, seed=0)
    assert est.exact and est.lower == 1 and est.upper == 1


def test_exact_genus_small_adds_over_blocks():
    # two K33 blocks glued at a vertex need genus 2
    est = exact_genus_small(double_k33_pattern(), budget=10**5, seed=0)
    assert est.exact and est.lower == 2 == est.upper


def test_exact_genus_small_merges_outside_knowledge():
    known = GenusEstimate.at_least(1, ["external"])
    est = exact_genus_small(lattice_for("Z4xZ4"), budget=10**5, seed=0).merge(known)
    assert est.exact and est.lower == 1
    assert "external" in est.provenance


def test_exact_genus_small_starved_budget_stays_an_interval():
    est = exact_genus_small(lattice_for("Z16xZ4"), budget=10, seed=0)
    assert not est.exact
    assert est.lower >= 1
    assert est.upper is None or est.upper > est.lower
