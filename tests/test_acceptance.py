"""Acceptance gate: one test per headline capability.

Each criterion test asserts the mathematical content and its runtime
bound, then prints a single PASS line so a log scan (pytest -s) shows
the whole gate at a glance.  Content failures raise before the line is
printed, so every criterion yields exactly one verdict either way.
"""

from __future__ import annotations

import time
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import brute_force_genus, sample_connected_graphs
from latticegenus import (
    CertificateError,
    EmbeddingCertificate,
    Graph,
    RotationSystem,
    classify_cyclic,
    complete_bipartite,
    cycle_graph,
    double_k33_pattern,
    estimate_grid_genus,
    euler_lower_bound,
    exact_genus_exhaustive,
    exact_genus_small,
    fan_expansion,
    find_minor,
    genus_complete_bipartite,
    genus_grid_e1_2_2,
    genus_grid_e1_e2_1,
    girth,
    gn_certificate,
    grid_graph,
    grid_upper_bound,
    hn_certificate,
    is_isomorphic,
    is_planar,
    lattice_for,
    lift_certificate_to_lattice,
    parse_group_spec,
    trace_faces,
    validate_minor_witness,
    verify_certificate,
    white_genus,
    zppq_certificate,
)
from latticegenus.cli import main


def _pass(n: int, detail: str, t0: float, bound: float) -> None:
    elapsed = time.perf_counter() - t0
    print(f"criterion {n}: PASS {detail} [{elapsed:.2f}s, bound {bound:g}s]")
    assert elapsed < bound, f"criterion {n} took {elapsed:.2f}s, bound {bound:g}s"


def test_criterion_1_formula_goldens():
    t0 = time.perf_counter()
    checks = 0

    # genus 0: one or two distinct primes, any exponents
    for tup in [(1,), (4,), (9,), (1, 1), (2, 1), (3, 3), (5, 2), (9, 7)]:
        est = estimate_grid_genus(tup)
        assert est.exact and est.lower == 0, tup
        assert classify_cyclic(tup).label == "Genus0"
        checks += 1
    # genus 0: three primes with at most one exponent above 1
    for e in range(1, 10):
        assert genus_grid_e1_e2_1(e, 1) == 0
        assert classify_cyclic((e, 1, 1)).label == "Genus0"
        checks += 1

    # genus 1
    for e1, e2 in [(2, 2), (3, 2), (3, 3)]:
        assert genus_grid_e1_e2_1(e1, e2) == 1
        assert classify_cyclic((e1, e2, 1)).label == "Genus1"
        checks += 1
    assert white_genus((1, 1, 1, 1)) == 1
    assert classify_cyclic((1, 1, 1, 1)).label == "Genus1"
    checks += 1

    # genus 2 through 4 tables, three distinct primes
    by_genus = {
        2: [(4, 2), (4, 3), (5, 2), (5, 3)],
        3: [(6, 2), (6, 3), (7, 2), (7, 3)],
        4: [(8, 2), (8, 3), (9, 2), (9, 3), (4, 4), (5, 4), (5, 5)],
    }
    for g, pairs in by_genus.items():
        for e1, e2 in pairs:
            assert genus_grid_e1_e2_1(e1, e2) == g, (e1, e2)
            assert classify_cyclic((e1, e2, 1)).label == f"Genus{g}"
            checks += 1
    for e1 in (2, 3, 4):
        assert genus_grid_e1_2_2(e1) == e1
        assert classify_cyclic((e1, 2, 2)).label == f"Genus{e1}"
        checks += 1
    # four distinct primes
    for n in (2, 3, 4):
        assert white_genus((n, 1, 1, 1)) == n
        assert classify_cyclic((n, 1, 1, 1)).label == f"Genus{n}"
        checks += 1

    # the all-odd closed form agrees wherever both routes apply
    for tup, g in [
        ((3, 3, 1), 1),
        ((5, 3, 1), 2),
        ((7, 3, 1), 3),
        ((9, 3, 1), 4),
        ((5, 5, 1), 4),
    ]:
        assert white_genus(tup) == g
        checks += 1

    # (3,3,2) is the one table entry with no single closed form: the
    # upper-bound recurrence lands exactly on the table value, and the
    # matching lower bound is a minor argument (see the minors suite)
    assert grid_upper_bound((3, 3, 2)) == 4
    assert classify_cyclic((3, 3, 2)).label == "Genus4"
    checks += 1

    _pass(1, f"classification tables reproduced ({checks} tuples)", t0, 1.0)


def test_criterion_2_euler_eliminations():
    t0 = time.perf_counter()
    cases = [
        ("Z2xZ2xZ3xZ3", 30, 76, Fraction(5)),
        ("Z4xZ4xZ3", 30, 63, Fraction(7, 4)),
        ("Z2xZ2xZ3xZ5", 20, 44, Fraction(2)),
        ("Z3xZ3xZ2xZ5", 24, 56, Fraction(3)),
    ]
    for text, v, e, bound in cases:
        lattice = lattice_for(text)
        assert (lattice.vertex_count, lattice.edge_count) == (v, e), text
        assert euler_lower_bound(v, e) == bound, text
    _pass(2, "four quadrilateral edge-count eliminations", t0, 1.0)


def test_criterion_3_certificate_families():
    t0 = time.perf_counter()
    for n, g in [(2, 0), (6, 1), (10, 2), (14, 3)]:
        cert = gn_certificate(n)
        vg = verify_certificate(cert.graph, cert)
        assert (vg.genus, vg.faces) == (g, 5 * n // 2), n
    for n, g in [(5, 2), (9, 4), (13, 6)]:
        cert = hn_certificate(n)
        vg = verify_certificate(cert.graph, cert)
        assert (vg.genus, vg.faces) == (g, 5 * n + 2), n
    for p, g in [(3, 1), (5, 2), (7, 3)]:
        cert = zppq_certificate(p)
        vg = verify_certificate(cert.graph, cert)
        assert (vg.genus, vg.faces) == (g, 2 * p + 4), p
    _pass(3, "ten family certificates verified at their stated genus", t0, 1.0)


def test_criterion_4_fan_surgery_lift():
    t0 = time.perf_counter()
    cert = gn_certificate(6)
    g = cert.graph
    for i in range(1, 7):
        labels = [f"fan{i}_{j}" for j in range(1, 6)]
        g, cert = fan_expansion(g, cert, (f"alpha_{i}", f"beta_{i}"), 5, labels)
    assert (g.vertex_count, g.edge_count) == (45, 84)

    lattice = lattice_for("Z25xZ25")
    assert is_isomorphic(g, lattice) is not None
    lifted = lift_certificate_to_lattice(cert, lattice)
    assert verify_certificate(lattice, lifted).genus == 1
    _pass(4, "six 5-fans turn the 6-gadget into the Z25xZ25 lattice on the torus", t0, 5.0)


def test_criterion_5_exact_small_genus():
    t0 = time.perf_counter()
    groups = [
        "Z4xZ4",
        "Z9xZ9",
        "Z8xZ4",
        "Z2xZ2xZ3",
        "Z2xZ2xZ5",
        "Z4xZ2xZ3",
        "Z4xZ2xZ5",
        "Z3xZ3xZ2",
    ]
    for text in groups:
        lattice = lattice_for(text)
        assert not is_planar(lattice), text
        est = exact_genus_small(lattice, budget=10**6, seed=0)
        assert est.exact and est.lower == 1 and est.upper == 1, (text, est)
    _pass(5, f"exact genus 1 certified for {len(groups)} lattices", t0, 60.0)


def test_criterion_6_minor_witnesses():
    t0 = time.perf_counter()
    bowtie = double_k33_pattern()
    # two K33 blocks joined at a cut vertex force genus >= 2 additively
    assert 2 * genus_complete_bipartite(3, 3) == 2
    for text in ["Z16xZ4", "Z8xZ8", "Z8xZ2xZ3", "Z9xZ3xZ2", "Z2xZ2xZ9"]:
        lattice = lattice_for(text)
        result = find_minor(lattice, bowtie, budget=10**7)
        assert result.witness is not None, text
        validate_minor_witness(lattice, bowtie, result.witness)

    k64 = complete_bipartite(6, 4)
    assert genus_complete_bipartite(6, 4) == 2
    lattice = lattice_for("Z3xZ3xZ4")
    result = find_minor(lattice, k64, budget=10**7)
    assert result.witness is not None
    validate_minor_witness(lattice, k64, result.witness)
    _pass(6, "six genus>=2 minor witnesses found and validated", t0, 120.0)


def test_criterion_7_oracle_equivalence():
    t0 = time.perf_counter()
    graphs = sample_connected_graphs(200)
    histogram: dict[int, int] = {}
    for g in graphs:
        genus, _cert = exact_genus_exhaustive(g)
        assert genus == brute_force_genus(g)
        histogram[genus] = histogram.get(genus, 0) + 1
    assert sum(histogram.values()) == 200
    _pass(7, f"exhaustive search == brute-force oracle on 200 graphs {histogram}", t0, 120.0)


def test_criterion_8_crosscheck_gate(capsys):
    t0 = time.perf_counter()
    rc = main(["crosscheck"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "0 disagreements, 0 inconclusive" in out
    golden = Path(__file__).parent / "golden" / "crosscheck.txt"
    assert out == golden.read_text(encoding="utf-8")
    _pass(8, "crosscheck roster exits 0 with no disagreements", t0, 300.0)


def test_criterion_9_property_suites():
    t0 = time.perf_counter()

    # cyclic lattices are divisor grids
    cyclic = [
        "Z8",
        "Z12",
        "Z30",
        "Z60",
        "Z72",
        "Z180",
        "Z210",
        "Z360",
        "Z625",
        "Z1024",
        "Z1080",
        "Z2310",
    ]
    lattices = []
    for text in cyclic:
        spec = parse_group_spec(text, order_cap=None)
        lattice = lattice_for(spec, order_cap=None)
        assert is_isomorphic(lattice, grid_graph(spec.exponents)) is not None, text
        lattices.append(lattice)

    # no lattice in the corpus has a triangle (trees give girth inf)
    for text in [
        "Z4xZ2",
        "Z4xZ4",
        "Z8xZ4",
        "Z9xZ9",
        "Z25xZ25",
        "Z16xZ4",
        "Z8xZ8",
        "Z2xZ2xZ3",
        "Z4xZ2xZ5",
        "Z3xZ3xZ4",
        "Z8xZ2xZ3",
        "Z4xZ4xZ3",
        "Z2xZ2xZ3xZ3",
    ]:
        lattices.append(lattice_for(text))
    for lattice in lattices:
        assert girth(lattice) >= 4

    # certificate verifier rejects one violation of each invariant
    square = cycle_graph(4, prefix="c")
    good = (("c0", "c1", "c2", "c3"), ("c3", "c2", "c1", "c0"))
    assert verify_certificate(square, EmbeddingCertificate(square, good)).genus == 0

    def code_of(g: Graph, faces) -> str:
        with pytest.raises(CertificateError) as err:
            verify_certificate(g, EmbeddingCertificate(g, faces))
        return err.value.code

    # walk steps across a diagonal that is not an edge
    assert code_of(square, (("c0", "c2", "c1", "c3"), good[1])) == "non-edge"
    # one face missing, half the darts uncovered
    assert code_of(square, (good[0],)) == "edge-cover"
    # pinch point: rotation at the shared vertex splits into two cycles
    pinch = Graph("abcde", [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")])
    pinch_faces = (("a", "b", "c"), ("c", "b", "a"), ("a", "d", "e"), ("e", "d", "a"))
    assert code_of(pinch, pinch_faces) == "vertex-cycle"
    # two components cannot share one embedding surface
    two = Graph("abcdef", [("a", "b"), ("b", "c"), ("c", "a"), ("d", "e"), ("e", "f"), ("f", "d")])
    two_faces = (("a", "b", "c"), ("c", "b", "a"), ("d", "e", "f"), ("f", "e", "d"))
    assert code_of(two, two_faces) == "disconnected-graph"
    # rotation missing a vertex is not a rotation system of the graph
    with pytest.raises(CertificateError) as err:
        trace_faces(square, RotationSystem({"c0": ("c1", "c3")}))
    assert err.value.code == "invalid-rotation"

    _pass(9, "grid isomorphy, girth, and mutation rejections all hold", t0, 10.0)
