"""Embedding certificates: verification, face tracing, the three
certificate families, and fan surgery."""

import itertools
import random

import pytest

from latticegenus import (
    CertificateError,
    EmbeddingCertificate,
    Graph,
    InvariantError,
    VerifiedGenus,
    complete_bipartite,
    cycle_graph,
    fan_expansion,
    gn_certificate,
    gn_graph,
    hn_certificate,
    is_isomorphic,
    lattice_for,
    lift_certificate_to_lattice,
    trace_faces,
    verify_certificate,
    zppq_certificate,
    zppq_graph,
)


def _all_rotations(g):
    """Every rotation system of g, with the first listed neighbor pinned
    so that cyclic relabelings of the same rotation appear once."""
    per_vertex = []
    vertices = list(g.vertices)
    for v in vertices:
        nbrs = g.neighbors(v)
        per_vertex.append(
            [(nbrs[0],) + rest for rest in itertools.permutations(nbrs[1:])]
        )
    for combo in itertools.product(*per_vertex):
        yield dict(zip(vertices, combo))


def _random_rotation(g, rng):
    order = {}
    for v in g.vertices:
        nbrs = list(g.neighbors(v))
        rng.shuffle(nbrs)
        order[v] = tuple(nbrs)
    return order


def test_four_cycle_traces_to_a_sphere():
    g = cycle_graph(4, prefix="C")
    # degree-2 vertices admit a single cyclic order, so any assignment
    # is the planar one
    cert = trace_faces(g, {v: g.neighbors(v) for v in g.vertices})
    assert verify_certificate(g, cert) == VerifiedGenus(2, 0)


def test_k4_has_a_planar_rotation():
    g = Graph("abcd", [(u, v) for u, v in itertools.combinations("abcd", 2)])
    outcomes = {verify_certificate(g, trace_faces(g, rot)) for rot in _all_rotations(g)}
    assert VerifiedGenus(4, 0) in outcomes
    assert min(out.genus for out in outcomes) == 0


def test_k33_never_embeds_in_the_sphere():
    g = complete_bipartite(3, 3)
    genera = {
        verify_certificate(g, trace_faces(g, rot)).genus
        for rot in _all_rotations(g)
    }
    assert min(genera) == 1


def test_traced_faces_always_verify():
    corpus = [
        cycle_graph(5, prefix="C"),
        complete_bipartite(3, 3),
        gn_graph(6),
        zppq_graph(3),
    ]
    rng = random.Random(20260819)
    for g in corpus:
        cap = (g.edge_count - g.vertex_count + 1) // 2
        for _ in range(20):
            cert = trace_faces(g, _random_rotation(g, rng))
            result = verify_certificate(g, cert)
            assert 0 <= result.genus <= cap


@pytest.mark.parametrize(
    "n, genus", [(2, 0), (6, 1), (10, 2), (14, 3)]
)
def test_fan_gadget_certificates(n, genus):
    cert = gn_certificate(n)
    result = verify_certificate(cert.graph, cert)
    assert result == VerifiedGenus(5 * n // 2, genus)


@pytest.mark.parametrize("n, genus", [(5, 2), (9, 4), (13, 6)])
def test_doubled_gadget_certificates(n, genus):
    cert = hn_certificate(n)
    result = verify_certificate(cert.graph, cert)
    assert result == VerifiedGenus(5 * n + 2, genus)


@pytest.mark.parametrize("p, genus", [(3, 1), (5, 2), (7, 3)])
def test_two_prime_certificates(p, genus):
    cert = zppq_certificate(p)
    result = verify_certificate(cert.graph, cert)
    assert result == VerifiedGenus(2 * p + 4, genus)


def test_two_prime_certificate_shape_at_three():
    cert = zppq_certificate(3)
    assert cert.graph.vertex_count == 12
    assert cert.graph.edge_count == 22
    assert len(cert.faces) == 10


@pytest.mark.parametrize(
    "factory, bad",
    [
        (gn_certificate, 0),
        (gn_certificate, 4),
        (gn_certificate, 7),
        (hn_certificate, 1),
        (hn_certificate, 7),
        (hn_certificate, 12),
        (zppq_certificate, 2),
        (zppq_certificate, 9),
        (zppq_certificate, 15),
    ],
)
def test_family_parameter_validation(factory, bad):
    with pytest.raises(CertificateError) as err:
        factory(bad)
    assert err.value.code == "bad-parameter"


def test_rejects_certificate_with_a_face_deleted():
    cert = gn_certificate(6)
    mutated = EmbeddingCertificate(cert.graph, cert.faces[1:])
    with pytest.raises(CertificateError) as err:
        verify_certificate(cert.graph, mutated)
    assert err.value.code == "edge-cover"


def test_rejects_certificate_with_a_face_duplicated():
    cert = gn_certificate(6)
    mutated = EmbeddingCertificate(cert.graph, cert.faces + cert.faces[:1])
    with pytest.raises(CertificateError) as err:
        verify_certificate(cert.graph, mutated)
    assert err.value.code == "edge-cover"


def test_rejects_walk_through_a_non_edge():
    cert = gn_certificate(6)
    mutated = EmbeddingCertificate(
        cert.graph, (("alpha_1", "alpha_2", "b"),) + cert.faces[1:]
    )
    with pytest.raises(CertificateError) as err:
        verify_certificate(cert.graph, mutated)
    assert err.value.code == "non-edge"


def test_rejects_single_vertex_walk():
    cert = gn_certificate(6)
    mutated = EmbeddingCertificate(cert.graph, cert.faces + (("a",),))
    with pytest.raises(CertificateError) as err:
        verify_certificate(cert.graph, mutated)
    assert err.value.code == "non-edge"


def test_rejects_double_cover_that_is_not_a_rotation():
    # two triangles glued at a: tracing each triangle in both directions
    # covers every dart once but splits a's turn map into two 2-cycles
    g = Graph(
        "abcde",
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e"), ("e", "a")],
    )
    faces = (("a", "b", "c"), ("c", "b", "a"), ("a", "d", "e"), ("e", "d", "a"))
    with pytest.raises(CertificateError) as err:
        verify_certificate(g, EmbeddingCertificate(g, faces))
    assert err.value.code == "vertex-cycle"


def test_rejects_disconnected_graph():
    g = Graph(
        "abcxyz",
        [("a", "b"), ("b", "c"), ("c", "a"), ("x", "y"), ("y", "z"), ("z", "x")],
    )
    faces = (
        ("a", "b", "c"),
        ("c", "b", "a"),
        ("x", "y", "z"),
        ("z", "y", "x"),
    )
    with pytest.raises(CertificateError) as err:
        verify_certificate(g, EmbeddingCertificate(g, faces))
    assert err.value.code == "disconnected-graph"


def test_rejects_one_vertex_certificate_without_crashing():
    # an isolated vertex has no turns; V-E+F = 1 is odd, so no surface
    g = Graph("a", [])
    cert = EmbeddingCertificate(g, ())
    with pytest.raises(CertificateError) as err:
        verify_certificate(g, cert)
    assert err.value.code == "bad-genus"
    assert str(err.value) == "V-E+F = 1 gives no orientable genus"


def test_rejects_the_empty_graph():
    # the empty graph is connected, and V-E+F = 0 would read as genus 1
    g = Graph([], [])
    with pytest.raises(CertificateError) as err:
        verify_certificate(g, EmbeddingCertificate(g, ()))
    assert err.value.code == "empty-graph"


def test_family_and_fan_checks_raise_on_a_wrong_genus(monkeypatch):
    # a verifier that disagrees with the published counts must stop the
    # generators with an explicit error, not an assert
    monkeypatch.setattr(
        "latticegenus.embeddings.verify_certificate",
        lambda g, cert: VerifiedGenus(len(cert.faces), g.vertex_count),
    )
    with pytest.raises(InvariantError):
        gn_certificate(6)
    cert = EmbeddingCertificate(
        cycle_graph(4, prefix="C"), (("C0", "C1", "C2", "C3"), ("C3", "C2", "C1", "C0"))
    )
    with pytest.raises(InvariantError):
        fan_expansion(cert.graph, cert, ("C0", "C1"), 2, ["w0", "w1"])


def test_rotation_must_cover_the_vertex_set():
    g = cycle_graph(4, prefix="C")
    with pytest.raises(CertificateError) as err:
        trace_faces(g, {"C0": ("C1", "C3")})
    assert err.value.code == "invalid-rotation"


def test_rotation_must_permute_each_neighborhood():
    g = complete_bipartite(2, 2)
    order = {v: g.neighbors(v) for v in g.vertices}
    # a repeated label, or an entry that is no label at all (1 is not "1")
    for bad in ("R1", 1, None, ["R1"]):
        order["L1"] = ("R1", bad)
        with pytest.raises(CertificateError) as err:
            trace_faces(g, order)
        assert err.value.code == "invalid-rotation"
        assert str(err.value) == "rotation at 'L1' is not a permutation of its neighbors"


def test_certificate_json_round_trip():
    cert = zppq_certificate(3)
    data = cert.to_json_dict()
    back = EmbeddingCertificate.from_json_dict(data)
    assert back.graph.vertices == cert.graph.vertices
    assert back.graph.edges == cert.graph.edges
    assert back.faces == cert.faces


def test_certificate_json_requires_both_keys():
    cert = gn_certificate(2)
    data = cert.to_json_dict()
    del data["faces"]
    with pytest.raises(CertificateError) as err:
        EmbeddingCertificate.from_json_dict(data)
    assert err.value.code == "malformed-json"


@pytest.mark.parametrize("entry", [1, ["a"], None], ids=["int", "list", "null"])
def test_certificate_json_requires_string_face_entries(entry):
    data = gn_certificate(2).to_json_dict()
    data["faces"][0][0] = entry
    with pytest.raises(CertificateError) as err:
        EmbeddingCertificate.from_json_dict(data)
    assert err.value.code == "malformed-json"


@pytest.mark.parametrize("key", ["faces", "face"])
def test_certificate_json_requires_arrays(key):
    data = gn_certificate(2).to_json_dict()
    if key == "faces":
        data["faces"] = "".join(data["faces"][0])
    else:
        data["faces"][0] = "".join(data["faces"][0])
    with pytest.raises(CertificateError) as err:
        EmbeddingCertificate.from_json_dict(data)
    assert err.value.code == "malformed-json"


def test_fan_expansion_at_width_one_subdivides():
    cert = gn_certificate(2)
    g = cert.graph
    new_graph, new_cert = fan_expansion(
        g, cert, ("alpha_1", "beta_1"), 1, ["mid"]
    )
    assert new_graph.vertex_count == g.vertex_count + 1
    assert new_graph.edge_count == g.edge_count + 1
    assert verify_certificate(new_graph, new_cert).genus == 0


@pytest.mark.parametrize("k", range(1, 8))
def test_fan_expansion_preserves_genus(k):
    cert = gn_certificate(6)
    labels = [f"w{j}" for j in range(k)]
    new_graph, new_cert = fan_expansion(
        cert.graph, cert, ("alpha_3", "beta_3"), k, labels
    )
    result = verify_certificate(new_graph, new_cert)
    assert result.genus == 1
    assert result.faces == len(cert.faces) + k - 1


def test_fan_expansion_on_every_edge_of_a_small_cert():
    cert = zppq_certificate(3)
    for edge in cert.graph.edges:
        labels = ["f0", "f1", "f2"]
        new_graph, new_cert = fan_expansion(cert.graph, cert, edge, 3, labels)
        assert verify_certificate(new_graph, new_cert).genus == 1


def test_fan_expansion_rejects_missing_edge():
    cert = gn_certificate(2)
    with pytest.raises(CertificateError) as err:
        fan_expansion(cert.graph, cert, ("alpha_1", "alpha_2"), 2, ["x", "y"])
    assert err.value.code == "edge-absent"


def test_fan_expansion_rejects_zero_width():
    cert = gn_certificate(2)
    with pytest.raises(CertificateError) as err:
        fan_expansion(cert.graph, cert, ("alpha_1", "beta_1"), 0, [])
    assert err.value.code == "bad-parameter"


@pytest.mark.parametrize(
    "labels",
    [["x"], ["x", "x"], ["x", "a"], ["x", 1], ["x", ["y"]]],
    ids=["too-few", "repeated", "already-used", "non-string", "unhashable"],
)
def test_fan_expansion_rejects_bad_labels(labels):
    cert = gn_certificate(2)
    with pytest.raises(CertificateError) as err:
        fan_expansion(cert.graph, cert, ("alpha_1", "beta_1"), 2, labels)
    assert err.value.code == "label-collision"


def test_fan_expansion_needs_the_edge_traversed():
    g = cycle_graph(4, prefix="C")
    # faces walk only one edge, so the expanded edge is never traversed
    stub = EmbeddingCertificate(g, (("C0", "C1"),))
    with pytest.raises(CertificateError) as err:
        fan_expansion(g, stub, ("C2", "C3"), 2, ["x", "y"])
    assert err.value.code == "edge-cover"


def test_fan_expansion_of_an_edge_with_both_darts_on_one_face():
    # the path 0-1-2 has one face, which walks 0-1 both ways
    g = Graph(["0", "1", "2"], [("0", "1"), ("1", "2")])
    cert = EmbeddingCertificate(g, (("0", "1", "2", "1"),))
    new_graph, new_cert = fan_expansion(g, cert, ("0", "1"), 2, ["w0", "w1"])
    assert new_cert.faces == (("0", "w0", "1", "2", "1", "w1"), ("0", "w1", "1", "w0"))
    assert verify_certificate(new_graph, new_cert) == VerifiedGenus(2, 0)


def test_fan_lift_reaches_the_rank_two_lattice():
    # expanding all six spoke edges of the width-6 gadget produces the
    # subgroup lattice of Z25 x Z25 with its torus embedding intact
    graph_and_cert = gn_certificate(6)
    g, cert = graph_and_cert.graph, graph_and_cert
    for i in range(1, 7):
        labels = [f"fan{i}_{j}" for j in range(1, 6)]
        g, cert = fan_expansion(g, cert, (f"alpha_{i}", f"beta_{i}"), 5, labels)
    assert g.vertex_count == 45
    assert g.edge_count == 84
    result = verify_certificate(g, cert)
    assert result == VerifiedGenus(39, 1)

    lattice = lattice_for("Z25xZ25")
    assert lattice.vertex_count == 45
    assert lattice.edge_count == 84
    assert is_isomorphic(g, lattice) is not None

    lifted = lift_certificate_to_lattice(cert, lattice)
    assert verify_certificate(lattice, lifted) == VerifiedGenus(39, 1)


def test_lift_rejects_mismatched_graphs():
    cert = gn_certificate(6)
    with pytest.raises(CertificateError) as err:
        lift_certificate_to_lattice(cert, cycle_graph(15, prefix="C"))
    assert err.value.code == "not-isomorphic"


def test_lift_onto_a_rigid_graph_is_the_identity():
    # this tree has no symmetry, so the only isomorphism onto itself is
    # the identity and the lift must return the certificate unchanged
    g = Graph(
        "abcdefg",
        [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("b", "f"), ("a", "g")],
    )
    walk = ("a", "b", "c", "d", "e", "d", "c", "b", "f", "b", "a", "g")
    cert = EmbeddingCertificate(g, (walk,))
    assert verify_certificate(g, cert) == VerifiedGenus(1, 0)
    lifted = lift_certificate_to_lattice(cert, g)
    assert lifted.faces == cert.faces
