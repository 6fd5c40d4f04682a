"""Rotation systems and face certificates for orientable embeddings.

An embedding is witnessed by its face walks: closed walks that together
traverse every directed edge exactly once and whose turn-by-turn
behavior at each vertex forms a single rotation cycle.  Such a
certificate pins down a genuine embedding, so Euler's formula gives the
genus of the carrying surface.  This module verifies certificates,
holds the face-tracing engine that turns a next array over darts into
faces (the one ``trace_faces`` and both searches use: each search hands
its final next array, the whole rotation, to that engine; it also
updates a face count after one swap in one rotation by tracing only the
faces the swap touches), constructs the three parameterized certificate
families used for lattice genus upper bounds, and performs the
edge-to-fan surgery: one face rewrite, which ``fan_expansion`` applies
to one edge and the fan lift of the Z_{p^2} x Z_{p^2} lattice to every
rim edge of a gadget at once.  The lift's vertices are labeled onto the lattice by
construction, not found by an isomorphism search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .graphs import Graph, InvariantError, _json_array, _json_strings, gn_graph
from .graphs import hn_graph, is_isomorphic, zppq_graph
from .groups import GroupSpec, _is_prime, build_lattice, enumerate_subgroups


class CertificateError(ValueError):
    """A certificate or rotation failed validation.

    ``code`` is a stable machine-readable tag; the message carries the
    human-readable details.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


@dataclass(frozen=True)
class EmbeddingCertificate:
    """A graph together with the face walks of an embedding.

    Each face is a closed walk written as a vertex tuple with the first
    vertex not repeated at the end.
    """

    graph: Graph
    faces: tuple[tuple[str, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "faces", tuple(tuple(walk) for walk in self.faces)
        )

    def to_json_dict(self) -> dict:
        return {
            "graph": self.graph.to_json_dict(),
            "faces": [list(walk) for walk in self.faces],
        }

    @staticmethod
    def from_json_dict(data: dict) -> "EmbeddingCertificate":
        try:
            graph = Graph.from_json_dict(data["graph"])
            faces = tuple(
                tuple(_json_strings(walk, "face"))
                for walk in _json_array(data["faces"], "faces")
            )
        except (KeyError, TypeError) as exc:
            raise CertificateError("malformed-json", f"bad certificate JSON: {exc}")
        return EmbeddingCertificate(graph, faces)


@dataclass(frozen=True)
class VerifiedGenus:
    """Outcome of a successful verification: face count and genus."""

    faces: int
    genus: int


# not built on _Darts on purpose: the verifier checks what that engine produces
def verify_certificate(g: Graph, cert: EmbeddingCertificate) -> VerifiedGenus:
    """Check that cert describes a genuine orientable embedding of g and
    return its genus.

    Raises CertificateError with code "non-edge", "edge-cover",
    "vertex-cycle", or "bad-genus" on the first violated condition; a
    mere directed double cover without single rotation cycles is
    rejected because Euler's formula would not apply to it.
    """
    # the empty graph counts as connected, and V-E+F = 0 would read as a torus
    if not g.vertices:
        raise CertificateError(
            "empty-graph", "can only certify embeddings of graphs with a vertex"
        )
    if not g.is_connected():
        raise CertificateError(
            "disconnected-graph", "can only certify embeddings of connected graphs"
        )
    for walk in cert.faces:
        if len(walk) < 2:
            raise CertificateError(
                "non-edge", f"face {walk} is too short to be a closed walk"
            )

    traversals: dict[tuple[str, str], int] = {}
    for walk in cert.faces:
        n = len(walk)
        for i in range(n):
            u, v = walk[i], walk[(i + 1) % n]
            if u == v or not g.has_edge(u, v):
                raise CertificateError(
                    "non-edge", f"face {walk} steps along non-edge ({u!r}, {v!r})"
                )
            traversals[(u, v)] = traversals.get((u, v), 0) + 1

    for u, v in g.edges:
        for d in ((u, v), (v, u)):
            count = traversals.pop(d, 0)
            if count != 1:
                raise CertificateError(
                    "edge-cover",
                    f"directed edge {d} traversed {count} times, expected once",
                )
    # traversals had only real edges, so it must be empty now
    if traversals:
        raise InvariantError(
            f"directed edges {sorted(traversals)} passed has_edge but are "
            "not edges of the graph"
        )

    succ: dict[str, dict[str, str]] = {v: {} for v in g.vertices}
    for walk in cert.faces:
        n = len(walk)
        for i in range(n):
            succ[walk[i]][walk[i - 1]] = walk[(i + 1) % n]
    for v in g.vertices:
        nbrs = g.neighbors(v)
        # an isolated vertex has no turns, so its cycle stays empty
        cycle = list(nbrs[:1])
        while cycle and succ[v][cycle[-1]] != cycle[0]:
            cycle.append(succ[v][cycle[-1]])
        if len(cycle) != len(nbrs):
            raise CertificateError(
                "vertex-cycle",
                f"turns at {v!r} split into more than one cycle "
                f"({len(cycle)} of {len(nbrs)} neighbors reached)",
            )

    f = len(cert.faces)
    two_minus_2g = g.vertex_count - g.edge_count + f
    genus2 = 2 - two_minus_2g
    if genus2 < 0 or genus2 % 2 != 0:
        raise CertificateError(
            "bad-genus",
            f"V-E+F = {two_minus_2g} gives no orientable genus",
        )
    return VerifiedGenus(f, genus2 // 2)


class _Darts:
    """Integer dart tables: the engine that turns a rotation system (per
    vertex id, neighbor ids in cyclic order) into a ``next`` array over
    dart ids, and that array into faces.  The vertex ids are the ones
    the Graph owns (``g.index``) and its adjacency ``g.adj`` is read as
    is; dart ids follow sorted (tail, head) ids.

    Faces are the cycles of the next array, which encodes the whole
    rotation.  A search keeps one such array, with the rotation's
    in-dart rows, and moves through rotations by ``swap``, which
    rewrites three entries; ``swap_delta`` gives the move's change in
    face count from the three in-darts the move turns, by tracing at
    most two of the faces they lie on."""

    def __init__(self, g: Graph):
        self.vertices = g.vertices
        self.dart_id: list[dict[int, int]] = []
        self.tail: list[int] = []
        for v, nb in enumerate(g.adj):
            self.dart_id.append({u: len(self.tail) + i for i, u in enumerate(nb)})
            self.tail.extend([v] * len(nb))
        self.count = len(self.tail)

    def next_array(self, rotation: list[list[int]]) -> list[int]:
        """next[d] continues dart d's face: leaving (u,v), proceed from v
        toward the neighbor after u in v's rotation."""
        nxt = [0] * self.count
        for v, rot in enumerate(rotation):
            deg = len(rot)
            row = self.dart_id[v]
            for i, u in enumerate(rot):
                nxt[self.dart_id[u][v]] = row[rot[(i + 1) % deg]]
        return nxt

    def orbits(self, nxt: list[int]) -> list[list[int]]:
        """The cycles of nxt as dart lists, each from its lowest dart."""
        seen = bytearray(self.count)
        cycles = []
        for d in range(self.count):
            if seen[d]:
                continue
            cycle = []
            cur = d
            while not seen[cur]:
                seen[cur] = 1
                cycle.append(cur)
                cur = nxt[cur]
            cycles.append(cycle)
        return cycles

    def faces(self, nxt: list[int]) -> tuple[tuple[str, ...], ...]:
        """Face walks of a complete next array as label tuples, each from
        its lowest dart's tail."""
        labels = [self.vertices[t] for t in self.tail]
        return tuple(tuple(labels[d] for d in cycle) for cycle in self.orbits(nxt))

    def in_rows(self, rotation: list[list[int]]) -> list[list[int]]:
        """Per vertex v, the ids of the darts (u,v) into v, u in rotation
        order: the rows a search keeps with its next array."""
        ids = self.dart_id
        return [[ids[u][v] for u in rot] for v, rot in enumerate(rotation)]

    def swap_delta(self, nxt: list[int], x: int, y: int, z: int) -> int:
        """Change in face count if ``swap`` traded b and c, where a, b, c
        are consecutive in v's rotation (v of degree at least 3) and
        x = (a,v), y = (b,v), z = (c,v) the matching in-dart row entries.

        The swap sends x, y and z to the old targets of y, z and x: the
        new next array is the old one composed with the 3-cycle (x y z).
        That merges three distinct faces into one (-2), splits a face met
        in the order x, z, y into three (+2), and otherwise keeps the
        count (0).
        """
        cur = nxt[x]
        while cur != x:
            if cur == y:
                return 0
            if cur == z:
                # x then z: +2 if y follows on the same face
                cur = nxt[cur]
                while cur != x:
                    if cur == y:
                        return 2
                    cur = nxt[cur]
                return 0
            cur = nxt[cur]
        # x's face misses y and z: do y and z share one?
        cur = nxt[y]
        while cur != y:
            if cur == z:
                return 0
            cur = nxt[cur]
        return -2

    def swap(self, nxt: list[int], inrot: list[list[int]], v: int, i: int) -> None:
        """Trade entries i and i+1 (cyclically) of v's rotation: swap them
        in its in-dart row inrot[v] and rewrite the three entries of nxt
        that change.  Running it twice restores both."""
        row = inrot[v]
        j = i + 1 if i + 1 < len(row) else 0
        x, y, z = row[i - 1], row[i], row[j]
        nxt[x], nxt[y], nxt[z] = nxt[y], nxt[z], nxt[x]
        row[i], row[j] = z, y


def trace_faces(g: Graph, order: Mapping[str, Sequence[str]]) -> EmbeddingCertificate:
    """Trace the face orbits of a rotation: ``order`` maps each vertex
    to its neighbors in cyclic order.

    Leaving dart (u, v), the next dart continues from v toward the
    neighbor after u in v's rotation.  Raises CertificateError with code
    "invalid-rotation" unless ``order`` covers exactly g's vertices and
    lists each vertex's neighbor labels once each.  The result always
    satisfies the certificate invariants.
    """
    if set(order) != set(g.vertices):
        raise CertificateError(
            "invalid-rotation",
            "rotation system must cover exactly the graph's vertices",
        )
    for v, nbrs in order.items():
        # 1 is not the label "1": a non-string entry is refused, not coerced
        labels = all(isinstance(u, str) for u in nbrs)
        if not labels or sorted(nbrs) != sorted(g.neighbors(v)):
            raise CertificateError(
                "invalid-rotation",
                f"rotation at {v!r} is not a permutation of its neighbors",
            )
    darts = _Darts(g)
    rotation = [[g.index[u] for u in order[v]] for v in g.vertices]
    return EmbeddingCertificate(g, darts.faces(darts.next_array(rotation)))


def _verified_family(
    g: Graph, faces: list[tuple[str, ...]], expect_faces: int, expect_genus: int
) -> EmbeddingCertificate:
    cert = EmbeddingCertificate(g, tuple(faces))
    result = verify_certificate(g, cert)
    # the generators below are exact constructions; any deviation from
    # the published face and genus counts is a bug here, not bad input
    if result != VerifiedGenus(expect_faces, expect_genus):
        raise InvariantError(
            f"family certificate has {result.faces} faces and genus "
            f"{result.genus}, expected {expect_faces} and {expect_genus}"
        )
    return cert


def gn_certificate(n: int) -> EmbeddingCertificate:
    """Embedding certificate for the n-fan gadget, n = 2 mod 4.

    Emits n triangles, n/2 quadrilaterals through c, n/2 through a, and
    n/2 long hexagons, giving 5n/2 faces and genus (n-2)/4.
    """
    if n < 2 or n % 4 != 2:
        raise CertificateError("bad-parameter", f"need n = 2 mod 4, got {n}")
    g = gn_graph(n)
    al = [f"alpha_{i}" for i in range(1, n + 1)]
    be = [f"beta_{i}" for i in range(1, n + 1)]
    faces: list[tuple[str, ...]] = []
    for i in range(1, n + 1):
        if i % 2 == 1:
            faces.append(("b", al[i - 1], be[i - 1]))
        else:
            faces.append(("b", be[i - 1], al[i - 1]))
    for i in range(1, n + 1, 2):
        faces.append(("b", be[i - 1], "c", be[i]))
    for i in range(2, n + 1, 2):
        faces.append(("b", al[i - 1], "a", al[i % n]))
    for i in range(1, n + 1, 2):
        j = (i - 1 + n // 2) % n + 1
        faces.append(("c", be[i - 1], al[i - 1], "a", al[j - 1], be[j - 1]))
    return _verified_family(g, faces, 5 * n // 2, (n - 2) // 4)


def hn_certificate(n: int) -> EmbeddingCertificate:
    """Embedding certificate for the doubled gadget, n = 1 mod 4, n >= 5.

    Emits the eight face families (per-copy triangles and
    quadrilaterals, per-copy long hexagons, four connector
    quadrilaterals, one octagon), giving 5n+2 faces and genus (n-1)/2.
    """
    if n < 5 or n % 4 != 1:
        raise CertificateError("bad-parameter", f"need n = 1 mod 4, n >= 5, got {n}")
    g = hn_graph(n)
    al = [f"alpha_{i}" for i in range(1, n + 1)]
    be = [f"beta_{i}" for i in range(1, n + 1)]
    ga = [f"gamma_{i}" for i in range(1, n + 1)]
    de = [f"delta_{i}" for i in range(1, n + 1)]
    half = (n + 1) // 2
    faces: list[tuple[str, ...]] = []
    for i in range(1, n + 1):
        if i % 2 == 1:
            faces.append(("b_0", al[i - 1], be[i - 1]))
        else:
            faces.append(("b_0", be[i - 1], al[i - 1]))
    for i in range(1, n + 1):
        if i % 2 == 1:
            faces.append(("b_1", de[i - 1], ga[i - 1]))
        else:
            faces.append(("b_1", ga[i - 1], de[i - 1]))
    for i in range(1, n - 1):
        if i % 2 == 1:
            faces.append(("b_0", be[i - 1], "c_0", be[i]))
    for i in range(2, n):
        if i % 2 == 0:
            faces.append(("b_0", al[i - 1], "a_0", al[i]))
    for i in range(1, n - 1):
        if i % 2 == 1:
            faces.append(("b_1", de[i], "c_1", de[i - 1]))
    for i in range(2, n):
        if i % 2 == 0:
            faces.append(("b_1", ga[i], "a_1", ga[i - 1]))
    for i in range(1, half):
        j = i + half
        if i % 2 == 1:
            faces.append(("c_0", be[i - 1], al[i - 1], "a_0", al[j - 1], be[j - 1]))
        else:
            faces.append(("a_0", al[i - 1], be[i - 1], "c_0", be[j - 1], al[j - 1]))
    for i in range(1, half):
        j = i + half
        if i % 2 == 1:
            faces.append(("a_1", ga[i - 1], de[i - 1], "c_1", de[j - 1], ga[j - 1]))
        else:
            faces.append(("c_1", de[i - 1], ga[i - 1], "a_1", ga[j - 1], de[j - 1]))
    faces.append(("b_0", "a_1", "a_0", al[0]))
    faces.append(("b_0", be[n - 1], "c_0", "b_1"))
    faces.append(("b_0", "b_1", ga[0], "a_1"))
    faces.append(("c_1", de[n - 1], "b_1", "c_0"))
    faces.append(
        ("c_0", be[half - 1], al[half - 1], "a_0", "a_1", ga[half - 1], de[half - 1], "c_1")
    )
    return _verified_family(g, faces, 5 * n + 2, (n - 1) // 2)


def zppq_certificate(p: int) -> EmbeddingCertificate:
    """Embedding certificate for the two-prime lattice shape at odd
    prime p, giving 2p+4 faces and genus (p-1)/2."""
    if p % 2 == 0 or not _is_prime(p):
        raise CertificateError("bad-parameter", f"need an odd prime, got {p}")
    g = zppq_graph(p)
    ra = [f"{i}_a" for i in range(p + 1)]
    rc = [f"{i}_c" for i in range(p + 1)]
    faces: list[tuple[str, ...]] = []
    for i in range(0, p, 2):
        faces.append(("a", ra[i], "b", ra[i + 1]))
    for i in range(0, p, 2):
        faces.append(("c", rc[i + 1], "d", rc[i]))
    faces.append(("a", "c", rc[0], ra[0]))
    faces.append(("a", ra[p], rc[p], "c"))
    faces.append(("b", "d", rc[1], ra[1]))
    faces.append(("b", ra[2], rc[2], "d"))
    for i in range(1, p - 1, 2):
        faces.append(("a", ra[i], rc[i], "c", rc[i + 1], ra[i + 1]))
    for i in list(range(3, p - 1, 2)) + [p]:
        j = (i + 1) % (p + 1)
        faces.append(("b", ra[j], rc[j], "d", rc[i], ra[i]))
    return _verified_family(g, faces, 2 * p + 4, (p - 1) // 2)


def _fan_faces(
    faces: Sequence[tuple[str, ...]], fans: dict[tuple[str, str], list[str]]
) -> list[tuple[str, ...]]:
    """The faces after fanning each edge (u, v) of ``fans`` into its fan
    labels w: a step u -> v passes w[0], a step v -> u passes w[-1], and
    the quadrilaterals (u, w[j+1], v, w[j]) follow, edge by edge."""
    via = {}
    for (u, v), w in fans.items():
        via[(u, v)], via[(v, u)] = w[0], w[-1]
    out = []
    for walk in faces:
        face = []
        for x, y in zip(walk, walk[1:] + walk[:1]):
            face.append(x)
            if (x, y) in via:
                face.append(via[(x, y)])
        out.append(tuple(face))
    for (u, v), w in fans.items():
        out += [(u, w[j + 1], v, w[j]) for j in range(len(w) - 1)]
    return out


def fan_expansion(
    g: Graph,
    cert: EmbeddingCertificate,
    edge: tuple[str, str],
    k: int,
    labels: Sequence[str],
) -> tuple[Graph, EmbeddingCertificate]:
    """Replace an edge by a fan of k parallel length-2 paths.

    The step u -> v of the face walks is rerouted through the first new
    vertex and the step v -> u through the last (both steps may lie on
    one walk), and the k-1 quadrilaterals between consecutive fan paths
    become new faces, so the genus is unchanged.
    """
    u, v = edge
    if not g.has_edge(u, v):
        raise CertificateError("edge-absent", f"no edge {edge} in graph")
    if k < 1:
        raise CertificateError("bad-parameter", f"fan width {k} must be positive")
    w = [x for x in labels if isinstance(x, str)]
    if len(w) != k or len(labels) != k or len(set(w)) != k or set(w) & set(g.vertices):
        raise CertificateError(
            "label-collision",
            f"need {k} fresh distinct string labels, got {labels!r}",
        )
    before = verify_certificate(g, cert)

    new_edges = [e for e in g.edges if set(e) != {u, v}]
    for wj in w:
        new_edges.append((u, wj))
        new_edges.append((wj, v))
    new_graph = Graph(set(g.vertices) | set(w), new_edges)
    new_cert = EmbeddingCertificate(
        new_graph, tuple(_fan_faces(cert.faces, {edge: w}))
    )
    after = verify_certificate(new_graph, new_cert)
    if after.genus != before.genus:
        raise InvariantError(
            f"fan surgery changed the genus from {before.genus} to {after.genus}"
        )
    return new_graph, new_cert


def lift_certificate_to_lattice(
    cert: EmbeddingCertificate, lattice: Graph
) -> EmbeddingCertificate:
    """Relabel a certificate through an isomorphism onto lattice."""
    mapping = is_isomorphic(cert.graph, lattice)
    if mapping is None:
        raise CertificateError(
            "not-isomorphic", "certificate graph is not isomorphic to the lattice"
        )
    faces = tuple(tuple(mapping[x] for x in walk) for walk in cert.faces)
    lifted = EmbeddingCertificate(lattice, faces)
    verify_certificate(lattice, lifted)
    return lifted


def fan_lift_certificate(p: int) -> EmbeddingCertificate:
    """Embedding certificate for the lattice of G = Z_{p^2} x Z_{p^2},
    for a prime p with p+1 = 2 mod 4: the gadget G_{p+1} with every rim
    edge alpha_i-beta_i fanned into p paths of length 2, labeled onto the
    lattice by construction.

    The correspondence: a = 0, b = pG, c = G; alpha_i is the i-th line L
    of pG (the subgroups of order p, in label order), beta_i the order-p^3
    subgroup M with pM = L, and the fan of alpha_i the p cyclic subgroups
    C of order p^2 with pC = L, in label order.  Every order-p^3 subgroup
    contains pG, so C + pG is the one M above C, and pM = pC = L.

    The faces are fan_expansion's, with every rim edge fanned at once.
    """
    if not _is_prime(p) or (p + 1) % 4 != 2:
        raise CertificateError(
            "bad-parameter", f"fan lift needs a prime p with p+1 = 2 mod 4, got {p}"
        )
    n = p + 1
    subs = enumerate_subgroups(GroupSpec(((p, 2), (p, 2))), order_cap=None)
    names = subs.labels()
    q = p * p
    # labels keyed by (|H|, pH), each list in label order
    by_key: dict[tuple[int, frozenset], list[str]] = {}
    for name, sub in zip(names, subs.subgroups):
        ph = frozenset((p * x % q, p * y % q) for x, y in sub)
        by_key.setdefault((len(sub), ph), []).append(name)
    # pG is the one subgroup of order p^2 that p kills
    [b] = by_key[(q, frozenset({(0, 0)}))]
    rename = {"a": names[0], "b": b, "c": names[-1]}
    fans: dict[tuple[str, str], list[str]] = {}
    lines = [(name, sub) for name, sub in zip(names, subs.subgroups) if len(sub) == p]
    for i, (line, elems) in enumerate(lines, 1):
        [m] = by_key[(q * p, elems)]
        rename[f"alpha_{i}"], rename[f"beta_{i}"] = line, m
        fans[(line, m)] = by_key[(q, elems)]
    faces = _fan_faces(
        [tuple(rename[x] for x in walk) for walk in gn_certificate(n).faces], fans
    )
    return _verified_family(
        build_lattice(subs), faces, 5 * n // 2 + n * (p - 1), (n - 2) // 4
    )
