"""Independent answer checks for the benchmark.

Nothing here imports ``latticegenus``: every expected value is derived
from a closed form or re-checked from first principles, so a fault in the
program cannot also hide in its check.  networkx is used only to *produce*
candidate planar embeddings and Kuratowski subgraphs; both are then
verified by the checkers below, so the checks do not trust networkx
either.

Every check raises ``OracleError`` with a one-line reason on a wrong
answer and returns normally on a right one.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


class OracleError(AssertionError):
    """An output of the program disagrees with the independent check."""


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise OracleError(reason)


# ------------------------------------------------------------ arithmetic


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below 3.3 * 10**24."""
    if n < 2:
        return False
    small = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
    for p in small:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in small:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict[int, int]:
    """Prime factorization by trial division (small n only)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def group_type(moduli) -> dict[int, tuple[int, ...]]:
    """Map each prime to the partition (descending exponents) of the
    p-primary part of the direct sum of cyclic groups of the given orders."""
    parts: dict[int, list[int]] = {}
    for m in moduli:
        for p, k in factorize(m).items():
            parts.setdefault(p, []).append(k)
    return {p: tuple(sorted(ks, reverse=True)) for p, ks in parts.items()}


def is_cyclic(moduli) -> bool:
    return all(len(lam) == 1 for lam in group_type(moduli).values())


def parse_moduli(name: str) -> list[int]:
    """Cyclic factor orders of a group written ``Z<m>xZ<m>...``."""
    out = []
    for tok in name.split("x"):
        require(tok.startswith("Z") and tok[1:].isdigit(), f"bad factor {tok!r}")
        out.append(int(tok[1:]))
    return out


# ------------------------------------------- Birkhoff-Delsarte counting


def _conjugate(part: tuple[int, ...]) -> list[int]:
    top = part[0] if part else 0
    return [sum(1 for x in part if x > i) for i in range(top)]


def _gaussian_binomial(n: int, k: int, p: int) -> int:
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= p ** (n - i) - 1
        den *= p ** (i + 1) - 1
    return num // den


def _subpartitions(lam: tuple[int, ...]):
    """Every partition mu contained in lam (as padded exponent tuples)."""

    def rec(i: int, cap: int):
        if i == len(lam):
            yield ()
            return
        for m in range(min(cap, lam[i]), -1, -1):
            for rest in rec(i + 1, m):
                yield (m,) + rest

    for mu in rec(0, lam[0] if lam else 0):
        yield tuple(x for x in mu if x > 0)


def subgroups_of_type(lam: tuple[int, ...], mu: tuple[int, ...], p: int) -> int:
    """Number of subgroups of type mu in the abelian p-group of type lam
    (Birkhoff-Delsarte; L. M. Butler, Mem. AMS 539, 1994, Thm 1.4.1)."""
    lc, mc = _conjugate(lam), _conjugate(mu)
    total = 1
    for i in range(len(lc)):
        a = lc[i]
        b = mc[i] if i < len(mc) else 0
        c = mc[i + 1] if i + 1 < len(mc) else 0
        total *= p ** (c * (a - b)) * _gaussian_binomial(a - c, b - c, p)
    return total


def primary_census(lam: tuple[int, ...], p: int) -> tuple[dict[int, int], int]:
    """(subgroups by order, covering-edge count) of one p-primary part.

    A subgroup of rank r has (p^r - 1)/(p - 1) maximal subgroups, so it
    covers exactly that many; summing over subgroups counts every edge once.
    """
    census: dict[int, int] = {}
    edges = 0
    for mu in _subpartitions(lam):
        n = subgroups_of_type(lam, mu, p)
        order = p ** sum(mu)
        census[order] = census.get(order, 0) + n
        edges += n * (p ** len(mu) - 1) // (p - 1)
    return census, edges


def lattice_census(moduli) -> tuple[dict[int, int], int]:
    """(subgroups by order, covering-edge count) of the whole group.

    Coprime parts multiply: the lattice is the Cartesian product of the
    primary lattices, so orders multiply and E = E1*V2 + V1*E2.
    """
    census, edges = {1: 1}, 0
    for p, lam in sorted(group_type(moduli).items()):
        c2, e2 = primary_census(lam, p)
        v1, v2 = sum(census.values()), sum(c2.values())
        edges = edges * v2 + v1 * e2
        census = {
            a * b: census[a] * c2[b] for a in census for b in c2
        }
    return census, edges


def label_order(label: str) -> int:
    """Subgroup order encoded in a lattice label ``S<order>#<i>``."""
    head, _, idx = label.partition("#")
    require(head.startswith("S") and head[1:].isdigit() and idx.isdigit(),
            f"bad subgroup label {label!r}")
    return int(head[1:])


def check_lattice(moduli, vertices, edges) -> None:
    """Vertex census by order, edge count, and edge orders of a subgroup
    lattice graph against the closed forms."""
    census, n_edges = lattice_census(moduli)
    got: dict[int, int] = {}
    for v in vertices:
        o = label_order(v)
        got[o] = got.get(o, 0) + 1
    require(got == census, f"census {sorted(got.items())} != {sorted(census.items())}")
    require(len(edges) == n_edges, f"{len(edges)} edges, closed form gives {n_edges}")
    for u, v in edges:
        a, b = sorted((label_order(u), label_order(v)))
        require(b % a == 0 and is_prime(b // a), f"edge {u}-{v} is not a cover")
    if is_cyclic(moduli):
        check_cyclic_grid(math.prod(moduli), vertices, edges)


def check_cyclic_grid(n: int, vertices, edges) -> None:
    """A cyclic group has one subgroup per divisor, joined when the
    divisors differ by one prime: the divisor grid, rebuilt here."""
    require(n < 10**6, "cyclic order too large for the grid check")
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    want_v = {f"S{d}#0" for d in divisors}
    want_e = {
        (f"S{d}#0", f"S{d * p}#0")
        for d in divisors
        for p in factorize(n)
        if n % (d * p) == 0
    }
    got_e = {tuple(sorted(e, key=label_order)) for e in edges}
    require(set(vertices) == want_v, "cyclic lattice vertices differ from the divisor grid")
    require(got_e == want_e, "cyclic lattice edges differ from the divisor grid")


def grid_graph(exponents) -> tuple[list[str], list[tuple[str, str]]]:
    """Divisor grid for descending exponents, labels ``c1,c2,...``."""
    ex = sorted(exponents, reverse=True)
    coords = list(itertools.product(*(range(e + 1) for e in ex)))
    lab = lambda c: ",".join(map(str, c))
    edges = []
    for c in coords:
        for i, e in enumerate(ex):
            if c[i] < e:
                d = list(c)
                d[i] += 1
                edges.append((lab(c), lab(d)))
    return [lab(c) for c in coords], edges


def check_closure(moduli, elements) -> None:
    """A nonempty element list closed under addition mod the moduli is a
    subgroup (finiteness makes inverses automatic)."""
    s = {tuple(e) for e in elements}
    require(len(s) == len(elements) and s, "element list empty or repeated")
    for a in s:
        require(len(a) == len(moduli), f"element {a} has the wrong length")
    for a in s:
        for b in s:
            c = tuple((x + y) % m for x, y, m in zip(a, b, moduli))
            require(c in s, f"{a}+{b}={c} leaves the subgroup")


# ------------------------------------------------------ face certificates


def _edge_key(u, v):
    return (u, v) if u <= v else (v, u)


def _connected(vertices, edges) -> bool:
    adj = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    if not adj:
        return True
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def face_genus(vertices, edges, faces) -> tuple[int, int]:
    """(face count, genus) of a face-walk certificate, checked from scratch:
    every dart used exactly once, the turns at each vertex forming one
    rotation cycle, and V - E + F = 2 - 2g for a connected graph."""
    vertices = list(vertices)
    eset = {_edge_key(u, v) for u, v in edges}
    require(len(eset) == len(edges), "repeated edge")
    require(_connected(vertices, eset), "graph is not connected")
    deg = {v: 0 for v in vertices}
    for u, v in eset:
        require(u != v and u in deg and v in deg, f"bad edge {u}-{v}")
        deg[u] += 1
        deg[v] += 1
    used: set[tuple[str, str]] = set()
    succ: dict[str, dict[str, str]] = {v: {} for v in vertices}
    for walk in faces:
        n = len(walk)
        require(n >= 2, f"face {walk} is too short")
        for i in range(n):
            prev, cur, nxt = walk[i - 1], walk[i], walk[(i + 1) % n]
            require(_edge_key(cur, nxt) in eset, f"face steps along non-edge {cur}-{nxt}")
            require((cur, nxt) not in used, f"dart {cur}->{nxt} used twice")
            used.add((cur, nxt))
            succ[cur][prev] = nxt
    require(len(used) == 2 * len(eset), f"{len(used)} of {2 * len(eset)} darts covered")
    for v in vertices:
        if deg[v] == 0:
            continue
        start = next(iter(succ[v]))
        cur, seen = succ[v][start], 1
        while cur != start:
            cur = succ[v][cur]
            seen += 1
        require(seen == deg[v], f"turns at {v} split into several cycles")
    chi = len(vertices) - len(eset) + len(faces)
    require(chi <= 2 and chi % 2 == 0, f"V-E+F = {chi} is no orientable surface")
    return len(faces), (2 - chi) // 2


def faces_from_rotation(rotation: dict) -> list[tuple]:
    """Face walks of a rotation system (leaving dart u->v, turn to the
    neighbour after u in v's cyclic order)."""
    pos = {v: {u: i for i, u in enumerate(nb)} for v, nb in rotation.items()}
    seen, faces = set(), []
    for v, nb in rotation.items():
        for u in nb:
            dart = (v, u)
            if dart in seen:
                continue
            walk = []
            while dart not in seen:
                seen.add(dart)
                walk.append(dart[0])
                a, b = dart
                nbrs = rotation[b]
                dart = (b, nbrs[(pos[b][a] + 1) % len(nbrs)])
            faces.append(tuple(walk))
    return faces


# ---------------------------------------------------------- planarity


def euler_lower_bound(v: int, e: int) -> int:
    """Genus lower bound of a connected graph of girth >= 4 (every face
    has length >= 4, so 4F <= 2E).  A tree (e < v) has one face of length
    2e, so the bound does not apply to it."""
    if e < v:
        return 0
    return max(0, math.ceil(1 + Fraction(e, 4) - Fraction(v, 2)))


def _kuratowski_ok(host_edges: set, sub_edges) -> bool:
    """True when sub_edges is a subgraph of the host that subdivides K5
    or K3,3, checked by suppressing every degree-2 vertex."""
    sub = {_edge_key(u, v) for u, v in sub_edges}
    if not sub or not sub <= host_edges:
        return False
    adj: dict = {}
    for u, v in sub:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nb) not in (2, 3, 4) for nb in adj.values()):
        return False
    branch = [v for v, nb in adj.items() if len(nb) != 2]
    pairs, walked = set(), set()
    for b in branch:
        for first in adj[b]:
            prev, cur = b, first
            walked.add(_edge_key(prev, cur))
            while len(adj[cur]) == 2:
                nxt = adj[cur][0] if adj[cur][1] == prev else adj[cur][1]
                prev, cur = cur, nxt
                walked.add(_edge_key(prev, cur))
            if cur == b:
                return False
            pairs.add(_edge_key(b, cur))
    if walked != sub:
        return False
    nb = {v: set() for v in branch}
    for u, v in pairs:
        nb[u].add(v)
        nb[v].add(u)
    if len(branch) == 5:
        return len(pairs) == 10
    if len(branch) == 6 and len(pairs) == 9:
        side = nb[branch[0]]
        other = set(branch) - side
        return len(side) == 3 and all(nb[x] == other for x in side)
    return False


def planarity(vertices, edges) -> bool:
    """Decide planarity with a proof checked here: a genus-0 face
    certificate, or a Kuratowski subdivision, or (for graphs of girth
    >= 4) more than 2V - 4 edges."""
    import networkx as nx

    eset = {_edge_key(u, v) for u, v in edges}
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(eset)
    ok, emb = nx.check_planarity(g, counterexample=True)
    if ok:
        rotation = {v: list(emb.neighbors_cw_order(v)) for v in g.nodes}
        _faces, genus = face_genus(vertices, eset, faces_from_rotation(rotation))
        require(genus == 0, "networkx embedding does not check as planar")
        return True
    require(_kuratowski_ok(eset, emb.edges), "Kuratowski subgraph does not check")
    return False


def check_planarity_answer(vertices, edges, answer: bool, bipartite: bool) -> bool:
    """Check a program's planarity answer; returns the checked truth."""
    if bipartite and len(vertices) >= 3 and len(edges) > 2 * len(vertices) - 4:
        require(not answer, f"E={len(edges)} > 2V-4 yet reported planar")
        return False
    truth = planarity(vertices, edges)
    require(answer == truth, f"planarity reported {answer}, checked {truth}")
    return truth


# ------------------------------------------------------------ closed forms


def genus_kmn(m: int, n: int) -> int:
    """Ringel: genus of K_{m,n}."""
    return math.ceil(Fraction((m - 2) * (n - 2), 4))


def genus_kn(n: int) -> int:
    """Ringel-Youngs: genus of K_n, n >= 3."""
    return math.ceil(Fraction((n - 3) * (n - 4), 12))


GENUS_PETERSEN = 1


def genus_gn(n: int) -> int:
    return (n - 2) // 4


def genus_hn(n: int) -> int:
    return (n - 1) // 2


def genus_zppq(p: int) -> int:
    return (p - 1) // 2


# ------------------------------------------------------------------ minors


def check_minor(host_vertices, host_edges, pattern_vertices, pattern_edges,
                branch_sets: dict) -> None:
    """Branch sets: one per pattern vertex, nonempty, pairwise disjoint,
    each connected in the host, and a host edge for every pattern edge."""
    hv = set(host_vertices)
    he = {_edge_key(u, v) for u, v in host_edges}
    require(set(branch_sets) == set(pattern_vertices), "branch sets keyed wrongly")
    owner: dict = {}
    for pv, bs in branch_sets.items():
        bs = set(bs)
        require(bool(bs) and bs <= hv, f"branch set {pv} empty or off the host")
        for x in bs:
            require(x not in owner, f"host vertex {x} in two branch sets")
            owner[x] = pv
        inner = [e for e in he if e[0] in bs and e[1] in bs]
        require(_connected(bs, inner), f"branch set {pv} is not connected")
    realized = {_edge_key(owner[u], owner[v]) for u, v in he
                if u in owner and v in owner and owner[u] != owner[v]}
    for a, b in pattern_edges:
        require(_edge_key(a, b) in realized, f"pattern edge {a}-{b} not realized")
