"""Tests of the benchmark's oracle: it must accept right answers, reject
wrong ones, and its closed-form counts must match brute force.

    python3 -m pytest benchmark
"""

import itertools

import pytest

import oracle
from oracle import OracleError


def _abelian_groups(max_order: int):
    """Every abelian group of order <= max_order, as cyclic factor orders."""
    def partitions(n, cap=None):
        cap = n if cap is None else cap
        if n == 0:
            yield ()
            return
        for k in range(min(n, cap), 0, -1):
            for rest in partitions(n - k, k):
                yield (k,) + rest

    for n in range(2, max_order + 1):
        per_prime = [[[p ** k for k in lam] for lam in partitions(e)]
                     for p, e in oracle.factorize(n).items()]
        for combo in itertools.product(*per_prime):
            yield [m for part in combo for m in part]


def _brute_lattice(moduli):
    """Subgroups and covering edges by closing under joins with single
    elements.  H + <g> covers H exactly when the index is prime: a prime
    index leaves no room between (Lagrange), and a composite cyclic
    quotient has a proper intermediate subgroup."""
    elems = list(itertools.product(*(range(m) for m in moduli)))
    idx = {e: i for i, e in enumerate(elems)}
    add = [[idx[tuple((x + y) % m for x, y, m in zip(a, b, moduli))] for b in elems]
           for a in elems]

    def join(h, g):
        out, c = set(h), g
        while c not in out:
            out.update(add[c][x] for x in h)
            c = add[c][g]
        return frozenset(out)

    found, frontier, edges = {frozenset([0])}, [frozenset([0])], set()
    while frontier:
        nxt = []
        for h in frontier:
            for g in range(len(elems)):
                if g in h:
                    continue
                j = join(h, g)
                if oracle.is_prime(len(j) // len(h)):
                    edges.add((h, j))
                if j not in found:
                    found.add(j)
                    nxt.append(j)
        frontier = nxt
    census = {}
    for h in found:
        census[len(h)] = census.get(len(h), 0) + 1
    return found, census, edges


def test_census_and_edges_match_brute_force_up_to_order_64():
    checked = 0
    for moduli in _abelian_groups(64):
        _subs, census, edges = _brute_lattice(moduli)
        assert oracle.lattice_census(moduli) == (census, len(edges)), moduli
        checked += 1
    assert checked > 100


def _labelled(moduli):
    subs, _census, edges = _brute_lattice(moduli)
    by_order = {}
    label = {}
    for h in sorted(subs, key=lambda h: (len(h), sorted(h))):
        i = by_order.get(len(h), 0)
        by_order[len(h)] = i + 1
        label[h] = f"S{len(h)}#{i}"
    return list(label.values()), [(label[a], label[b]) for a, b in edges]


@pytest.mark.parametrize("moduli", [[2, 2], [4, 2], [3, 3, 2], [12], [8]])
def test_check_lattice_accepts_brute_force_lattices(moduli):
    vs, es = _labelled(moduli)
    oracle.check_lattice(moduli, vs, es)


def test_census_off_by_one_is_wrong():
    vs, es = _labelled([4, 2])
    with pytest.raises(OracleError):
        oracle.check_lattice([4, 2], vs + ["S2#9"], es)
    with pytest.raises(OracleError):
        oracle.check_lattice([4, 2], vs, es[1:])


def _torus_grid(n=4):
    """C_n x C_n quadrangulating the torus: V=n^2, E=2n^2, F=n^2."""
    v = lambda i, j: f"{i % n}.{j % n}"
    edges = [(v(i, j), v(i + 1, j)) for i in range(n) for j in range(n)]
    edges += [(v(i, j), v(i, j + 1)) for i in range(n) for j in range(n)]
    faces = [(v(i, j), v(i + 1, j), v(i + 1, j + 1), v(i, j + 1))
             for i in range(n) for j in range(n)]
    return [v(i, j) for i in range(n) for j in range(n)], edges, faces


def test_face_genus_of_a_torus_quadrangulation():
    vs, es, fs = _torus_grid()
    assert oracle.face_genus(vs, es, fs) == (16, 1)


@pytest.mark.parametrize("mutate", [
    lambda f: (f[1], f[0]) + f[2:],          # swap two corners
    lambda f: f[:-1],                        # drop a corner
    lambda f: tuple(reversed(f)),            # reverse the walk
    lambda f: (f[0], f[2], f[1], f[3]),      # reorder
])
def test_certificate_with_one_face_altered_is_wrong(mutate):
    vs, es, fs = _torus_grid()
    bad = list(fs)
    bad[5] = mutate(bad[5])
    with pytest.raises(OracleError):
        oracle.face_genus(vs, es, bad)


def test_planarity_proofs():
    k5 = [(a, b) for a, b in itertools.combinations("abcde", 2)]
    k33 = [(a, b) for a in "abc" for b in "xyz"]
    cube_v, cube_e = oracle.grid_graph([1, 1, 1])
    assert not oracle.planarity("abcde", k5)
    assert not oracle.planarity("abcxyz", k33)
    assert oracle.planarity(cube_v, cube_e)
    with pytest.raises(OracleError):
        oracle.check_planarity_answer("abcxyz", k33, True, bipartite=True)
    # a single edge (the lattice of Z_p) is planar: 2V - 4 = 0 does not apply
    assert oracle.check_planarity_answer("ab", [("a", "b")], True, bipartite=True)
    assert oracle.euler_lower_bound(2, 1) == 0 and oracle.euler_lower_bound(16, 32) == 1


def test_branch_set_with_one_vertex_dropped_is_wrong():
    # K3,3 with the edge a-x subdivided by s; a's branch set must hold s
    host = [(a, b) for a in "abc" for b in "xyz" if (a, b) != ("a", "x")]
    host += [("a", "s"), ("s", "x")]
    pattern = [(a, b) for a in "abc" for b in "xyz"]
    sets = {v: {v} for v in "abcxyz"}
    sets["a"] = {"a", "s"}
    oracle.check_minor("abcxyzs", host, "abcxyz", pattern, sets)
    sets["a"] = {"a"}
    with pytest.raises(OracleError):
        oracle.check_minor("abcxyzs", host, "abcxyz", pattern, sets)


def test_closure_rejects_a_non_subgroup():
    oracle.check_closure([4, 2], [(0, 0), (2, 0), (0, 1), (2, 1)])
    with pytest.raises(OracleError):
        oracle.check_closure([4, 2], [(0, 0), (1, 0), (2, 0)])


def test_miller_rabin_matches_trial_division():
    assert [n for n in range(2000) if oracle.is_prime(n)] == [
        n for n in range(2000) if n > 1 and all(n % d for d in range(2, int(n ** 0.5) + 1))]
    assert oracle.is_prime(10**12 + 39) and not oracle.is_prime(10**12 + 41)


def test_closed_forms():
    assert [oracle.genus_kn(n) for n in (5, 6, 7, 8)] == [1, 1, 1, 2]
    assert [oracle.genus_kmn(3, n) for n in (3, 4, 5, 6, 7)] == [1, 1, 1, 1, 2]
    assert oracle.genus_kmn(6, 4) == 2
