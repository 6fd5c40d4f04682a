"""The benchmark's four workloads: their inputs, queries and checks.

A workload is three functions:

* ``setup(lg, seed)`` builds the inputs the queries take as given.  It is
  timed, together with the import of ``latticegenus``, as ``setup_s``.
* ``queries(lg, inputs, t)`` returns ``[(qid, fn), ...]``; each ``fn()`` is
  one unit of user-visible work and returns what the check needs.  Every
  call into the program goes through ``t.call`` with the span name
  ``<module>.<function>``, so each layer is timed at its own boundary.
* ``check(lg, inputs)`` returns ``{qid: fn(answer)}``; each ``fn`` raises
  ``oracle.OracleError`` on a wrong answer.  The optional ``"inputs"``
  entry checks the set-up inputs themselves.  Checks run outside every
  timed interval, and the expected values come from ``oracle``, never
  from stored program output.

Inputs depend only on the seed.  Every seed-drawn value comes from a
fixed pool, so every query succeeds for every seed (README.md lists the
pools).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random

import oracle
from oracle import require

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def _draw(seed: int, salt: int, pool, k: int) -> list:
    return random.Random(seed * 7919 + salt).sample(list(pool), k)


def build_lattice(lg, t, text: str):
    """parse -> enumerate -> build, each at its own layer boundary."""
    spec = t.call("groups.parse_group_spec", lg.parse_group_spec, text, order_cap=None)
    subs = t.call("groups.enumerate_subgroups", lg.enumerate_subgroups, spec,
                  order_cap=None, work=lambda s: len(s.subgroups))
    g = t.call("groups.build_lattice", lg.build_lattice, subs,
               work=lambda g: len(g.edges))
    return spec, len(subs.subgroups), g


def verify(lg, t, g, cert):
    darts = 2 * len(g.edges)
    return t.call("embeddings.verify_certificate", lg.verify_certificate, g, cert,
                  work=lambda _r: darts)


def _check_cert(g, cert, want_genus: int, verified) -> None:
    faces, genus = oracle.face_genus(g.vertices, g.edges, cert.faces)
    require(genus == want_genus, f"certificate genus {genus}, expected {want_genus}")
    require((verified.faces, verified.genus) == (faces, genus),
            f"verify_certificate said {verified}, oracle {(faces, genus)}")


def _torus_proof(lg, host, seeds=range(16)) -> None:
    """A genus-1 certificate for host, found by the program's heuristic
    and accepted only after the oracle's own face-walk check."""
    for s in seeds:
        out = lg.search_embedding(host, lg.SearchConfig(1, seed=s))
        if out.status == "found":
            _faces, genus = oracle.face_genus(host.vertices, host.edges,
                                              out.certificate.faces)
            require(genus <= 1, f"torus certificate has genus {genus}")
            return
    raise oracle.OracleError("no genus-1 certificate to prove absence with")


def _k_graph(lg, n: int):
    vs = [f"v{i}" for i in range(1, n + 1)]
    return lg.Graph(vs, [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]])


def _petersen(lg):
    outer = [(f"o{i}", f"o{(i + 1) % 5}") for i in range(5)]
    spokes = [(f"o{i}", f"i{i}") for i in range(5)]
    inner = [(f"i{i}", f"i{(i + 2) % 5}") for i in range(5)]
    return lg.Graph([f"o{i}" for i in range(5)] + [f"i{i}" for i in range(5)],
                    outer + spokes + inner)


def _check_group_lattice(text: str, g) -> None:
    oracle.check_lattice(oracle.parse_moduli(text), g.vertices, g.edges)


# ================================================================ lattice

LATTICE_FIXED = ("Z1260", "Z1080", "Z27xZ27", "Z8xZ8xZ8", "Z4xZ4xZ4xZ4",
                 "Z2xZ2xZ2xZ2xZ2xZ2")

# (tier, pool, draws per run, candidates).  Enumeration cost grows about
# as the square of the order, so the pools sit in three cost tiers: ten
# cheap draws, nine mid draws of order 442..500, and ten dear queries with
# the fixed ones.  The median query is then always a mid draw, the median
# of nine queries of nearly equal cost, and the query order spreads the
# mid draws over the whole pass, so query_p50_ms rests on nine samples
# taken at different times rather than on one.
LATTICE_POOLS = (
    ("cheap", "cyclic-1-prime", 2, ("Z64", "Z81", "Z97", "Z101", "Z103", "Z107", "Z109",
                                    "Z113", "Z121", "Z125", "Z127", "Z128")),
    ("cheap", "cyclic-2-primes", 2, ("Z72", "Z75", "Z96", "Z98", "Z99", "Z100", "Z104",
                                     "Z108", "Z112", "Z116", "Z117", "Z122", "Z124")),
    ("cheap", "rank-2-p-group", 2, ("Z8xZ4", "Z9xZ3", "Z16xZ2", "Z8xZ8", "Z16xZ4", "Z9xZ9",
                                    "Z27xZ3", "Z25xZ5", "Z32xZ2", "Z32xZ4")),
    ("cheap", "rank-3-p-group", 2, ("Z4xZ2xZ2", "Z8xZ2xZ2", "Z4xZ4xZ2", "Z16xZ2xZ2",
                                    "Z8xZ4xZ2", "Z9xZ3xZ3")),
    ("cheap", "elementary", 2, ("Z2xZ2xZ2", "Z2xZ2xZ2xZ2", "Z3xZ3xZ3", "Z5xZ5", "Z7xZ7",
                                "Z11xZ11", "Z13xZ13", "Z5xZ5xZ5")),
    ("mid", "cyclic-3-primes", 5, ("Z442", "Z444", "Z450", "Z455", "Z460", "Z465",
                                   "Z468", "Z470")),
    ("mid", "cyclic-2-primes-mid", 4, ("Z472", "Z475", "Z477", "Z484", "Z486", "Z496",
                                       "Z500")),
    ("dear", "cyclic-4-primes", 1, ("Z690", "Z714", "Z770", "Z798")),
    ("dear", "rank-3-p-group-dear", 1, ("Z8xZ8xZ4", "Z32xZ8xZ2", "Z25xZ5xZ5")),
    # mixed primes below the 1500-element addition-table cutoff ...
    ("dear", "mixed-table", 1, ("Z4xZ2xZ3xZ3xZ7", "Z9xZ3xZ2xZ2xZ5", "Z7xZ7xZ3xZ2xZ2",
                                "Z5xZ5xZ2xZ2xZ7")),
    # ... and above it, where element additions go through tuple arithmetic
    ("dear", "mixed-no-table", 1, ("Z3xZ3xZ2xZ89", "Z3xZ3xZ179", "Z5xZ5xZ2xZ31",
                                   "Z2xZ2xZ2xZ211")),
)


def lattice_setup(lg, seed: int) -> list[str]:
    tiers: dict[str, list[str]] = {"dear": list(LATTICE_FIXED), "mid": [], "cheap": []}
    for salt, (tier, _name, k, pool) in enumerate(LATTICE_POOLS):
        tiers[tier].extend(_draw(seed, salt, pool, k))
    # dear, mid, cheap, dear, mid, cheap, ...
    order = itertools.zip_longest(tiers["dear"], tiers["mid"], tiers["cheap"])
    return [g for trio in order for g in trio if g is not None]


def lattice_queries(lg, groups, t):
    def query(text):
        moduli = oracle.parse_moduli(text)
        cyclic_exps = (sorted(oracle.group_type(moduli).values(), reverse=True)
                       if oracle.is_cyclic(moduli) else None)

        def run():
            spec, n_subs, g = build_lattice(lg, t, text)
            cls = t.call("formulas.classify_abelian", lg.classify_abelian, spec)
            planar = t.call("graphs.is_planar", lg.is_planar, g)
            girth = t.call("graphs.girth", lg.girth, g)
            est = None
            if cyclic_exps is not None:
                est = t.call("formulas.estimate_grid_genus", lg.estimate_grid_genus,
                             [e[0] for e in cyclic_exps])
            return {"graph": g, "subgroups": n_subs, "label": cls.label,
                    "planar": planar, "girth": girth, "estimate": est}

        return run

    return [(f"lattice:{text}", query(text)) for text in groups]


def lattice_check(lg, groups) -> dict:
    return {f"lattice:{text}": lambda a, text=text: _check_lattice_answer(text, a)
            for text in groups}


def _check_lattice_answer(text: str, a) -> None:
    g = a["graph"]
    moduli = oracle.parse_moduli(text)
    _check_group_lattice(text, g)
    require(a["subgroups"] == len(g.vertices), "subgroup count != vertex count")
    # covering edges join orders differing by one prime: graded, so
    # bipartite with girth 4 unless the lattice is a chain
    planar = oracle.check_planarity_answer(g.vertices, g.edges, a["planar"],
                                           bipartite=True)
    types = oracle.group_type(moduli)
    chain = len(types) == 1 and len(next(iter(types.values()))) == 1
    want_girth = float("inf") if chain else 4
    require(a["girth"] == want_girth, f"{text}: girth {a['girth']} != {want_girth}")
    require((a["label"] == "Genus0") == planar, f"{text}: label {a['label']} vs planar {planar}")
    euler = oracle.euler_lower_bound(len(g.vertices), len(g.edges))
    if euler >= 2:
        require(a["label"] == "AtLeastTwo", f"{text}: Euler forces genus >= {euler}")
    est = a["estimate"]
    if est is not None:
        require(est.upper is None or est.lower <= est.upper, f"{text}: empty interval")
        require(est.upper is None or est.upper >= euler,
                f"{text}: upper {est.upper} below Euler bound {euler}")
        require((est.upper == 0) == planar, f"{text}: estimate {est} vs planar {planar}")


# ================================================================== embed

TORUS_ROWS = ("Z4xZ4", "Z8xZ4", "Z9xZ9", "Z2xZ2xZ3", "Z2xZ2xZ5", "Z3xZ3xZ2",
              "Z3xZ3xZ5", "Z4xZ2xZ3", "Z4xZ2xZ5", "Z180", "Z210", "Z360")

# per row, the six seeds in 0..47 whose genus-1 heuristic evaluation count
# lies closest to the row's median; a draw then changes the search path
# but hardly the amount of work (README.md lists the counts)
HEURISTIC_SEEDS = {
    "Z4xZ4": (6, 10, 16, 30, 34, 40),
    "Z8xZ4": (0, 7, 9, 11, 32, 43),
    "Z9xZ9": (1, 4, 7, 20, 27, 45),
    "Z2xZ2xZ3": (9, 12, 20, 34, 35, 46),
    "Z2xZ2xZ5": (0, 24, 30, 32, 41, 43),
    "Z3xZ3xZ2": (11, 14, 15, 21, 24, 34),
    "Z3xZ3xZ5": (2, 9, 16, 20, 33, 40),
    "Z4xZ2xZ3": (0, 12, 15, 20, 44, 45),
    "Z4xZ2xZ5": (5, 6, 28, 30, 38, 44),
    "Z180": (8, 12, 22, 26, 27, 37),
    "Z210": (25, 26, 32, 36, 37, 40),
    "Z360": (1, 5, 22, 23, 26, 34),
}
# rows whose searches cost about the median query get two draws: with the
# exhaustive K3,5 and Z2xZ2xZ3 queries they form a cluster of ten queries
# of 4k..7k evaluations between ten cheaper and six dearer ones, so
# query_p50_ms is the median of that cluster rather than one edge sample
HEURISTIC_DRAWS = {"Z9xZ9": 2, "Z3xZ3xZ2": 2, "Z3xZ3xZ5": 2, "Z180": 2}

# graph name -> its genus, by closed form (Ringel, Ringel-Youngs) or, for
# the lattice, Euler (E > 2V - 4, bipartite) plus a genus-1 certificate
EXHAUSTIVE = (("K5", oracle.genus_kn(5)), ("K3,3", oracle.genus_kmn(3, 3)),
              ("K3,4", oracle.genus_kmn(3, 4)), ("K3,5", oracle.genus_kmn(3, 5)),
              ("K4,4", oracle.genus_kmn(4, 4)), ("Petersen", oracle.GENUS_PETERSEN),
              ("Z2xZ2xZ3", 1))

CERT_SIZES = {
    "gn": tuple(range(6, 47, 4)),
    "hn": tuple(range(5, 34, 4)),
    "zppq": (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41),
}
CERT_GENUS = {"gn": oracle.genus_gn, "hn": oracle.genus_hn, "zppq": oracle.genus_zppq}
# (vertices, edges) of each gadget, from its definition
CERT_SHAPE = {"gn": lambda n: (2 * n + 3, 5 * n), "hn": lambda n: (4 * n + 6, 10 * n + 5),
              "zppq": lambda p: (2 * (p + 3), 5 * p + 7)}
FAN_LIFT_P = 5


def embed_setup(lg, seed: int) -> dict:
    off = NullTracer()
    hosts = {row: build_lattice(lg, off, row)[2] for row in TORUS_ROWS}
    graphs = {"K5": _k_graph(lg, 5), "K3,3": lg.complete_bipartite(3, 3),
              "K3,4": lg.complete_bipartite(3, 4), "K3,5": lg.complete_bipartite(3, 5),
              "K4,4": lg.complete_bipartite(4, 4), "Petersen": _petersen(lg),
              "Z2xZ2xZ3": hosts["Z2xZ2xZ3"]}
    fan_host = f"Z{FAN_LIFT_P ** 2}xZ{FAN_LIFT_P ** 2}"
    rng = random.Random(seed * 7919 + 100)
    return {
        "hosts": hosts,
        "graphs": graphs,
        "fan_host": (fan_host, build_lattice(lg, off, fan_host)[2]),
        "heuristic": [(row, s) for row in TORUS_ROWS
                      for s in rng.sample(HEURISTIC_SEEDS[row], HEURISTIC_DRAWS.get(row, 1))],
        "certs": [(fam, tuple(sorted(_draw(seed, 101 + salt, CERT_SIZES[fam], 3))))
                  for salt, fam in enumerate(CERT_SIZES)],
    }


def embed_queries(lg, inp, t):
    qs = []
    for row, s in inp["heuristic"]:
        def heuristic(g=inp["hosts"][row], s=s):
            out = t.call("search.search_embedding.heuristic", lg.search_embedding, g,
                         lg.SearchConfig(1, seed=s), work=lambda o: o.evaluations)
            ver = verify(lg, t, g, out.certificate) if out.status == "found" else None
            return out, ver
        qs.append((f"heuristic:{row}:seed{s}", heuristic))
    for name, _genus in EXHAUSTIVE:
        def exhaustive(g=inp["graphs"][name]):
            statuses = []
            for target in range(g.edge_count):
                out = t.call("search.search_embedding.exhaustive", lg.search_embedding,
                             g, lg.SearchConfig(target, mode="exhaustive", budget=10**7),
                             work=lambda o: o.evaluations)
                statuses.append(out.status)
                if out.status != "exhausted":
                    break
            ver = verify(lg, t, g, out.certificate) if out.status == "found" else None
            return statuses, out, ver
        qs.append((f"exhaustive:{name}", exhaustive))
    def families():
        out = []
        for fam, sizes in inp["certs"]:
            for n in sizes:
                cert = t.call(f"embeddings.{fam}_certificate", getattr(lg, f"{fam}_certificate"), n)
                out.append((fam, n, cert, verify(lg, t, cert.graph, cert)))
        return out
    qs.append(("cert-families", families))

    def fan_lift():
        n = FAN_LIFT_P + 1
        cert = t.call("embeddings.gn_certificate", lg.gn_certificate, n)
        g = cert.graph
        for i in range(1, n + 1):
            labels = [f"fan{i}_{j}" for j in range(1, FAN_LIFT_P + 1)]
            g, cert = t.call("embeddings.fan_expansion", lg.fan_expansion, g, cert,
                             (f"alpha_{i}", f"beta_{i}"), FAN_LIFT_P, labels)
        lattice = inp["fan_host"][1]
        lifted = t.call("embeddings.lift_certificate_to_lattice",
                        lg.lift_certificate_to_lattice, cert, lattice)
        return lifted, verify(lg, t, lattice, lifted)
    qs.append((f"fan-lift:{FAN_LIFT_P}", fan_lift))
    return qs


def embed_check(lg, inp) -> dict:
    checks = {"inputs": lambda _a: _check_embed_inputs(inp)}
    for row, s in inp["heuristic"]:
        checks[f"heuristic:{row}:seed{s}"] = (
            lambda a, row=row, s=s: _check_heuristic(inp["hosts"][row], row, s, a))
    for name, genus in EXHAUSTIVE:
        checks[f"exhaustive:{name}"] = (
            lambda a, name=name, genus=genus: _check_exhaustive(inp["graphs"][name], name, genus, a))
    checks["cert-families"] = _check_families
    # fan surgery keeps the genus of the gadget it starts from
    checks[f"fan-lift:{FAN_LIFT_P}"] = lambda a: _check_cert(
        inp["fan_host"][1], a[0], oracle.genus_gn(FAN_LIFT_P + 1), a[1])
    return checks


def _check_embed_inputs(inp) -> None:
    for name, (m, n) in (("K3,3", (3, 3)), ("K3,4", (3, 4)), ("K3,5", (3, 5)), ("K4,4", (4, 4))):
        want = {(f"L{i}", f"R{j}") for i in range(1, m + 1) for j in range(1, n + 1)}
        require(set(inp["graphs"][name].edges) == want, f"{name} is not K_{{{m},{n}}}")
    for row, host in list(inp["hosts"].items()) + [inp["fan_host"]]:
        _check_group_lattice(row, host)
        require(not oracle.check_planarity_answer(host.vertices, host.edges, False, True),
                f"{row} is planar")


def _check_heuristic(host, row, s, a) -> None:
    out, ver = a
    require(out.status == "found", f"{row} seed {s}: heuristic ended in {out.status}")
    # the host is nonplanar (input check), so a genus <= 1 certificate is exact
    _check_cert(host, out.certificate, 1, ver)


def _check_exhaustive(g, name, genus, a) -> None:
    statuses, out, ver = a
    require(statuses == ["exhausted"] * genus + ["found"],
            f"{name}: statuses {statuses} for genus {genus}")
    if name == "Z2xZ2xZ3":
        require(len(g.edges) > 2 * len(g.vertices) - 4, "Z2xZ2xZ3 Euler premise")
    _check_cert(g, out.certificate, genus, ver)


def _check_families(a) -> None:
    for fam, n, cert, ver in a:
        shape = (len(cert.graph.vertices), len(cert.graph.edges))
        require(shape == CERT_SHAPE[fam](n), f"{fam}({n}) graph has shape {shape}")
        _check_cert(cert.graph, cert, CERT_GENUS[fam](n), ver)


# ================================================================== minor

# (host, pattern): the crosscheck rows, where a witness exists
MINOR_PRESENT = (("Z16xZ4", "bowtie"), ("Z8xZ8", "bowtie"), ("Z27xZ27", "bowtie"),
                 ("Z8xZ2xZ3", "bowtie"), ("Z9xZ3xZ2", "bowtie"), ("Z2xZ2xZ9", "bowtie"),
                 ("Z3xZ3xZ4", "k64"))
# (host, pattern, why absent): Wagner for planar hosts; genus monotonicity
# for genus-2 patterns in hosts with a checked genus-1 certificate
MINOR_ABSENT = (("Z60", "k33", "planar"), ("Z72", "k5", "planar"),
                ("Z8xZ4", "bowtie", "torus"), ("Z9xZ9", "bowtie", "torus"),
                ("Z8xZ4", "k64", "torus"))
MINOR_BUDGET = 10**7


def _oracle_pattern(name: str):
    """The pattern graphs, rebuilt from their definitions."""
    if name == "bowtie":
        e = [(u, v) for u in ("x", "a1", "a2") for v in ("b1", "b2", "b3")]
        e += [(u, v) for u in ("x", "c1", "c2") for v in ("d1", "d2", "d3")]
    elif name == "k5":
        vs = [f"v{i}" for i in range(1, 6)]
        e = [(a, b) for i, a in enumerate(vs) for b in vs[i + 1:]]
    else:
        m, n = (3, 3) if name == "k33" else (6, 4)
        e = [(f"L{i}", f"R{j}") for i in range(1, m + 1) for j in range(1, n + 1)]
    return {v for edge in e for v in edge}, {tuple(sorted(x)) for x in e}


# pattern -> genus: K3,3 blocks add (Battle-Harary-Kodama-Youngs); Ringel
PATTERN_GENUS = {"bowtie": 2 * oracle.genus_kmn(3, 3), "k64": oracle.genus_kmn(6, 4)}


def minor_setup(lg, seed: int) -> dict:
    off = NullTracer()
    names = sorted({h for h, _p in MINOR_PRESENT} | {h for h, _p, _w in MINOR_ABSENT})
    return {
        "hosts": {h: build_lattice(lg, off, h)[2] for h in names},
        "patterns": {"bowtie": lg.double_k33_pattern(), "k33": lg.complete_bipartite(3, 3),
                     "k64": lg.complete_bipartite(6, 4), "k5": _k_graph(lg, 5)},
    }


def minor_queries(lg, inp, t):
    qs = []
    rows = [(h, p, "present") for h, p in MINOR_PRESENT]
    rows += [(h, p, "absent") for h, p, _w in MINOR_ABSENT]
    for host, pat, kind in rows:
        def q(g=inp["hosts"][host], pg=inp["patterns"][pat], kind=kind):
            return t.call(f"graphs.find_minor.{kind}", lg.find_minor, g, pg, MINOR_BUDGET,
                          work=lambda r: r.nodes)
        qs.append((f"minor:{host}:{pat}", q))
    return qs


def minor_check(lg, inp) -> dict:
    checks = {"inputs": lambda _a: _check_minor_inputs(lg, inp)}
    for host, pat in MINOR_PRESENT:
        checks[f"minor:{host}:{pat}"] = (
            lambda r, g=inp["hosts"][host], pat=pat: _check_witness(g, pat, r))
    for host, pat, _why in MINOR_ABSENT:
        checks[f"minor:{host}:{pat}"] = lambda r, h=host, pat=pat: require(
            r.witness is None and r.exhausted, f"{pat} in {h}: expected an absence proof, got {r}")
    return checks


def _check_minor_inputs(lg, inp) -> None:
    for name, pg in inp["patterns"].items():
        vs, es = _oracle_pattern(name)
        require(set(pg.vertices) == vs and set(pg.edges) == es, f"pattern {name} is wrong")
    for h, g in inp["hosts"].items():
        _check_group_lattice(h, g)
    # the absences are forced by theory, not by the program's search
    for host, pat, why in MINOR_ABSENT:
        g = inp["hosts"][host]
        if why == "planar":
            require(oracle.planarity(g.vertices, g.edges), f"{host} is not planar")
        else:
            require(PATTERN_GENUS[pat] >= 2, "pattern genus premise")
            _torus_proof(lg, g)


def _check_witness(g, pat, r) -> None:
    require(r.witness is not None, f"{pat}: no witness (exhausted={r.exhausted})")
    vs, es = _oracle_pattern(pat)
    oracle.check_minor(g.vertices, g.edges, vs, es, r.witness.branch_sets)


# ==================================================================== cli

CLI_GROUPS_FIXED = ("Z2xZ2xZ2xZ2xZ2xZ2", "Z3xZ3xZ3xZ3", "Z2xZ2xZ2xZ2xZ2",
                    "Z2xZ2xZ2xZ2xZ3xZ3", "Z4xZ4xZ4")
CLI_GROUPS_DRAWN = ("Z16xZ4xZ2", "Z27xZ9", "Z8xZ8xZ2", "Z4xZ4xZ2xZ3",
                    "Z9xZ9xZ2", "Z16xZ16")
# bounds on a non-cyclic group builds its lattice.  These seven (fixed,
# so that no draw moves them) with two minors and one group are ten
# mid-cost calls between fourteen cheap and thirteen dear ones, so the
# median query is always one of them.
CLI_BOUNDS_GROUPS = ("Z9xZ3xZ3", "Z11xZ11", "Z25xZ5", "Z8xZ4xZ2", "Z8xZ4xZ3", "Z32xZ4",
                     "Z4xZ4xZ4")
# where the classify targets draw their primes
PRIME_BANDS = {"1e12": (10**12, 10**12 + 10**6), "1e6": (10**6, 10**6 + 10**4),
               "1e3": (1000, 1300), "1e2": (100, 200)}


def _primes_in(rng, band: str, k: int) -> list[int]:
    lo, hi = PRIME_BANDS[band]
    out: list[int] = []
    while len(out) < k:
        n = rng.randrange(lo, hi)
        if oracle.is_prime(n) and n not in out:
            out.append(n)
    return out


def _classify_targets(seed: int) -> list[tuple[str, str, tuple]]:
    """(expression, shape kind, shape) with every factor order near 10**12."""
    rng = random.Random(seed * 7919 + 200)
    (big,) = _primes_in(rng, "1e12", 1)
    (big2,) = _primes_in(rng, "1e12", 1)
    p, q = _primes_in(rng, "1e6", 2)
    a, b, c, d = _primes_in(rng, "1e3", 4)
    e, f, g, h = _primes_in(rng, "1e2", 4)
    return [
        (f"Z{big}", "grid", (1,)),
        (f"Z{big2}xZ{big2}", "k2n", ()),
        (f"Z{p * q}", "grid", (1, 1)),
        (f"Z{a * b * c * d}", "grid", (1, 1, 1, 1)),
        (f"Z{e * e * f * f * g * h}", "grid", (2, 2, 1, 1)),
    ]


def _capture(lg_cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lg_cli.main(argv)
    return code, out.getvalue()


def cli_setup(lg, seed: int) -> dict:
    import latticegenus.cli  # noqa: F401  (timed with the package import)

    rng = random.Random(seed * 7919 + 302)
    grids = [sorted((rng.randint(1, 4) for _ in range(k)), reverse=True) for k in (2, 3, 4)]
    bounds = [",".join(map(str, sorted((rng.randint(1, 5) for _ in range(3)), reverse=True)))]
    bounds += list(CLI_BOUNDS_GROUPS)
    certs = [(fam, _draw(seed, 306 + i, CERT_SIZES[fam], 1)[0]) for i, fam in enumerate(CERT_SIZES)]
    certs.append(("fan-lift", FAN_LIFT_P))
    return {
        "groups": list(CLI_GROUPS_FIXED) + _draw(seed, 300, CLI_GROUPS_DRAWN, 2),
        "grids": grids,
        "bounds": bounds,
        "classify": _classify_targets(seed),
        "certs": certs,
        # genus-1 searches with seeds from the embed workload's pools, so
        # their cost does not swing with the draw
        "search": [("Z2xZ2xZ3", 1, "heuristic", rng.choice(HEURISTIC_SEEDS["Z2xZ2xZ3"])),
                   ("Z180", 1, "heuristic", rng.choice(HEURISTIC_SEEDS["Z180"])),
                   ("Z2xZ2xZ3", 0, "exhaustive", 0)],
        "minor": [("Z16xZ4", "bowtie"), ("Z9xZ3xZ2", "bowtie"), ("Z72", "k5")],
    }


def cli_queries(lg, inp, t):
    import latticegenus.cli as lg_cli

    def cli(sub, *args):
        argv = [sub, *map(str, args)]
        return t.call(f"cli.{sub}", _capture, lg_cli, argv,
                      work=lambda r: len(r[1].encode()))

    os.makedirs(os.path.join(OUT_DIR, "cli"), exist_ok=True)
    qs = []
    for grp in inp["groups"]:
        qs.append((f"group:{grp}", lambda grp=grp: cli("group", grp, "--json")))
    for ex in inp["grids"]:
        qs.append((f"grid:{ex}", lambda ex=ex: cli("grid", *ex, "--json")))
    for target in inp["bounds"]:
        qs.append((f"bounds:{target}", lambda target=target: cli("bounds", target, "--json")))
    for expr, _kind, _shape in inp["classify"]:
        qs.append((f"classify:{expr}", lambda expr=expr: cli("classify", expr, "--json")))
    for fam, n in inp["certs"]:
        path = os.path.join(OUT_DIR, "cli", f"{fam}-{n}.json")

        def make(fam=fam, n=n, path=path):
            code, text = cli("make-cert", fam, n)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            return code, text
        qs.append((f"make-cert:{fam}:{n}", make))
        qs.append((f"verify:{fam}:{n}", lambda path=path: cli("verify", path, "--json")))
    for target, genus, mode, s in inp["search"]:
        qs.append((f"search:{target}:{genus}:{mode}",
                   lambda a=(target, "--genus", genus, "--mode", mode, "--seed", s):
                   cli("search", *a, "--json")))
    for host, pat in inp["minor"]:
        qs.append((f"minor:{host}:{pat}", lambda a=(host, pat): cli("minor", *a, "--json")))
    return qs


def _json_ok(answer) -> dict:
    code, text = answer
    require(code == 0, f"exit code {code}")
    return json.loads(text)


def cli_check(lg, inp) -> dict:
    checks = {}
    for grp in inp["groups"]:
        checks[f"group:{grp}"] = lambda a, grp=grp: _check_group_doc(grp, _json_ok(a))
    for ex in inp["grids"]:
        checks[f"grid:{ex}"] = lambda a, ex=ex: _check_grid_doc(ex, _json_ok(a))
    for target in inp["bounds"]:
        checks[f"bounds:{target}"] = lambda a, t=target: _check_bounds_doc(lg, t, _json_ok(a))
    for expr, kind, shape in inp["classify"]:
        checks[f"classify:{expr}"] = lambda a, e=expr, k=kind, sh=shape: require(
            _json_ok(a)["label"] == _shape_label(lg, k, sh), f"classify {e}: {a[1]}")
    for fam, n in inp["certs"]:
        path = os.path.join(OUT_DIR, "cli", f"{fam}-{n}.json")
        checks[f"make-cert:{fam}:{n}"] = lambda a, fam=fam, n=n: _check_cert_doc(
            lg, fam, n, _json_ok(a))
        checks[f"verify:{fam}:{n}"] = lambda a, path=path: _check_verify_doc(path, _json_ok(a))
    for target, genus, mode, _s in inp["search"]:
        checks[f"search:{target}:{genus}:{mode}"] = lambda a, t=target, g=genus, m=mode: (
            _check_search_doc(lg, t, g, m, _json_ok(a)))
    for host, pat in inp["minor"]:
        checks[f"minor:{host}:{pat}"] = lambda a, h=host, p=pat: _check_minor_doc(
            lg, h, p, _json_ok(a))
    return checks


def _target_graph(lg, target: str):
    """The oracle's view of a CLI target: its own grid for an exponent
    list; for a group, the program's lattice after the lattice checks."""
    if "," in target or target.isdigit():
        return oracle.grid_graph([int(x) for x in target.split(",")])
    _spec, _n, g = build_lattice(lg, NullTracer(), target)
    _check_group_lattice(target, g)
    return g.vertices, g.edges


def _check_group_doc(grp: str, doc) -> None:
    moduli = oracle.parse_moduli(doc["group"])
    require(oracle.group_type(moduli) == oracle.group_type(oracle.parse_moduli(grp)),
            f"{grp} printed as {doc['group']}")
    subs = doc["subgroups"]
    for s in subs:
        require(s["order"] == len(s["elements"]), f"{s['id']}: order vs element count")
        oracle.check_closure(moduli, s["elements"])
    require(len({frozenset(map(tuple, s["elements"])) for s in subs}) == len(subs),
            f"{grp}: repeated subgroup")
    lat = doc["lattice"]
    require(sorted(lat["vertices"]) == sorted(s["id"] for s in subs), f"{grp}: lattice ids")
    oracle.check_lattice(moduli, lat["vertices"], [tuple(e) for e in lat["edges"]])
    census, _e = oracle.lattice_census(moduli)
    require(doc["census"] == {str(k): v for k, v in census.items()}, f"{grp}: census")


def _check_grid_doc(ex, doc) -> None:
    vs, es = oracle.grid_graph(ex)
    require(sorted(doc["graph"]["vertices"]) == sorted(vs), f"grid {ex}: vertices")
    require({tuple(sorted(e)) for e in doc["graph"]["edges"]}
            == {tuple(sorted(e)) for e in es}, f"grid {ex}: edges")


def _check_bounds_doc(lg, target: str, doc) -> None:
    vs, es = _target_graph(lg, target)
    planar = oracle.planarity(vs, es)
    lo, up = doc["lower"], doc["upper"]
    require(up is None or lo <= up, f"bounds {target}: empty interval")
    require((up == 0) if planar else lo >= 1, f"bounds {target}: [{lo},{up}] vs planar {planar}")
    euler = oracle.euler_lower_bound(len(vs), len(es))
    require(up is None or up >= euler, f"bounds {target}: upper below Euler {euler}")


def _check_cert_doc(lg, fam: str, n: int, cert) -> None:
    g = cert["graph"]
    edges = [tuple(e) for e in g["edges"]]
    _faces, genus = oracle.face_genus(g["vertices"], edges, [tuple(f) for f in cert["faces"]])
    if fam == "fan-lift":
        text = f"Z{n * n}xZ{n * n}"
        vs, _es = _target_graph(lg, text)
        require(sorted(g["vertices"]) == sorted(vs), "fan-lift vertex labels")
        oracle.check_lattice(oracle.parse_moduli(text), g["vertices"], edges)
        want = oracle.genus_gn(n + 1)
    else:
        require((len(g["vertices"]), len(edges)) == CERT_SHAPE[fam](n), "gadget shape")
        want = CERT_GENUS[fam](n)
    require(genus == want, f"make-cert {fam} {n}: genus {genus} != {want}")


def _check_verify_doc(path: str, doc) -> None:
    with open(path, encoding="utf-8") as fh:
        cert = json.load(fh)
    g = cert["graph"]
    got = oracle.face_genus(g["vertices"], [tuple(e) for e in g["edges"]],
                            [tuple(f) for f in cert["faces"]])
    require((doc["faces"], doc["genus"]) == got, f"verify {path}: {doc} != {got}")


def _check_search_doc(lg, target: str, genus: int, mode: str, doc) -> None:
    vs, es = _target_graph(lg, target)
    if mode == "exhaustive":
        # an absence proof at genus 0 is right exactly when the target is nonplanar
        require(genus == 0 and doc["status"] == "exhausted" and not oracle.planarity(vs, es),
                f"search {target}: {doc['status']}")
        return
    require(doc["status"] == "found", f"search {target}: {doc['status']}")
    require(sorted(doc["graph"]["vertices"]) == sorted(vs), f"search {target}: vertex labels")
    _f, got = oracle.face_genus(vs, es, [tuple(x) for x in doc["faces"]])
    require(got <= genus and doc["genus"] == got, f"search {target}: genus {got}")


def _check_minor_doc(lg, host: str, pat: str, doc) -> None:
    vs, es = _target_graph(lg, host)
    if pat == "k5":
        require(not doc["found"] and doc["exhausted"], f"minor {host} {pat}: {doc}")
        require(oracle.planarity(vs, es), f"{host} is not planar (Wagner premise)")
        return
    require(doc["found"], f"minor {host} {pat}: not found")
    pv, pe = _oracle_pattern(pat)
    oracle.check_minor(vs, es, pv, pe, doc["branch_sets"])


def _shape_label(lg, kind: str, shape) -> str:
    """Genus class of the lattice shape, decided by the oracle: planar by a
    checked embedding, >= 2 by Euler, 1 by nonplanarity plus a checked
    genus-1 certificate.  Z_p x Z_p has lattice K_{2,p+1}, planar for all p."""
    if kind == "k2n":
        return "Genus0"
    vs, es = oracle.grid_graph(shape)
    if oracle.planarity(vs, es):
        return "Genus0"
    if oracle.euler_lower_bound(len(vs), len(es)) >= 2:
        return "AtLeastTwo"
    _torus_proof(lg, lg.Graph(vs, es))
    return "Genus1"


class NullTracer:
    """Calls straight through; used where nothing is measured."""

    @staticmethod
    def call(_name, fn, *args, work=None, **kwargs):
        return fn(*args, **kwargs)


WORKLOADS = {
    "lattice": (lattice_setup, lattice_queries, lattice_check),
    "embed": (embed_setup, embed_queries, embed_check),
    "minor": (minor_setup, minor_queries, minor_check),
    "cli": (cli_setup, cli_queries, cli_check),
}
