"""Command line front end for lattice genus computations.

Every command is deterministic given its flags and seed: identical
invocations print identical bytes.  With --json the entire stdout is a
single machine-readable JSON document; search progress goes to stderr
so stdout stays parseable.  One exit-code contract covers all
subcommands: 0 success, 1 a verification or crosscheck found a
disagreement, 2 bad input, 3 a work budget ran out before the question
was settled.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .embeddings import (
    CertificateError,
    EmbeddingCertificate,
    InvariantError,
    fan_expansion,
    gn_certificate,
    hn_certificate,
    lift_certificate_to_lattice,
    verify_certificate,
    zppq_certificate,
)
from .formulas import (
    AbelianClass,
    FormulaError,
    GenusEstimate,
    classify_abelian,
    estimate_grid_genus,
    euler_lower_bound_int,
    family_genus,
    genus_complete_bipartite,
)
from .graphs import (
    Graph,
    GraphError,
    complete_bipartite,
    double_k33_pattern,
    find_minor,
    girth,
    grid_graph,
    is_planar,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupSpec,
    _is_prime,
    build_lattice,
    enumerate_subgroups,
    lattice_for,
    parse_group_spec,
)
from .search import SearchConfig, SearchError, search_embedding

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3

SEARCH_BUDGET_DEFAULT = 10**6
MINOR_BUDGET_DEFAULT = 10**7


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _print_doc(obj) -> None:
    print(_dumps(obj))


def _estimate_text(est: GenusEstimate) -> str:
    if est.exact:
        head = f"genus {est.lower}"
    elif est.upper is None:
        head = f"genus >= {est.lower}"
    else:
        head = f"genus in [{est.lower}, {est.upper}]"
    return head + " (" + ", ".join(est.provenance) + ")"


def _grid_exponents(text: str) -> tuple[int, ...] | None:
    """Exponents of a grid token like 2,2,3; None if text names a group."""
    stripped = text.strip()
    if not (stripped and all(ch.isdigit() or ch == "," for ch in stripped)):
        return None
    exps = tuple(int(tok) for tok in stripped.split(",") if tok)
    if not exps:
        raise GraphError(f"empty exponent list {text!r}")
    return exps


def _target_graph(text: str, order_cap: int | None) -> tuple[str, Graph]:
    """Resolve a target token: a grid exponent list like 2,2,3 builds a
    grid graph, anything else is parsed as a group expression whose
    subgroup lattice is built."""
    exps = _grid_exponents(text)
    if exps is not None:
        return "grid " + ",".join(map(str, exps)), grid_graph(exps)
    spec = parse_group_spec(text.strip(), order_cap=order_cap)
    return spec.name(), lattice_for(spec, order_cap=order_cap)


# ---------------------------------------------------------------- group


def cmd_group(args) -> int:
    spec = parse_group_spec(args.group, order_cap=args.order_cap)
    subs = enumerate_subgroups(spec, order_cap=args.order_cap)
    lattice = build_lattice(subs)
    if args.dot:
        print(lattice.to_dot(name=spec.name()))
        return EXIT_OK
    census = subs.census()
    if args.json:
        doc = subs.to_json_dict()
        doc["census"] = {str(k): census[k] for k in sorted(census)}
        doc["lattice"] = lattice.to_json_dict()
        _print_doc(doc)
        return EXIT_OK
    print(f"{spec.name()}: order {spec.order}, {len(subs.labels())} subgroups")
    for order in sorted(census):
        print(f"  order {order}: {census[order]}")
    print(f"lattice: {lattice.vertex_count} vertices, {lattice.edge_count} edges")
    return EXIT_OK


# ----------------------------------------------------------------- grid


def cmd_grid(args) -> int:
    g = grid_graph(tuple(args.exponents))
    name = "grid_" + "_".join(str(e) for e in args.exponents)
    if args.dot:
        print(g.to_dot(name=name))
        return EXIT_OK
    if args.json:
        _print_doc({"exponents": list(args.exponents), "graph": g.to_json_dict()})
        return EXIT_OK
    print(f"{name}: {g.vertex_count} vertices, {g.edge_count} edges")
    return EXIT_OK


# --------------------------------------------------------------- bounds


def _family_estimate(spec: GroupSpec) -> GenusEstimate | None:
    """Closed-form genus for the parameterized lattice families, when
    the factor pattern matches one."""
    pattern = spec.prime_pattern()
    primes = sorted(pattern)
    if len(primes) == 1:
        p = primes[0]
        exps = pattern[p]
        if exps == (2, 2):
            return family_genus("Zp2xZp2", p)
        if exps == (3, 2):
            return family_genus("Zp3xZp2", p)
        if exps == (1, 1, 1):
            return family_genus("ZpxZpxZp", p)
        return None
    if len(primes) == 2:
        a, b = primes
        for p, q in ((a, b), (b, a)):
            if pattern[p] == (1, 1) and pattern[q] == (1,):
                return family_genus("ZpxZpxZq", p, q)
            if pattern[p] == (1, 1) and pattern[q] == (2,):
                return family_genus("ZpxZpxZq2", p, q)
    return None


def _group_bounds(spec: GroupSpec, order_cap: int | None) -> GenusEstimate:
    if spec.is_cyclic:
        # a cyclic group's lattice is exactly the divisor grid
        return estimate_grid_genus(spec.exponents)
    cls = classify_abelian(spec)
    est = GenusEstimate(
        cls.lower, cls.upper, cls.upper == cls.lower, (f"table:abelian:{cls.label}",)
    )
    fam = _family_estimate(spec)
    if fam is not None:
        est = est.merge(fam)
    lattice = lattice_for(spec, order_cap=order_cap)
    if is_planar(lattice):
        est = est.merge(GenusEstimate.exactly(0, ["planarity"]))
    else:
        est = est.merge(GenusEstimate.at_least(1, ["nonplanar"]))
        gi = girth(lattice)
        # the quadrilateral Euler bound needs girth >= 4
        if gi >= 4:
            lower = euler_lower_bound_int(lattice.vertex_count, lattice.edge_count)
            est = est.merge(GenusEstimate.at_least(lower, ["bound:euler"]))
    return est


def cmd_bounds(args) -> int:
    exps = _grid_exponents(args.target)
    if exps is not None:
        name = "grid " + ",".join(map(str, exps))
        est = estimate_grid_genus(exps)
    else:
        spec = parse_group_spec(args.target.strip(), order_cap=args.order_cap)
        name = spec.name()
        est = _group_bounds(spec, args.order_cap)
    if args.json:
        doc = est.to_json_dict()
        doc["target"] = name
        _print_doc(doc)
    else:
        print(f"{name}: {_estimate_text(est)}")
    return EXIT_OK


# -------------------------------------------------------------- classify


def cmd_classify(args) -> int:
    # classification is arithmetic on the factor pattern; no lattice is
    # built, so the order cap does not apply here
    spec = parse_group_spec(args.group, order_cap=None)
    cls = classify_abelian(spec)
    if args.json:
        _print_doc(
            {
                "group": spec.name(),
                "label": cls.label,
                "lower": cls.lower,
                "upper": cls.upper,
            }
        )
    else:
        bound = (
            f"genus {cls.lower}" if cls.upper == cls.lower else f"genus >= {cls.lower}"
        )
        print(f"{spec.name()}: {cls.label} ({bound})")
    return EXIT_OK


# --------------------------------------------------------------- verify


def cmd_verify(args) -> int:
    if args.certificate == "-":
        raw = sys.stdin.read()
    else:
        try:
            with open(args.certificate, "r", encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INPUT
    try:
        data = json.loads(raw)
        cert = EmbeddingCertificate.from_json_dict(data)
    except (json.JSONDecodeError, CertificateError, GraphError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        result = verify_certificate(cert.graph, cert)
    except CertificateError as exc:
        if args.json:
            _print_doc({"message": str(exc), "violation": exc.code})
        else:
            print(f"violation {exc.code}: {exc}")
        return EXIT_DISAGREE
    if args.json:
        _print_doc({"faces": result.faces, "genus": result.genus})
    else:
        print(f"genus {result.genus} ({result.faces} faces)")
    return EXIT_OK


# ------------------------------------------------------------- make-cert


def _fan_lift_certificate(p: int) -> EmbeddingCertificate:
    """Embedding certificate for the lattice of the square of a cyclic
    group of order p**2, built by fanning every rim edge of the gadget
    embedding and relabeling onto the real lattice."""
    if not _is_prime(p) or (p + 1) % 4 != 2:
        raise CertificateError(
            "bad-parameter", f"fan lift needs a prime p with p+1 = 2 mod 4, got {p}"
        )
    n = p + 1
    cert = gn_certificate(n)
    g = cert.graph
    for i in range(1, n + 1):
        labels = [f"fan{i}_{j}" for j in range(1, p + 1)]
        g, cert = fan_expansion(g, cert, (f"alpha_{i}", f"beta_{i}"), p, labels)
    lattice = lattice_for(f"Z{p * p}xZ{p * p}", order_cap=None)
    return lift_certificate_to_lattice(cert, lattice)


def cmd_make_cert(args) -> int:
    if args.family == "gn":
        cert = gn_certificate(args.parameter)
    elif args.family == "hn":
        cert = hn_certificate(args.parameter)
    elif args.family == "zppq":
        cert = zppq_certificate(args.parameter)
    else:
        cert = _fan_lift_certificate(args.parameter)
    _print_doc(cert.to_json_dict())
    return EXIT_OK


# --------------------------------------------------------------- search


def cmd_search(args) -> int:
    name, g = _target_graph(args.target, args.order_cap)
    budget = args.budget if args.budget is not None else SEARCH_BUDGET_DEFAULT
    cfg = SearchConfig(
        target_genus=args.genus,
        mode=args.mode,
        seed=args.seed,
        budget=budget,
        restarts=args.restarts,
    )

    def progress(restart: int, best_faces: int) -> None:
        line = json.dumps(
            {"restart": restart, "best_faces": best_faces}, separators=(",", ":")
        )
        print(line, file=sys.stderr, flush=True)

    outcome = search_embedding(g, cfg, progress if cfg.mode == "heuristic" else None)
    if outcome.status == "found":
        result = verify_certificate(g, outcome.certificate)
        if args.json:
            doc = outcome.certificate.to_json_dict()
            doc["evaluations"] = outcome.evaluations
            doc["genus"] = result.genus
            doc["status"] = "found"
            _print_doc(doc)
        else:
            print(
                f"{name}: genus-{result.genus} embedding with {result.faces} faces"
                f" ({outcome.evaluations} evaluations)"
            )
        return EXIT_OK
    if args.json:
        _print_doc({"evaluations": outcome.evaluations, "status": outcome.status})
    else:
        verdict = (
            f"no embedding of genus {cfg.target_genus} exists"
            if outcome.status == "exhausted"
            else "budget exhausted, inconclusive"
        )
        print(f"{name}: {verdict} ({outcome.evaluations} evaluations)")
    return EXIT_OK if outcome.status == "exhausted" else EXIT_BUDGET


# ---------------------------------------------------------------- minor


_PATTERN_NAMES = ("bowtie", "k33", "k5", "k64")


def _named_pattern(name: str) -> Graph:
    if name == "bowtie":
        return double_k33_pattern()
    if name == "k33":
        return complete_bipartite(3, 3)
    if name == "k64":
        return complete_bipartite(6, 4)
    verts = [f"v{i}" for i in range(1, 6)]
    return Graph(verts, [(a, b) for i, a in enumerate(verts) for b in verts[i + 1 :]])


def cmd_minor(args) -> int:
    name, host = _target_graph(args.host, args.order_cap)
    pattern = _named_pattern(args.pattern)
    budget = args.budget if args.budget is not None else MINOR_BUDGET_DEFAULT
    result = find_minor(host, pattern, budget)
    if result.witness is not None:
        if args.json:
            doc = result.witness.to_json_dict()
            doc["found"] = True
            doc["nodes"] = result.nodes
            doc["pattern"] = args.pattern
            _print_doc(doc)
        else:
            print(f"{name}: {args.pattern} minor found ({result.nodes} nodes searched)")
            for pv, bs in sorted(result.witness.branch_sets.items()):
                print(f"  {pv}: {' '.join(sorted(bs))}")
        return EXIT_OK
    if args.json:
        _print_doc(
            {
                "exhausted": result.exhausted,
                "found": False,
                "nodes": result.nodes,
                "pattern": args.pattern,
            }
        )
    else:
        verdict = (
            f"no {args.pattern} minor exists"
            if result.exhausted
            else "budget exhausted, inconclusive"
        )
        print(f"{name}: {verdict} ({result.nodes} nodes searched)")
    return EXIT_OK if result.exhausted else EXIT_BUDGET


# ------------------------------------------------------------ crosscheck


# classification prediction vs independent evidence, one row per group;
# evidence tags: planar = planarity test, torus-search = heuristic
# genus-1 certificate, fan-lift = constructed certificate, minor-* =
# witness forcing genus >= 2, euler = edge-count lower bound
_ROSTER: tuple[tuple[str, str], ...] = (
    ("Z8", "planar"),
    ("Z30", "planar"),
    ("Z60", "planar"),
    ("Z72", "planar"),
    ("Z4xZ2", "planar"),
    ("Z32xZ2", "planar"),
    ("Z9xZ3", "planar"),
    ("Z25xZ5", "planar"),
    ("Z4xZ4", "torus-search"),
    ("Z8xZ4", "torus-search"),
    ("Z9xZ9", "torus-search"),
    ("Z25xZ25", "fan-lift"),
    ("Z2xZ2xZ3", "torus-search"),
    ("Z2xZ2xZ5", "torus-search"),
    ("Z3xZ3xZ2", "torus-search"),
    ("Z3xZ3xZ5", "torus-search"),
    ("Z4xZ2xZ3", "torus-search"),
    ("Z4xZ2xZ5", "torus-search"),
    ("Z180", "torus-search"),
    ("Z210", "torus-search"),
    ("Z360", "torus-search"),
    ("Z1080", "torus-search"),
    ("Z16xZ4", "minor-bowtie"),
    ("Z8xZ8", "minor-bowtie"),
    ("Z27xZ27", "minor-bowtie"),
    ("Z8xZ2xZ3", "minor-bowtie"),
    ("Z9xZ3xZ2", "minor-bowtie"),
    ("Z2xZ2xZ9", "minor-bowtie"),
    ("Z3xZ3xZ4", "minor-k64"),
    ("Z4xZ4xZ3", "euler"),
    ("Z2xZ2xZ3xZ3", "euler"),
    ("Z3xZ3xZ2xZ5", "euler"),
    ("Z1260", "euler"),
)


def _row_evidence(
    spec: GroupSpec, tag: str, seed: int, budget: int | None
) -> GenusEstimate | None:
    """Independent genus evidence for one roster row, or None when the
    budget ran out before the needed bound was established."""
    lattice = lattice_for(spec, order_cap=None)
    if tag == "planar":
        if is_planar(lattice):
            return GenusEstimate.exactly(0, ["planarity"])
        return GenusEstimate.at_least(1, ["nonplanar"])
    if tag == "torus-search":
        if is_planar(lattice):
            return GenusEstimate.exactly(0, ["planarity"])
        cfg = SearchConfig(
            target_genus=1,
            seed=seed,
            budget=budget if budget is not None else SEARCH_BUDGET_DEFAULT,
        )
        outcome = search_embedding(lattice, cfg)
        if outcome.status == "found":
            return GenusEstimate.exactly(1, ["nonplanar", "certificate:search"])
        return None
    if tag == "fan-lift":
        if is_planar(lattice):
            return GenusEstimate.exactly(0, ["planarity"])
        p = sorted(spec.prime_pattern())[0]
        cert = _fan_lift_certificate(p)
        genus = verify_certificate(cert.graph, cert).genus
        return GenusEstimate.exactly(genus, ["nonplanar", "certificate:fan-lift"])
    if tag in ("minor-bowtie", "minor-k64"):
        if tag == "minor-bowtie":
            pattern = double_k33_pattern()
            # two K33 blocks sharing a cut vertex: genus adds over blocks
            lower = 2 * genus_complete_bipartite(3, 3)
            provenance = ["minor:double-k33", "block-additivity"]
        else:
            pattern = complete_bipartite(6, 4)
            lower = genus_complete_bipartite(6, 4)
            provenance = ["minor:k6-4", "formula:complete-bipartite"]
        result = find_minor(
            lattice, pattern, budget if budget is not None else MINOR_BUDGET_DEFAULT
        )
        if result.witness is not None:
            return GenusEstimate.at_least(lower, provenance)
        return None
    gi = girth(lattice)
    if gi >= 4:
        lower = euler_lower_bound_int(lattice.vertex_count, lattice.edge_count)
        return GenusEstimate.at_least(lower, ["bound:euler"])
    return None


def _row_agrees(predicted: AbelianClass, est: GenusEstimate) -> bool:
    if predicted.label == "Genus0":
        return est.exact and est.lower == 0
    if predicted.label == "Genus1":
        return est.exact and est.lower == 1
    return est.lower >= 2


def cmd_crosscheck(args) -> int:
    disagreements = 0
    inconclusive = 0
    for text, tag in _ROSTER:
        spec = parse_group_spec(text, order_cap=None)
        predicted = classify_abelian(spec)
        est = _row_evidence(spec, tag, args.seed, args.budget)
        if est is None:
            inconclusive += 1
            agree = None
            status = "inconclusive"
        elif _row_agrees(predicted, est):
            agree = True
            status = "agree"
        else:
            disagreements += 1
            agree = False
            status = "DISAGREE"
        if args.json:
            row = {
                "agree": agree,
                "evidence": tag,
                "group": spec.name(),
                "predicted": predicted.label,
            }
            if est is not None:
                row["estimate"] = est.to_json_dict()
            print(_dumps(row), flush=True)
        else:
            shown = (
                _estimate_text(est) if est is not None else "no evidence within budget"
            )
            print(
                f"{spec.name():14} {predicted.label:11} {tag:13} {shown:44} {status}",
                flush=True,
            )
    summary = {
        "disagreements": disagreements,
        "inconclusive": inconclusive,
        "rows": len(_ROSTER),
    }
    if args.json:
        print(_dumps(summary))
    else:
        print(
            f"{len(_ROSTER)} rows: {disagreements} disagreements,"
            f" {inconclusive} inconclusive"
        )
    if disagreements:
        return EXIT_DISAGREE
    if inconclusive:
        return EXIT_BUDGET
    return EXIT_OK


# ----------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    shared.add_argument(
        "--budget",
        type=int,
        default=None,
        help="work cap: rotation evaluations for search, nodes for minor"
        " (defaults 10^6 and 10^7)",
    )
    shared.add_argument(
        "--json", action="store_true", help="print one machine-readable JSON document"
    )
    shared.add_argument(
        "--dot", action="store_true", help="print Graphviz DOT (group and grid)"
    )
    shared.add_argument(
        "--order-cap",
        type=int,
        default=DEFAULT_ORDER_CAP,
        help=f"largest group order to build a lattice for (default {DEFAULT_ORDER_CAP})",
    )

    parser = argparse.ArgumentParser(
        prog="latticegenus",
        description="Subgroup lattices of finite abelian groups and their genus.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "group", parents=[shared], help="enumerate subgroups and build the lattice"
    )
    p.add_argument("group", help="group expression, e.g. Z4xZ4 or Z72")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("grid", parents=[shared], help="build a divisor grid graph")
    p.add_argument("exponents", type=int, nargs="+", help="prime-power exponents")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser(
        "bounds", parents=[shared], help="compose genus bounds for a target"
    )
    p.add_argument("target", help="group expression or comma list of grid exponents")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "classify", parents=[shared], help="classify a group's lattice genus"
    )
    p.add_argument("group", help="group expression; works above the order cap")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser(
        "verify", parents=[shared], help="verify an embedding certificate"
    )
    p.add_argument("certificate", help="certificate JSON path, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser(
        "make-cert", parents=[shared], help="emit a family embedding certificate"
    )
    p.add_argument("family", choices=("gn", "hn", "zppq", "fan-lift"))
    p.add_argument("parameter", type=int, help="n for gn/hn, prime p otherwise")
    p.set_defaults(func=cmd_make_cert)

    p = sub.add_parser(
        "search", parents=[shared], help="search for a bounded-genus embedding"
    )
    p.add_argument("target", help="group expression or comma list of grid exponents")
    p.add_argument("--genus", type=int, required=True, help="target genus")
    p.add_argument(
        "--mode", choices=("heuristic", "exhaustive"), default="heuristic"
    )
    p.add_argument("--restarts", type=int, default=16, help="heuristic restarts")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("minor", parents=[shared], help="search for a named minor")
    p.add_argument("host", help="group expression or comma list of grid exponents")
    p.add_argument("pattern", choices=_PATTERN_NAMES)
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser(
        "crosscheck",
        parents=[shared],
        help="classification vs independent evidence over the built-in roster",
    )
    p.set_defaults(func=cmd_crosscheck)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.func(args)
    except CertificateError as exc:
        print(f"error {exc.code}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (GroupError, GraphError, FormulaError, SearchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except InvariantError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE


if __name__ == "__main__":
    raise SystemExit(main())
