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
    fan_lift_certificate,
    gn_certificate,
    hn_certificate,
    verify_certificate,
    zppq_certificate,
)
from .evidence import MINOR_PATTERNS, crosscheck_rows, group_bounds
from .formulas import FormulaError, GenusEstimate, classify_abelian, estimate_grid_genus
from .graphs import (
    MINOR_BUDGET_DEFAULT,
    Graph,
    GraphError,
    InvariantError,
    find_minor,
    grid_graph,
    grid_vertex_count,
)
from .groups import (
    DEFAULT_ORDER_CAP,
    GroupError,
    GroupSpec,
    build_lattice,
    enumerate_subgroups,
    lattice_for,
    parse_group_spec,
)
from .search import SEARCH_BUDGET_DEFAULT, SearchConfig, SearchError, search_embedding

EXIT_OK = 0
EXIT_DISAGREE = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


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


def _target(
    text: str, order_cap: int | None
) -> tuple[str, tuple[int, ...] | GroupSpec]:
    """Parse a target token and name it: a grid exponent list like 2,2,3,
    or else a group expression."""
    stripped = text.strip()
    # isdecimal, not isdigit: superscripts are digits that int() rejects
    if stripped and all(ch.isdecimal() or ch == "," for ch in stripped):
        tokens = stripped.split(",")
        # refused, not repaired: 1,,2 is not the grid 1,2
        if not all(tokens):
            raise GraphError(f"empty exponent list {text!r}")
        try:
            exps = tuple(int(tok) for tok in tokens)
        except ValueError:
            # int() refuses more digits than the interpreter's limit
            raise GraphError("grid exponent has too many digits")
        return "grid " + ",".join(map(str, exps)), exps
    spec = parse_group_spec(stripped, order_cap=order_cap)
    return spec.name(), spec


def _target_graph(text: str, order_cap: int | None) -> tuple[str, Graph]:
    """A target's name and graph: the grid graph, or the group's subgroup
    lattice."""
    name, target = _target(text, order_cap)
    if isinstance(target, GroupSpec):
        return name, lattice_for(target, order_cap=order_cap)
    return name, _grid(target, order_cap)


def _grid(exponents: tuple[int, ...], order_cap: int | None) -> Graph:
    """The grid graph, refused before it is built when it has more
    vertices than the cap."""
    if order_cap is not None and grid_vertex_count(exponents) > order_cap:
        raise GraphError(f"grid vertex count exceeds cap {order_cap}")
    return grid_graph(exponents)


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
    print(f"{spec.name()}: order {spec.order}, {len(subs.subgroups)} subgroups")
    for order in sorted(census):
        print(f"  order {order}: {census[order]}")
    print(f"lattice: {lattice.vertex_count} vertices, {lattice.edge_count} edges")
    return EXIT_OK


# ----------------------------------------------------------------- grid


def cmd_grid(args) -> int:
    g = _grid(tuple(args.exponents), DEFAULT_ORDER_CAP)
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


def cmd_bounds(args) -> int:
    name, target = _target(args.target, args.order_cap)
    if isinstance(target, GroupSpec):
        est = group_bounds(target, args.order_cap)
    else:
        est = estimate_grid_genus(target)
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
    try:
        if args.certificate == "-":
            raw = sys.stdin.read()
        else:
            with open(args.certificate, "r", encoding="utf-8") as fh:
                raw = fh.read()
        cert = EmbeddingCertificate.from_json_dict(json.loads(raw))
    # undecodable bytes, bad JSON, an integer past the digit limit and
    # CertificateError/GraphError are all ValueErrors; JSON nested past
    # the recursion limit raises RecursionError
    except (OSError, ValueError, RecursionError) as exc:
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


# each family's certificate builder and the vertex count of its graph
_FAMILIES = {
    "gn": (gn_certificate, lambda n: 2 * n + 3),
    "hn": (hn_certificate, lambda n: 4 * n + 6),
    "zppq": (zppq_certificate, lambda p: 2 * (p + 3)),
    "fan-lift": (fan_lift_certificate, lambda p: p * p + 3 * p + 5),
}


def cmd_make_cert(args) -> int:
    build, vertex_count = _FAMILIES[args.family]
    # refused before it is built, as grid targets are
    if vertex_count(args.parameter) > DEFAULT_ORDER_CAP:
        raise GraphError(f"{args.family} certificate vertex count exceeds cap {DEFAULT_ORDER_CAP}")
    _print_doc(build(args.parameter).to_json_dict())
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
    )

    def progress(restart: int, best_faces: int) -> None:
        line = json.dumps(
            {"restart": restart, "best_faces": best_faces}, separators=(",", ":")
        )
        print(line, file=sys.stderr, flush=True)

    outcome = search_embedding(g, cfg, progress if cfg.mode == "heuristic" else None)
    if outcome.status == "found":
        result = outcome.verified
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


def cmd_minor(args) -> int:
    name, host = _target_graph(args.host, args.order_cap)
    pattern = MINOR_PATTERNS[args.pattern]()
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


def cmd_crosscheck(args) -> int:
    rows = disagreements = inconclusive = 0
    for row in crosscheck_rows(args.seed, args.budget):
        rows += 1
        disagreements += row.status == "DISAGREE"
        inconclusive += row.status == "inconclusive"
        est = row.estimate
        if args.json:
            doc = {
                "agree": None if est is None else row.status == "agree",
                "evidence": row.tag,
                "group": row.spec.name(),
                "predicted": row.predicted.label,
            }
            if est is not None:
                doc["estimate"] = est.to_json_dict()
            print(_dumps(doc), flush=True)
        else:
            shown = (
                _estimate_text(est) if est is not None else "no evidence within budget"
            )
            print(
                f"{row.spec.name():14} {row.predicted.label:11} {row.tag:13}"
                f" {shown:44} {row.status}",
                flush=True,
            )
    summary = {
        "disagreements": disagreements,
        "inconclusive": inconclusive,
        "rows": rows,
    }
    if args.json:
        print(_dumps(summary))
    else:
        print(f"{rows} rows: {disagreements} disagreements, {inconclusive} inconclusive")
    if disagreements:
        return EXIT_DISAGREE
    if inconclusive:
        return EXIT_BUDGET
    return EXIT_OK


# ----------------------------------------------------------------- main


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one shared option."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the shared options its handler reads
    seed = _option("--seed", type=int, default=0, help="RNG seed (default 0)")
    budget = _option(
        "--budget",
        type=int,
        default=None,
        help="work cap: rotation evaluations for search, nodes for minor"
        " (defaults 10^6 and 10^7)",
    )
    as_json = _option(
        "--json", action="store_true", help="print one machine-readable JSON document"
    )
    dot = _option("--dot", action="store_true", help="print Graphviz DOT")
    order_cap = _option(
        "--order-cap",
        type=int,
        default=DEFAULT_ORDER_CAP,
        help=f"cap on group order, subgroup count and grid vertices (default {DEFAULT_ORDER_CAP})",
    )

    parser = argparse.ArgumentParser(
        prog="latticegenus",
        description="Subgroup lattices of finite abelian groups and their genus.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser(
        "group",
        parents=[as_json, dot, order_cap],
        help="enumerate subgroups and build the lattice",
    )
    p.add_argument("group", help="group expression, e.g. Z4xZ4 or Z72")
    p.set_defaults(func=cmd_group)

    p = sub.add_parser("grid", parents=[as_json, dot], help="build a divisor grid graph")
    p.add_argument("exponents", type=int, nargs="+", help="prime-power exponents")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser(
        "bounds", parents=[as_json, order_cap], help="compose genus bounds for a target"
    )
    p.add_argument("target", help="group expression or comma list of grid exponents")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser(
        "classify", parents=[as_json], help="classify a group's lattice genus"
    )
    p.add_argument("group", help="group expression; works above the order cap")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", parents=[as_json], help="verify an embedding certificate")
    p.add_argument("certificate", help="certificate JSON path, or - for stdin")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("make-cert", help="emit a family embedding certificate")
    p.add_argument("family", choices=tuple(_FAMILIES))
    p.add_argument("parameter", type=int, help="n for gn/hn, prime p otherwise")
    p.set_defaults(func=cmd_make_cert)

    p = sub.add_parser(
        "search",
        parents=[as_json, seed, budget, order_cap],
        help="search for a bounded-genus embedding",
    )
    p.add_argument("target", help="group expression or comma list of grid exponents")
    p.add_argument("--genus", type=int, required=True, help="target genus")
    p.add_argument(
        "--mode", choices=("heuristic", "exhaustive"), default="heuristic"
    )
    p.set_defaults(func=cmd_search)

    p = sub.add_parser(
        "minor", parents=[as_json, budget, order_cap], help="search for a named minor"
    )
    p.add_argument("host", help="group expression or comma list of grid exponents")
    p.add_argument("pattern", choices=tuple(MINOR_PATTERNS))
    p.set_defaults(func=cmd_minor)

    p = sub.add_parser(
        "crosscheck",
        parents=[as_json, seed, budget],
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
