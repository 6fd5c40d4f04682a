"""Run one benchmark workload and print its metrics as one JSON line.

    python3 benchmark/run.py --workload lattice --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory, never from an installed copy.  One process, one
thread.  The run

1. sets up several times (fresh import of ``latticegenus`` plus the
   workload's inputs) and reports the median as ``setup_s``;
2. makes whole passes over the workload's fixed query list until the next
   pass would end past ``--seconds`` (at least one pass);
3. with ``--trace 1``, makes as many passes again with one span recorded
   per public call, and reports the per-layer metrics from them;
4. checks every answer of every pass against the independent oracle.

The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; raw pass and query times (and spans) go to
``benchmark/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")

# set-up repeats: at least SETUP_MIN_REPS, more while they take under
# SETUP_SECONDS in all, so that cheap set-ups get a steadier median
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 30
SETUP_SECONDS = 3.0


class Tracer:
    """Records one span per call: (name, start, end, parent span index,
    query id, work count).  Spans stay in memory until the run ends; the
    untraced passes use ``workloads.NullTracer`` instead."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.qid = None

    def call(self, name, fn, *args, work=None, **kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
        self.spans[idx] = (name, t0, t1, parent, self.qid,
                           work(result) if work is not None else None)
        return result


# per-layer metrics: (span name, work metric or None, rate metric or None,
# how the rate is formed from work w and self time s)
LAYERS = (
    ("groups.parse_group_spec", None, None, None),
    ("groups.enumerate_subgroups", "groups.subgroups", "groups.subgroups_per_s", "w/s"),
    ("groups.build_lattice", None, "groups.lattice_edges_per_s", "w/s"),
    ("graphs.is_planar", None, None, None),
    ("graphs.girth", None, None, None),
    ("formulas.classify_abelian", None, None, None),
    ("formulas.estimate_grid_genus", None, None, None),
    ("graphs.find_minor.present", "graphs.find_minor.present.nodes",
     "graphs.find_minor.present.nodes_per_s", "w/s"),
    ("graphs.find_minor.absent", "graphs.find_minor.absent.nodes",
     "graphs.find_minor.absent.nodes_per_s", "w/s"),
    ("search.search_embedding.heuristic", "search.search_embedding.heuristic.evaluations",
     "search.search_embedding.heuristic.us_per_evaluation", "us/w"),
    ("search.search_embedding.exhaustive", "search.search_embedding.exhaustive.nodes",
     "search.search_embedding.exhaustive.us_per_node", "us/w"),
    ("embeddings.verify_certificate", "embeddings.verify_certificate.darts",
     "embeddings.verify_certificate.darts_per_s", "w/s"),
    ("embeddings.gn_certificate", None, None, None),
    ("embeddings.hn_certificate", None, None, None),
    ("embeddings.zppq_certificate", None, None, None),
    ("embeddings.fan_expansion", None, None, None),
    ("embeddings.lift_certificate_to_lattice", None, None, None),
    ("cli.group", None, None, None),
    ("cli.grid", None, None, None),
    ("cli.bounds", None, None, None),
    ("cli.classify", None, None, None),
    ("cli.make-cert", None, None, None),
    ("cli.verify", None, None, None),
    ("cli.search", None, None, None),
    ("cli.minor", None, None, None),
)


def per_layer(spans, passes: list[tuple[float, float]]) -> dict:
    """Self time, call count and work per layer, per traced pass; the
    metric is the median over passes.  Self time is a span's duration
    minus the time its child spans cover."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _q, _w in spans:
        if parent >= 0:
            child[parent] += t1 - t0
    rows = []
    for lo, hi in passes:
        row: dict[str, list] = {}
        for i, (name, t0, t1, _p, _q, w) in enumerate(spans):
            if lo <= t0 and t1 <= hi:
                acc = row.setdefault(name, [0.0, 0, 0])
                acc[0] += (t1 - t0) - child[i]
                acc[1] += 1
                acc[2] += w or 0
        rows.append(row)

    def med(name, k):
        return statistics.median(r.get(name, [0.0, 0, 0])[k] for r in rows)

    out = {}
    for name, work_key, rate_key, rate in LAYERS:
        s, calls, work = med(name, 0), med(name, 1), med(name, 2)
        out[f"{name}.s"] = (s, "s")
        out[f"{name}.calls"] = (calls, "count")
        if work_key:
            out[work_key] = (work, "count")
        if rate == "w/s":
            out[rate_key] = (work / s if s > 0 else 0.0, "1/s")
        elif rate == "us/w":
            out[rate_key] = (1e6 * s / work if work else 0.0, "us")
    out["cli.stdout_bytes"] = (
        statistics.median(sum(v[2] for k, v in r.items() if k.startswith("cli.")) for r in rows),
        "count",
    )
    return out


def import_program():
    """Import latticegenus afresh from this checkout's src/."""
    for name in [m for m in sys.modules if m == "latticegenus" or m.startswith("latticegenus.")]:
        del sys.modules[name]
    lg = importlib.import_module("latticegenus")
    if not os.path.abspath(lg.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"latticegenus imported from {lg.__file__}, not {SRC}")
    return lg


def run_passes(queries, seconds: float, tracer: Tracer | None):
    """Whole passes over the query list until the next would end past
    ``seconds``.  Returns (pass times, per-query times, answers per pass,
    failures, pass intervals, peak RSS in MB after the first pass).

    The peak RSS is read after the first pass because the answers of later
    passes are kept for checking, and how many passes fit depends on speed."""
    pass_times: list[float] = []
    intervals = []
    query_times: dict[str, list[float]] = {qid: [] for qid, _fn in queries}
    answers: list[dict] = []
    failures: list[str] = []
    rss_mb = 0.0
    while not pass_times or sum(pass_times) + pass_times[-1] <= seconds:
        gc.collect()
        got = {}
        p0 = time.perf_counter()
        for qid, fn in queries:
            q0 = time.perf_counter()
            try:
                if tracer is None:
                    got[qid] = fn()
                else:
                    tracer.qid = qid
                    got[qid] = tracer.call("query", fn)
            except Exception:  # a failed operation is counted, not fatal
                failures.append(f"{qid}: {traceback.format_exc(limit=3)}")
                got[qid] = None
            query_times[qid].append(time.perf_counter() - q0)
        p1 = time.perf_counter()
        pass_times.append(p1 - p0)
        intervals.append((p0, p1))
        answers.append(got)
        if len(answers) == 1:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return pass_times, query_times, answers, failures, intervals, rss_mb


def check_answers(checks: dict, passes: list[dict]) -> list[str]:
    """Run each query's oracle check on every pass's answer (failed
    queries have none); returns one line per wrong answer.  An answer
    equal to one of the same query that already passed is not checked
    again."""
    problems = []
    passed: dict[str, list] = {}

    def run(qid, fn, answer):
        try:
            fn(answer)
        except Exception as exc:  # a malformed output is a wrong answer too
            problems.append(f"{qid}: {type(exc).__name__}: {exc}")
            return
        passed.setdefault(qid, []).append(answer)

    if "inputs" in checks:
        run("inputs", checks["inputs"], None)
    for answers in passes:
        for qid, answer in answers.items():
            if qid not in checks:
                problems.append(f"{qid}: no check")
            elif answer is not None and answer not in passed.get(qid, []):
                run(qid, checks[qid], answer)
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "latticegenus", "__init__.py")):
        print(f"error: no latticegenus sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    setup, make_queries, check = workloads.WORKLOADS[args.workload]

    setup_times = []
    while len(setup_times) < SETUP_MIN_REPS or (
            sum(setup_times) < SETUP_SECONDS and len(setup_times) < SETUP_MAX_REPS):
        gc.collect()
        t0 = time.perf_counter()
        lg = import_program()
        inputs = setup(lg, args.seed)
        setup_times.append(time.perf_counter() - t0)

    plain = run_passes(make_queries(lg, inputs, workloads.NullTracer()), args.seconds, None)
    runs = [plain]
    tracer = None
    if args.trace:
        tracer = Tracer()
        runs.append(run_passes(make_queries(lg, inputs, tracer), args.seconds, tracer))

    attempted = sum(len(r[1]) * len(r[0]) for r in runs)
    failures = [f for r in runs for f in r[3]]
    problems = check_answers(check(lg, inputs), [a for r in runs for a in r[2]])

    pass_times, query_times = plain[0], plain[1]
    run_s = statistics.median(pass_times)
    if args.trace:
        metrics = per_layer(tracer.spans, runs[1][4])
        metrics["trace.overhead_s"] = (statistics.median(runs[1][0]) - run_s, "s")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "run_s": (run_s, "s"),
            "query_p50_ms": (1000 * statistics.median(
                statistics.median(ts) for ts in query_times.values()), "ms"),
            "peak_rss_mb": (plain[5], "MB"),
        }

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    raw = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(raw, "w", encoding="utf-8") as fh:
        json.dump({"setup_times": setup_times, "pass_times": pass_times,
                   "query_times": query_times, "failures": failures,
                   "problems": problems,
                   "spans": tracer.spans if tracer else []}, fh)
    for line in failures + problems:
        print(line, file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
