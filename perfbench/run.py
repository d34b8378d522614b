"""End-to-end benchmark of the binsketch pipeline.

    python3 perfbench/run.py --workload {ingest,scan} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout (the code under test is imported
from ``src/``). Set-up generates the workload's inputs from ``--seed`` in
child processes; the pipeline then runs in this process through
``binsketch.cli.main`` and its outputs are checked against an independent
reference. ``--trace 0`` reports the end-to-end metrics with tracing off;
``--trace 1`` runs every command once untraced and once with per-layer
spans, back to back, and reports the per-layer metrics and the tracing
overhead. The last line of stdout is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
REPORTS = os.path.join(ROOT, ".perfbench_out")

SETUP_TIMEOUT_S = 150
MIN_LOOP_QUERIES = 200
REPEAT_BUDGET_S = 1.5
REFERENCE_SAMPLE = 64


class Ledger:
    """Operations attempted and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, error: str | None) -> None:
        self.attempted += 1
        if error is not None:
            self.failures.append(f"{what}: {error}")


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values), q))


def run_setup(workload: str, seed: int, out: str, trace: bool) -> dict:
    """One set-up in a fresh interpreter; returns its setup.json."""
    import workloads

    argv = [sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
            "--seed", str(seed), "--out", out]
    if trace:
        argv.append("--trace")
    subprocess.run(argv, check=True, timeout=SETUP_TIMEOUT_S, stdout=subprocess.DEVNULL)
    with open(os.path.join(out, workloads.SETUP_JSON)) as fh:
        return json.load(fh)


def check_pipeline(outcomes, w, ledger: Ledger) -> None:
    import pipeline

    ran = {o.command.label for o in outcomes}
    for outcome in outcomes:
        ledger.record(outcome.command.label, outcome.error)
    for cmd in pipeline.commands(w, 0, "", ""):
        if cmd.label not in ran:
            ledger.record(cmd.label, "not run: an earlier command failed")


def verify_outputs(w, seed: int, inputs: str, out: str, outcomes, ledger: Ledger) -> dict:
    """Check a sample of queries and both mAP values against the reference.

    Returns the sketch-shape counters read on the way.
    """
    import numpy as np

    import pipeline
    import reference
    from workloads import CLASSES_TSV, derived_seed

    files = pipeline.output_files(out)
    class_map = reference.load_class_map(os.path.join(inputs, CLASSES_TSV))
    reports = {o.command.label: o.report for o in outcomes}
    rng = np.random.default_rng(derived_seed(seed, 2))
    sample = np.sort(rng.choice(w.query_programs, min(REFERENCE_SAMPLE, w.query_programs),
                                replace=False))
    repo_sets = reference.StructuralSets(files["repo.stru"])
    query_sets = reference.StructuralSets(files["query.stru"])
    repo_rows = reference.SemanticRows(files["repo.sem"])
    query_rows = reference.SemanticRows(files["query.sem"])
    sides = {
        "stru": (query_sets.ids, lambda row: repo_sets.jaccard(query_sets.positions(row)),
                 repo_sets.ids, 0.0),
        "sem": (query_rows.ids, lambda row: query_rows.cosine(row, repo_rows),
                repo_rows.ids, reference.COSINE_EPS),
    }
    for mode, (query_ids, score, repo_ids, eps) in sides.items():
        results = reference.load_results(files[f"hits.{mode}.tsv"])
        ledger.record(f"hits.{mode} query set",
                      None if list(results) == query_ids else "queries missing or reordered")
        for row in sample:
            qid = query_ids[row]
            ledger.record(f"query {mode} {qid}",
                          reference.check_query(score(row), repo_ids, results.get(qid, []),
                                                w.k, eps))
        want = reference.map_at_k(results, class_map, w.k)
        got = reports.get(f"eval.{mode}", {}).get("map_at_k")
        ledger.record(f"eval.{mode} map_at_k",
                      None if got is not None and abs(float(got) - want) <= 1.5e-6
                      else f"{got}, reference {want:.6f}")
    pops = repo_sets.sizes
    return {
        "stru_popcount_mean": float(pops.mean()),
        "stru_popcount_p95": percentile(pops, 95),
        "stru_density": float(pops.mean()) / repo_sets.m,
        "tsv_bytes_per_program": os.path.getsize(os.path.join(inputs, "repo.tsv"))
        / w.repo_programs,
        "stru_bytes_per_program": os.path.getsize(files["repo.stru"]) / w.repo_programs,
        "sem_bytes_per_program": os.path.getsize(files["repo.sem"]) / w.repo_programs,
    }


def end_to_end(w, setup_times, outcomes, loops, rss_mb, ledger) -> dict:
    t = {o.command.label: o.mean_s for o in outcomes if o.error is None}
    reports = {o.command.label: o.report for o in outcomes}
    m = {
        "setup_s": (statistics.median(setup_times), "s"),
        "pipeline_s": (sum(t.values()), "s"),
        "train_s": (t.get("kmeans-train"), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "verified_share": (1 - len(ledger.failures) / ledger.attempted, "ratio"),
    }
    for mode in ("stru", "sem"):
        hash_s = [t.get(f"hash.{mode}.repo"), t.get(f"hash.{mode}.query")]
        if None not in hash_s:
            m[f"index.{mode}.functions_per_s"] = (
                (w.repo_functions + w.query_functions) / sum(hash_s), "1/s")
        if f"index-search.{mode}" in t:
            m[f"search.{mode}.queries_per_s"] = (
                w.query_programs / t[f"index-search.{mode}"], "1/s")
        if mode in loops:
            m[f"query.{mode}.p95_ms"] = (percentile(loops[mode], 95), "ms")
        if "map_at_k" in reports.get(f"eval.{mode}", {}):
            m[f"map100.{mode}"] = (float(reports[f"eval.{mode}"]["map_at_k"]), "ratio")
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items() if v is not None}


def per_layer(pipeline_summary, setup_summary, counts, shape, overhead) -> dict:
    def total(name, key="s"):
        return (pipeline_summary.get(name) or setup_summary.get(name) or {}).get(key, 0)

    def count(name, key):
        return counts.get(name, {}).get(key, 0)

    def rate(amount, seconds):
        return amount / seconds if seconds > 0 else 0.0

    m = {
        "corpus.load_corpus.s": (total("corpus.load_corpus"), "s"),
        "corpus.load_corpus.calls": (total("corpus.load_corpus", "calls"), "count"),
        "corpus.load_corpus.functions_per_s": (
            rate(count("corpus.load_corpus", "functions"), total("corpus.load_corpus")), "1/s"),
        "corpus.tsv_bytes": (count("corpus.load_corpus", "bytes"), "bytes"),
        "corpus.save_corpus.s": (total("corpus.save_corpus"), "s"),
        "corpus.stru_bytes_per_program": (shape["stru_bytes_per_program"], "bytes"),
    }
    for op in ("load", "save"):
        for kind in ("structural", "semantic"):
            m[f"corpus.{op}_{kind}.s"] = (total(f"corpus.{op}_{kind}"), "s")
    m.update({
        "synth.generate.s": (total("synth.generate"), "s"),
        "synth.generate.functions": (count("synth.generate", "functions"), "count"),
        "kmeans.train.s": (total("kmeans.train"), "s"),
        "kmeans.train.points": (count("kmeans.train", "points"), "count"),
        "kmeans.train.iterations": (count("kmeans.train", "iterations"), "count"),
        "kmeans.train.objective_final": (count("kmeans.train", "objective_final"), "sum_cos"),
        "kmeans.classify.s": (total("kmeans.classify"), "s"),
        "kmeans.classify.calls": (total("kmeans.classify", "calls"), "count"),
        "kmeans.classify.rows": (count("kmeans.classify", "rows"), "count"),
        "structural.hash_program.self_s": (total("structural.hash_program", "self_s"), "s"),
        "structural.labels_to_bitvector.s": (total("structural.labels_to_bitvector"), "s"),
        "structural.labels_to_bitvector.calls": (
            total("structural.labels_to_bitvector", "calls"), "count"),
        "structural.jaccard_many.s": (total("structural.jaccard_many"), "s"),
        "structural.jaccard_many.calls": (total("structural.jaccard_many", "calls"), "count"),
        "structural.jaccard_many.comparisons_per_s": (
            rate(count("structural.jaccard_many", "comparisons"),
                 total("structural.jaccard_many")), "1/s"),
        "semantic.hash_program.s": (total("semantic.hash_program"), "s"),
        "semantic.hash_program.calls": (total("semantic.hash_program", "calls"), "count"),
        "semantic.hash_program.functions": (count("semantic.hash_program", "functions"),
                                            "count"),
        "search.build.s": (total("search.build"), "s"),
        "search.search.self_s": (total("search.search", "self_s"), "s"),
        "search.batch_search.s": (total("search.batch_search"), "s"),
        "search.comparisons": (count("search.search", "comparisons"), "count"),
        "search.save_results.s": (total("search.save_results"), "s"),
        "search.load_results.s": (total("search.load_results"), "s"),
        "metrics.load_class_map.s": (total("metrics.load_class_map"), "s"),
        "metrics.judgments_from_results.s": (total("metrics.judgments_from_results"), "s"),
        "metrics.map_at_k.s": (total("metrics.map_at_k"), "s"),
    })
    for command in ("kmeans-train", "hash", "index-search", "eval"):
        m[f"cli.{command}.self_s"] = (total(f"cli.{command}", "self_s"), "s")
    m.update({
        "trace.pipeline_s": (overhead["traced_s"], "s"),
        "trace.overhead_s": (overhead["traced_s"] - overhead["untraced_s"], "s"),
        "trace.spans": (overhead["spans"], "count"),
        "shape.functions": (shape["repo_functions"] + shape["query_functions"], "count"),
        "shape.programs": (shape["repo_programs"] + shape["query_programs"], "count"),
        "shape.program_size.mean": (shape["program_size_mean"], "functions"),
        "shape.program_size.p95": (shape["program_size_p95"], "functions"),
        "shape.stru_popcount.mean": (shape["stru_popcount_mean"], "bits"),
        "shape.stru_popcount.p95": (shape["stru_popcount_p95"], "bits"),
        "shape.stru_density": (shape["stru_density"], "ratio"),
        "shape.tsv_bytes_per_program": (shape["tsv_bytes_per_program"], "bytes"),
        "shape.sem_bytes_per_program": (shape["sem_bytes_per_program"], "bytes"),
    })
    return {name: {"value": v, "unit": u} for name, (v, u) in m.items()}


def measure(w, seed: int, seconds: float, work: str, ledger: Ledger) -> dict:
    """Set up, run the pipeline, then measure the short commands and the
    closed loop in two halves with the second set-up between them.

    Host speed drifts over seconds; the halves place each of these samples
    on both sides of the second set-up instead of in one short stretch.
    """
    import pipeline

    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    setups = [run_setup(w.name, seed, inputs, False)]
    out = os.path.join(work, "out")
    outcomes = pipeline.run(w, seed, inputs, out)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    loop = None
    if len(outcomes) == len(pipeline.commands(w, seed, inputs, out)) and \
            outcomes[-1].error is None:
        files = pipeline.output_files(out)
        loop = pipeline.ClosedLoop(
            {mode: (files[f"repo.{mode}"], files[f"query.{mode}"], files[f"hits.{mode}.tsv"])
             for mode in ("stru", "sem")}, w.k)
        for half in (1, 2):
            if half == 2:
                setups.append(run_setup(w.name, seed, inputs, False))
            pipeline.repeat(outcomes, REPEAT_BUDGET_S * half / 2)
            loop.run(MIN_LOOP_QUERIES * half // 2, seconds / 2)
        ledger.attempted += sum(len(v) for v in loop.latencies_ms.values())
        ledger.failures += ["closed loop: wrong answer"] * loop.failed
    check_pipeline(outcomes, w, ledger)
    shape = dict(setups[0]["shape"])
    if not ledger.failures:
        shape.update(verify_outputs(w, seed, inputs, out, outcomes, ledger))
    loops = loop.latencies_ms if loop else {}
    metrics = end_to_end(w, [s["setup_s"] for s in setups], outcomes, loops, rss_mb, ledger)
    return {
        "metrics": metrics,
        "shape": shape,
        "setup_s": [s["setup_s"] for s in setups],
        "commands": {o.command.label: o.seconds for o in outcomes},
        "closed_loop": {
            mode: {"queries": len(v), "p50_ms": percentile(v, 50), "p95_ms": percentile(v, 95)}
            for mode, v in loops.items()
        },
    }


def measure_traced(w, seed: int, work: str, ledger: Ledger) -> dict:
    import pipeline
    import spans

    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    setup = run_setup(w.name, seed, inputs, True)
    plain_dir, traced_dir = os.path.join(work, "plain"), os.path.join(work, "traced")
    tracer = spans.Tracer()
    plain, traced = pipeline.run_interleaved(w, seed, inputs, plain_dir, traced_dir, tracer)
    check_pipeline(plain, w, ledger)
    check_pipeline(traced, w, ledger)
    result = {
        "commands": {p.command.label: p.seconds + t.seconds for p, t in zip(plain, traced)},
        "missing_spans": tracer.missing,
        "counter_errors": tracer.counter_errors,
    }
    if ledger.failures:
        return result
    shape = dict(setup["shape"])
    shape.update(verify_outputs(w, seed, inputs, traced_dir, traced, ledger))
    plain_files, traced_files = (pipeline.output_files(d) for d in (plain_dir, traced_dir))
    for name in plain_files:
        with open(plain_files[name], "rb") as a, open(traced_files[name], "rb") as b:
            ledger.record(f"traced {name} identical", None if a.read() == b.read()
                          else "traced output differs from untraced")
    exported = tracer.export()
    overhead = {
        "untraced_s": sum(o.mean_s for o in plain),
        "traced_s": sum(o.mean_s for o in traced),
        "spans": len(exported) + len(setup["spans"]),
    }
    counts = {**setup["counts"], **tracer.counts}
    result.update(
        metrics=per_layer(spans.summarize(exported), spans.summarize(setup["spans"]),
                          counts, shape, overhead),
        shape=shape,
        spans={"setup": setup["spans"], "pipeline": exported},
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="binsketch end-to-end benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "binsketch", "cli.py")):
        print(f"error: no binsketch sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    w = workloads.WORKLOADS.get(args.workload)
    if w is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    work = os.path.join(WORK, f"{w.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    os.makedirs(work)
    ledger = Ledger()
    try:
        if args.trace:
            result = measure_traced(w, args.seed, work, ledger)
        else:
            result = measure(w, args.seed, args.seconds, work, ledger)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    result["failures"] = ledger.failures
    os.makedirs(REPORTS, exist_ok=True)
    report_path = os.path.join(REPORTS, f"{w.name}-seed{args.seed}-trace{args.trace}.json")
    with open(report_path, "w") as fh:
        json.dump(result, fh)
    for key in ("shape", "commands", "setup_s", "closed_loop", "missing_spans",
                "counter_errors"):
        if key in result:
            print(f"{key}: {json.dumps(result[key])}")
    for failure in ledger.failures[:20]:
        print(f"FAILED {failure}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": max(ledger.attempted, 1),
        "failed": len(ledger.failures),
        "metrics": result.get("metrics", {}),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
