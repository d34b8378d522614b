"""Command-line front end.

One binary, eight subcommands covering the whole pipeline: generate a
synthetic corpus, train the centroid codebook, hash programs to structural
or semantic embeddings, run top-k search, and score the results. Exit
codes: 0 on success, 2 for any usage, config, validation, format or file
problem (one ``error:`` line on stderr), 1 only for a failed loss-check or
an internal fault.

The shared settings (:class:`PipelineConfig`) are settled once, in
:func:`main`: a flag beats ``--config``, which beats the default. Every
command then reads them from the parsed flags alone.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, fields, replace
from itertools import islice

import numpy as np

from . import contrastive, kmeans, metrics, search, semantic, structural, synth
from .corpus import (
    SKETCHES,
    STRUCTURAL,
    RecordBlocks,
    load_corpus,
    read_ids,
    read_records,
    save_corpus,
    save_semantic,
    stack_embeddings,
    write_records,
)
from .errors import BinsketchError, ConfigError, ValidationError

logger = logging.getLogger(__name__)

_WEIGHT_MODES = {
    "sem": "full",
    "mean": "mean_pooling",
    "loc": "loc_only",
    "nos": "nos_only",
}


@dataclass(frozen=True)
class PipelineConfig:
    """File-configurable defaults shared by the subcommands."""

    d: int = synth.SynthConfig.d
    n_clusters: int = 1024
    iterations: int = kmeans.DEFAULT_ITERATIONS
    m: int = structural.DEFAULT_M
    seed_kmeans: int = 0
    seed_position: int = structural.DEFAULT_SEED_POSITION
    seed_sign: int = structural.DEFAULT_SEED_SIGN
    alpha1: float = semantic.WeightConfig.alpha1
    alpha2: float = semantic.WeightConfig.alpha2
    beta1: float = semantic.WeightConfig.beta1
    beta2: float = semantic.WeightConfig.beta2
    k: int = 100

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        try:
            with open(path, "rb") as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(raw) - known
        if unknown:
            raise ConfigError(f"{path}: unknown config keys {sorted(unknown)}")
        defaults = cls()
        for name, value in raw.items():
            # JSON has one number type: an int is a valid float, never the reverse.
            expected = type(getattr(defaults, name))
            allowed = (int, float) if expected is float else int
            if isinstance(value, bool) or not isinstance(value, allowed):
                raise ConfigError(f"{path}: {name} must be {expected.__name__}, got {value!r}")
        return replace(defaults, **raw)


def _emit(pairs) -> None:
    sys.stdout.write(metrics.format_report(dict(pairs)))


def cmd_synth(args) -> int:
    spec = synth.SynthConfig(
        classes=args.classes,
        programs_per_class=args.programs_per_class,
        queries_per_class=args.queries_per_class,
        functions_per_program=args.functions_per_program,
        d=args.d,
        reuse=args.reuse,
        noise=args.noise,
    )
    repository, queries = synth.generate(spec, seed=args.seed)
    save_corpus(repository, args.out_repo, d=spec.d)
    save_corpus(queries, args.out_query, d=spec.d)
    if args.out_classes:
        mapping = synth.class_map(repository)
        mapping.update(synth.class_map(queries))
        metrics.save_class_map(mapping, args.out_classes)
    _emit(
        [
            ("repository_programs", len(repository)),
            ("query_programs", len(queries)),
            ("functions_per_program", spec.functions_per_program),
            ("d", spec.d),
        ]
    )
    return 0


def cmd_kmeans_train(args) -> int:
    _, X, _ = stack_embeddings(load_corpus(args.corpus))
    if not X.shape[0]:
        raise ValidationError(f"{args.corpus}: corpus has no non-zero-norm functions to train on")
    if args.sample < 0:
        raise ConfigError(f"--sample must be >= 0, got {args.sample}")
    seed = args.seed_kmeans
    if seed < 0:
        raise ConfigError(f"--seed (or seed_kmeans) must be >= 0, got {seed}")
    if args.sample and args.sample < X.shape[0]:
        rng = np.random.default_rng(seed)
        X = X[rng.choice(X.shape[0], size=args.sample, replace=False)]
    model = kmeans.train(X, n_clusters=args.n_clusters, iterations=args.iterations, seed=seed)
    kmeans.save_model(model, args.out)
    _emit(
        [
            ("n_clusters", model.n_clusters),
            ("d", model.d),
            ("iterations", len(model.objective)),
            ("trained_on", X.shape[0]),
            ("objective", model.objective[-1]),
        ]
    )
    return 0


def cmd_hash(args) -> int:
    programs = load_corpus(args.corpus)
    if not programs:
        raise ValidationError(f"{args.corpus}: corpus has no programs to hash")
    ids = [prog.program_id for prog in programs]
    if args.mode == "stru":
        if not args.model:
            raise ConfigError("--mode stru requires --model")
        model = kmeans.load_model(args.model)
        hasher = structural.FeatureHasher(args.m, args.seed_position, args.seed_sign)
        blocks = structural.sketch_blocks(programs, model, hasher)
        write_records(args.out, STRUCTURAL, hasher.m, ids, blocks)
    else:
        wcfg = semantic.WeightConfig(
            args.alpha1, args.alpha2, args.beta1, args.beta2, mode=_WEIGHT_MODES[args.mode]
        )
        save_semantic(list(zip(ids, semantic.hash_programs(programs, wcfg))), args.out)
    _emit([("programs", len(ids)), ("mode", args.mode)])
    return 0


def cmd_index_search(args) -> int:
    repo = search.load_index(args.repo_emb)
    fmt, param, query_ids, rows = read_records(args.query_emb, *SKETCHES)
    search.check_queries(repo, fmt, param)
    ranking = search.batch_search(repo, rows, k=args.k, workers=args.workers)
    search.save_results(zip(query_ids, ranking), args.out)
    _emit([("queries", len(query_ids)), ("repository", len(repo)), ("k", args.k)])
    return 0


def cmd_eval(args) -> int:
    results = search.load_results(args.results)
    class_map = metrics.load_class_map(args.class_map)
    repo_ids = None
    if args.repo_emb:
        repo_ids = read_ids(args.repo_emb)
    judgments, excluded = metrics.judgments_from_results(
        results, class_map, k=args.k, repo_ids=repo_ids
    )
    if not judgments:
        raise ValidationError("no scorable queries (all were excluded)")
    _emit(
        [
            ("queries", len(judgments)),
            ("excluded_queries", excluded),
            ("k", args.k),
            ("map_at_k", metrics.map_at_k(judgments, args.k)),
            ("mp_at_k", metrics.mp_at_k(judgments, args.k)),
        ]
    )
    return 0


def _labeled_functions(corpus_path: str, model: kmeans.CentroidModel):
    functions, X, _ = stack_embeddings(load_corpus(corpus_path))
    if not functions:
        raise ValidationError(f"{corpus_path}: corpus has no non-zero-norm functions")
    truth = [fn.class_label for fn in functions]
    if None in truth:
        raise ValidationError(
            f"{corpus_path}: {truth.count(None)} functions lack the ground-truth class_label"
        )
    return list(zip(kmeans.classify(model, X).tolist(), truth))


def cmd_match_eval(args) -> int:
    model = kmeans.load_model(args.model)
    query_side = _labeled_functions(args.query_corpus, model)
    repo_side = _labeled_functions(args.repo_corpus, model)
    report = metrics.matching_eval_grouped(query_side, repo_side)
    _emit(
        [
            ("query_functions", len(query_side)),
            ("repo_functions", len(repo_side)),
            ("precision", report.precision),
            ("recall", report.recall),
            ("f1", report.f1),
            ("matched_pairs", report.matched_pairs),
        ]
    )
    return 0


def cmd_loss_check(args) -> int:
    for flag, value, low in (("--n", args.n, 1), ("--d", args.d, 1), ("--seed", args.seed, 0)):
        if value < low:
            raise ConfigError(f"{flag} must be >= {low}, got {value}")
    if not (np.isfinite(args.tol) and args.tol >= 0):
        raise ConfigError(f"--tol must be finite and >= 0, got {args.tol}")
    rng = np.random.default_rng(args.seed)
    batch = contrastive.PairedBatch(
        source=rng.standard_normal((args.n, args.d)),
        pseudo=rng.standard_normal((args.n, args.d)),
        temperature=args.temperature,
    )
    value = contrastive.loss(batch)
    worst = contrastive.finite_difference_check(batch, step=args.step)
    ok = worst <= args.tol
    _emit(
        [
            ("n", args.n),
            ("d", args.d),
            ("temperature", args.temperature),
            ("loss", value),
            ("max_rel_error", f"{worst:.3e}"),
            ("status", "pass" if ok else "fail"),
        ]
    )
    return 0 if ok else 1


def cmd_bench(args) -> int:
    if args.queries < 1:
        raise ConfigError(f"--queries must be >= 1, got {args.queries}")
    repo = search.load_index(args.repo_emb)
    if not isinstance(repo, search.StructuralIndex):
        raise ValidationError("bench measures structural scoring; pass a structural file")
    if args.query_emb:
        fmt, param, _, queries = read_records(args.query_emb, *SKETCHES)
        search.check_queries(repo, fmt, param)
    else:
        # The first --queries sketches of the repository, reading no block past them.
        with RecordBlocks(args.repo_emb, STRUCTURAL) as records:
            n = min(args.queries, records.count)
            rows = (row for _, words in records for row in words)
            queries = np.fromiter(islice(rows, n), (np.uint64, STRUCTURAL.width(repo.m)), n)
    report = search.bench(repo, queries, rounds=args.rounds)
    _emit(
        [
            ("repository", len(repo)),
            ("queries", len(queries)),
            ("rounds", args.rounds),
            ("comparisons", report.comparisons),
            ("seconds", report.seconds),
            ("per_second", report.per_second),
        ]
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsketch",
        description="Program-level similarity: sketch binaries, search clones, score results.",
    )
    parser.add_argument("--config", help="JSON file with PipelineConfig defaults")
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="log at INFO instead of WARNING"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--programs-per-class", type=int, required=True)
    p.add_argument("--queries-per-class", type=int, default=1)
    p.add_argument("--functions-per-program", type=int, default=150)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--reuse", type=float, default=0.0)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-repo", required=True)
    p.add_argument("--out-query", required=True)
    p.add_argument("--out-classes", default=None)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("kmeans-train", help="train the spherical centroid codebook")
    p.add_argument("--corpus", required=True)
    p.add_argument("--n-clusters", type=int, default=None)
    p.add_argument("--iterations", type=int, default=None)
    p.add_argument("--seed", type=int, default=None, dest="seed_kmeans", metavar="SEED")
    p.add_argument(
        "--sample", type=int, default=0,
        help="train on this many randomly chosen functions (0 = all)",
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_kmeans_train)

    p = sub.add_parser("hash", help="hash each program to one fixed-length embedding")
    p.add_argument("--corpus", required=True)
    p.add_argument("--mode", choices=sorted({"stru", *_WEIGHT_MODES}), required=True)
    p.add_argument("--model", default=None, help="centroid model (required for stru)")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--seed-position", type=int, default=None)
    p.add_argument("--seed-sign", type=int, default=None)
    p.add_argument("--alpha1", type=float, default=None)
    p.add_argument("--alpha2", type=float, default=None)
    p.add_argument("--beta1", type=float, default=None)
    p.add_argument("--beta2", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_hash)

    p = sub.add_parser("index-search", help="exact top-k search of queries against a repository")
    p.add_argument("--repo-emb", required=True)
    p.add_argument("--query-emb", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_index_search)

    p = sub.add_parser("eval", help="score a results file with mAP@k and mP@k")
    p.add_argument("--results", required=True)
    p.add_argument("--class-map", required=True)
    p.add_argument("--k", type=int, default=None)
    p.add_argument(
        "--repo-emb", default=None,
        help="repository embedding file, used to exclude queries with no same-class member",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser(
        "match-eval", help="precision/recall/F1 of label-based function matching"
    )
    p.add_argument("--query-corpus", required=True)
    p.add_argument("--repo-corpus", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_match_eval)

    p = sub.add_parser("loss-check", help="verify contrastive-loss gradients numerically")
    p.add_argument("--n", type=int, default=8)
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--temperature", type=float, default=10.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--step", type=float, default=1e-4)
    p.add_argument("--tol", type=float, default=1e-3)
    p.set_defaults(func=cmd_loss_check)

    p = sub.add_parser("bench", help="time the structural scoring kernel")
    p.add_argument("--repo-emb", required=True)
    p.add_argument("--query-emb", default=None)
    p.add_argument("--queries", type=int, default=32)
    p.add_argument("--rounds", type=int, default=1)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = PipelineConfig.from_file(args.config) if args.config else PipelineConfig()
        # The one precedence rule: a flag the command has and the user left
        # unset takes the config value (or the default).
        for name, value in asdict(cfg).items():
            if hasattr(args, name) and getattr(args, name) is None:
                setattr(args, name, value)
        return args.func(args)
    except (BinsketchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
