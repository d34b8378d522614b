"""Command-line front end.

One binary, eight subcommands covering the whole pipeline: generate a
synthetic corpus, train the centroid codebook, hash programs to structural
or semantic embeddings, run top-k search, and score the results. Exit
codes: 0 on success, 2 for usage/validation/config/format problems, 1 for
anything else (a failed loss-check also exits 1).

Defaults may be collected in a JSON config file passed via --config;
explicit flags always win over the file.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import contrastive, kmeans, metrics, search, semantic, structural, synth
from .corpus import (
    corpus_dimension,
    load_corpus,
    load_embeddings,
    save_corpus,
    save_semantic,
    save_structural,
)
from .errors import BinsketchError, ConfigError, FormatError, ValidationError

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

    d: int = 32
    n_clusters: int = 1024
    iterations: int = kmeans.DEFAULT_ITERATIONS
    m: int = structural.DEFAULT_M
    seed_kmeans: int = 0
    seed_position: int = structural.DEFAULT_SEED_POSITION
    seed_sign: int = structural.DEFAULT_SEED_SIGN
    alpha1: float = 0.4
    alpha2: float = 5.0
    beta1: float = 0.45
    beta2: float = 1.0
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


def _pick(flag, fallback):
    return fallback if flag is None else flag


def _hasher(args, cfg: PipelineConfig) -> structural.FeatureHasher:
    return structural.FeatureHasher(
        m=_pick(args.m, cfg.m),
        seed_position=_pick(args.seed_position, cfg.seed_position),
        seed_sign=_pick(args.seed_sign, cfg.seed_sign),
    )


def _weight_config(args, cfg: PipelineConfig, mode: str) -> semantic.WeightConfig:
    return semantic.WeightConfig(
        alpha1=_pick(args.alpha1, cfg.alpha1),
        alpha2=_pick(args.alpha2, cfg.alpha2),
        beta1=_pick(args.beta1, cfg.beta1),
        beta2=_pick(args.beta2, cfg.beta2),
        mode=mode,
    )


def _emit(pairs) -> None:
    sys.stdout.write(metrics.format_report(dict(pairs)))


def cmd_synth(args, cfg: PipelineConfig) -> int:
    spec = synth.SynthConfig(
        classes=args.classes,
        programs_per_class=args.programs_per_class,
        queries_per_class=args.queries_per_class,
        functions_per_program=args.functions_per_program,
        d=_pick(args.d, cfg.d),
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


def cmd_kmeans_train(args, cfg: PipelineConfig) -> int:
    programs = load_corpus(args.corpus)
    functions = [fn for prog in programs for fn in prog.functions]
    if not functions:
        raise ValidationError(f"{args.corpus}: corpus has no functions to train on")
    if args.sample < 0:
        raise ConfigError(f"--sample must be >= 0, got {args.sample}")
    X = np.stack([fn.embedding for fn in functions])
    if args.sample and args.sample < X.shape[0]:
        rng = np.random.default_rng(_pick(args.seed, cfg.seed_kmeans))
        X = X[rng.choice(X.shape[0], size=args.sample, replace=False)]
    model = kmeans.train(
        X,
        n_clusters=_pick(args.n_clusters, cfg.n_clusters),
        iterations=_pick(args.iterations, cfg.iterations),
        seed=_pick(args.seed, cfg.seed_kmeans),
    )
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


def cmd_hash(args, cfg: PipelineConfig) -> int:
    programs = load_corpus(args.corpus)
    if args.mode == "stru":
        if not args.model:
            raise ConfigError("--mode stru requires --model")
        model = kmeans.load_model(args.model)
        hasher = _hasher(args, cfg)
        entries = [
            (prog.program_id, structural.hash_program(prog, model, hasher))
            for prog in programs
        ]
        save_structural(entries, args.out, m=hasher.m)
    else:
        wcfg = _weight_config(args, cfg, _WEIGHT_MODES[args.mode])
        d = corpus_dimension(programs)
        if d is None:
            raise ValidationError(f"{args.corpus}: corpus has no functions to pool")
        entries = [
            (prog.program_id, semantic.hash_program(prog, wcfg, d=d))
            for prog in programs
        ]
        save_semantic(entries, args.out, d=d)
    _emit([("programs", len(entries)), ("mode", args.mode)])
    return 0


def cmd_index_search(args, cfg: PipelineConfig) -> int:
    _, repo_entries = load_embeddings(args.repo_emb)
    _, query_entries = load_embeddings(args.query_emb)
    repo = search.build(repo_entries)
    k = _pick(args.k, cfg.k)
    results = search.batch_search(
        repo, [emb for _, emb in query_entries], k=k, workers=args.workers
    )
    search.save_results(
        [(pid, res) for (pid, _), res in zip(query_entries, results)], args.out
    )
    _emit([("queries", len(query_entries)), ("repository", len(repo)), ("k", k)])
    return 0


def cmd_eval(args, cfg: PipelineConfig) -> int:
    results = search.load_results(args.results)
    class_map = metrics.load_class_map(args.class_map)
    repo_ids = None
    if args.repo_emb:
        _, repo_entries = load_embeddings(args.repo_emb)
        repo_ids = [pid for pid, _ in repo_entries]
    k = _pick(args.k, cfg.k)
    judgments, excluded = metrics.judgments_from_results(
        results, class_map, k=k, repo_ids=repo_ids
    )
    if not judgments:
        raise ValidationError("no scorable queries (all were excluded)")
    _emit(
        [
            ("queries", len(judgments)),
            ("excluded_queries", excluded),
            ("k", k),
            ("map_at_k", metrics.map_at_k(judgments, k)),
            ("mp_at_k", metrics.mp_at_k(judgments, k)),
        ]
    )
    return 0


def _labeled_functions(corpus_path: str, model: kmeans.CentroidModel):
    programs = load_corpus(corpus_path)
    functions = [fn for prog in programs for fn in prog.functions]
    if not functions:
        raise ValidationError(f"{corpus_path}: corpus has no functions")
    missing = sum(1 for fn in functions if fn.class_label is None)
    if missing:
        raise ValidationError(
            f"{corpus_path}: {missing} functions lack the ground-truth class_label"
        )
    X = np.stack([fn.embedding for fn in functions])
    assignment = kmeans.classify(model, X)
    return [
        (int(label), fn.class_label)
        for label, fn in zip(assignment.labels, functions)
    ]


def cmd_match_eval(args, cfg: PipelineConfig) -> int:
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


def cmd_loss_check(args, cfg: PipelineConfig) -> int:
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


def cmd_bench(args, cfg: PipelineConfig) -> int:
    _, entries = load_embeddings(args.repo_emb)
    repo = search.build(entries)
    if not isinstance(repo, search.StructuralIndex):
        raise ValidationError("bench measures structural scoring; pass a structural file")
    if args.query_emb:
        entries = load_embeddings(args.query_emb)[1]
    else:
        entries = entries[: args.queries]
    queries = [emb for _, emb in entries]
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
    p.add_argument("--seed", type=int, default=None)
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
        return args.func(args, cfg)
    except (ConfigError, ValidationError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BinsketchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
