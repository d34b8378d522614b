"""The user pipeline, run in-process through ``binsketch.cli.main``.

kmeans-train -> hash (stru, sem; repository and queries) -> index-search
(stru, sem) -> eval (stru, sem), each command timed on its own with its
stdout captured and its ``key=value`` counts checked. The short commands
(index-search, eval) are then repeated by :func:`repeat` so their time is
not one short sample; every repeat must write the same bytes as the first.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field

import reference
from workloads import CLASSES_TSV, QUERY_TSV, REPO_TSV, Workload, derived_seed

MAX_REPEATS = 40


@dataclass(frozen=True)
class Command:
    label: str
    argv: tuple[str, ...]
    output: str | None
    expect: tuple[tuple[str, str], ...]

    @property
    def repeatable(self) -> bool:
        return self.argv[0] in ("index-search", "eval")


@dataclass
class Outcome:
    command: Command
    seconds: list[float] = field(default_factory=list)
    report: dict[str, str] = field(default_factory=dict)
    error: str | None = None
    digest: str | None = None

    @property
    def mean_s(self) -> float:
        # The mean, not the median: on a host that flips between a fast
        # and a slow state, the mean moves smoothly with the share of time
        # spent in each, where the median jumps from one state to the other.
        return statistics.mean(self.seconds)


def output_files(out: str) -> dict[str, str]:
    names = ("model.km", "repo.stru", "query.stru", "repo.sem", "query.sem",
             "hits.stru.tsv", "hits.sem.tsv")
    return {name: os.path.join(out, name) for name in names}


def commands(w: Workload, seed: int, inputs: str, out: str) -> list[Command]:
    repo_tsv = os.path.join(inputs, REPO_TSV)
    query_tsv = os.path.join(inputs, QUERY_TSV)
    classes = os.path.join(inputs, CLASSES_TSV)
    f = output_files(out)
    cmds = [
        Command(
            "kmeans-train",
            ("kmeans-train", "--corpus", repo_tsv, "--n-clusters", str(w.n_clusters),
             "--sample", str(w.sample), "--iterations", str(w.iterations),
             "--seed", str(derived_seed(seed, 1)), "--out", f["model.km"]),
            f["model.km"],
            (("n_clusters", str(w.n_clusters)), ("d", str(w.d)),
             ("iterations", str(w.iterations)),
             ("trained_on", str(min(w.sample, w.repo_functions)))),
        )
    ]
    sides = (("repo", repo_tsv, w.repo_programs), ("query", query_tsv, w.query_programs))
    for mode in ("stru", "sem"):
        for side, corpus_path, programs in sides:
            argv = ["hash", "--corpus", corpus_path, "--mode", mode,
                    "--out", f[f"{side}.{mode}"]]
            if mode == "stru":
                argv += ["--model", f["model.km"], "--m", str(w.m)]
            cmds.append(Command(f"hash.{mode}.{side}", tuple(argv), f[f"{side}.{mode}"],
                                (("programs", str(programs)), ("mode", mode))))
    for mode in ("stru", "sem"):
        cmds.append(Command(
            f"index-search.{mode}",
            ("index-search", "--repo-emb", f[f"repo.{mode}"], "--query-emb",
             f[f"query.{mode}"], "--k", str(w.k), "--workers", str(w.workers),
             "--out", f[f"hits.{mode}.tsv"]),
            f[f"hits.{mode}.tsv"],
            (("queries", str(w.query_programs)), ("repository", str(w.repo_programs)),
             ("k", str(w.k))),
        ))
    for mode in ("stru", "sem"):
        cmds.append(Command(
            f"eval.{mode}",
            ("eval", "--results", f[f"hits.{mode}.tsv"], "--class-map", classes,
             "--k", str(w.k), "--repo-emb", f[f"repo.{mode}"]),
            None,
            (("queries", str(w.query_programs)), ("excluded_queries", "0"),
             ("k", str(w.k))),
        ))
    return cmds


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _invoke(argv, tracer) -> tuple[int, str, float]:
    from binsketch import cli

    buf = io.StringIO()
    span = tracer.span(f"cli.{argv[0]}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), span:
            rc = cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        rc = 1
    return rc, buf.getvalue(), time.perf_counter() - start


def _check(cmd: Command, rc: int, stdout: str) -> tuple[dict[str, str], str | None]:
    report = dict(line.split("=", 1) for line in stdout.splitlines() if "=" in line)
    if rc != 0:
        return report, f"exit code {rc}"
    for key, want in cmd.expect:
        if report.get(key) != want:
            return report, f"{key}={report.get(key)}, expected {want}"
    if cmd.output is not None and not os.path.isfile(cmd.output):
        return report, f"no output file {cmd.output}"
    return report, None


def _attempt(outcome: Outcome, tracer=None) -> None:
    """Run the command once more and check what it printed and wrote."""
    cmd = outcome.command
    rc, stdout, seconds = _invoke(cmd.argv, tracer)
    outcome.seconds.append(seconds)
    outcome.report, outcome.error = _check(cmd, rc, stdout)
    if outcome.error is None and cmd.output is not None:
        digest = _digest(cmd.output)
        outcome.digest = outcome.digest or digest
        if digest != outcome.digest:
            outcome.error = "a repeat wrote different bytes"


def run_command(cmd: Command, tracer=None) -> Outcome:
    outcome = Outcome(cmd)
    _attempt(outcome, tracer)
    return outcome


def run(w: Workload, seed: int, inputs: str, out: str, tracer=None) -> list[Outcome]:
    """Run every command once, in order, stopping at the first that fails."""
    os.makedirs(out, exist_ok=True)
    outcomes = []
    for cmd in commands(w, seed, inputs, out):
        outcomes.append(run_command(cmd, tracer))
        if outcomes[-1].error is not None:
            break
    return outcomes


def repeat(outcomes: list[Outcome], until_s: float) -> None:
    """Rerun the short commands in turn until each has run for ``until_s``.

    Taking turns spreads each command's samples over the whole call. A
    command stops at ``MAX_REPEATS`` runs or at its first failure.
    """
    def wants_more(o: Outcome) -> bool:
        return (o.command.repeatable and o.error is None
                and sum(o.seconds) < until_s and len(o.seconds) < MAX_REPEATS)

    pending = [o for o in outcomes if wants_more(o)]
    while pending:
        for outcome in pending:
            _attempt(outcome)
        pending = [o for o in pending if wants_more(o)]


def run_interleaved(w: Workload, seed: int, inputs: str, plain_out: str, traced_out: str,
                    tracer) -> tuple[list[Outcome], list[Outcome]]:
    """Run each command untraced and traced back to back, once each.

    Which side goes first alternates from command to command, so drift in
    machine speed falls on both sides alike and the difference of the two
    totals is the tracing overhead rather than noise.
    """
    os.makedirs(plain_out, exist_ok=True)
    os.makedirs(traced_out, exist_ok=True)
    plain, traced = [], []

    def run_traced(cmd):
        with tracer.installed():
            return run_command(cmd, tracer)

    pairs = zip(commands(w, seed, inputs, plain_out), commands(w, seed, inputs, traced_out))
    for index, (plain_cmd, traced_cmd) in enumerate(pairs):
        if index % 2:
            traced.append(run_traced(traced_cmd))
            plain.append(run_command(plain_cmd))
        else:
            plain.append(run_command(plain_cmd))
            traced.append(run_traced(traced_cmd))
        if plain[-1].error is not None or traced[-1].error is not None:
            break
    return plain, traced


class ClosedLoop:
    """One client calling ``search.search`` once per query on built indexes.

    ``sides`` maps a sketch kind to its (repository, queries, index-search
    results) files. The client alternates between the kinds, one query of
    each in turn, cycling through each query set, so every kind is sampled
    across the same stretch of time. Each answer must equal the one
    index-search wrote for that query.
    """

    def __init__(self, sides: dict[str, tuple[str, str, str]], k: int):
        from binsketch import corpus, search

        self.k = k
        self.failed = 0
        self.latencies_ms: dict[str, list[float]] = {kind: [] for kind in sides}
        self._loops = []
        for kind, (repo_path, query_path, hits_path) in sides.items():
            index = search.build(corpus.load_embeddings(repo_path)[1])
            queries = corpus.load_embeddings(query_path)[1]
            expected = reference.load_results(hits_path)
            self._loops.append((index, queries, expected, self.latencies_ms[kind]))

    def run(self, min_queries: int, min_seconds: float) -> None:
        """Continue until every kind has ``min_queries`` answers in total
        and this call has lasted ``min_seconds``."""
        from binsketch import search

        start = time.perf_counter()
        while (min(len(v) for v in self.latencies_ms.values()) < min_queries
               or time.perf_counter() - start < min_seconds):
            for index, queries, expected, latencies in self._loops:
                query_id, embedding = queries[len(latencies) % len(queries)]
                t0 = time.perf_counter()
                result = search.search(index, embedding, self.k)
                latencies.append((time.perf_counter() - t0) * 1e3)
                got = [(hit.program_id, f"{hit.score:.6f}") for hit in result.hits]
                self.failed += got != expected.get(query_id)
