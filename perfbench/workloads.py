"""Benchmark workloads: generate the inputs the pipeline runs on.

A workload is a list of sub-corpora, each one ``binsketch.synth.generate``
call with its own seed derived from the workload seed. Their programs,
functions, clone classes and ground-truth labels are renamed under a
per-sub-corpus prefix and merged into one repository corpus, one query
corpus and one class map. The program under test only ever sees those
three files.

Run as a script, this module performs one set-up in a fresh process and
writes its timing and the data-shape counters as JSON, so set-up memory
never counts toward the pipeline's peak RSS:

    python3 perfbench/workloads.py --workload ingest --seed 1 --out DIR [--trace]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

REPO_TSV = "repo.tsv"
QUERY_TSV = "query.tsv"
CLASSES_TSV = "classes.tsv"
SETUP_JSON = "setup.json"


@dataclass(frozen=True)
class SubCorpus:
    prefix: str
    classes: int
    programs_per_class: int
    queries_per_class: int
    functions_per_program: int


@dataclass(frozen=True)
class Workload:
    """One benchmark input shape plus the CLI settings that apply to it."""

    name: str
    parts: tuple[SubCorpus, ...]
    reuse: float
    workers: int
    d: int = 32
    noise: float = 0.45
    n_clusters: int = 512
    sample: int = 30000
    iterations: int = 30
    m: int = 1 << 16
    k: int = 100

    @property
    def repo_programs(self) -> int:
        return sum(p.classes * p.programs_per_class for p in self.parts)

    @property
    def query_programs(self) -> int:
        return sum(p.classes * p.queries_per_class for p in self.parts)

    @property
    def repo_functions(self) -> int:
        return sum(p.classes * p.programs_per_class * p.functions_per_program
                   for p in self.parts)

    @property
    def query_functions(self) -> int:
        return sum(p.classes * p.queries_per_class * p.functions_per_program
                   for p in self.parts)


# Why each workload exists (also in README.md):
# - ingest: few, large programs (150 functions) with heavy cross-class reuse.
#   TSV parsing, classification, hashing and pooling carry the pipeline and
#   search is a few percent of it; the paper's reuse-0.8 regime, where the
#   structural sketch is dense and its scores bunch together, so a speed-up
#   that costs retrieval quality shows in map100.stru.
# - scan: a repository ten times larger in programs, heavy-tailed and mostly
#   small (4/16/64 functions), with no reuse. Sketches hold ~10 bits, the
#   structural scan is a quarter of the pipeline and per-program overhead outweighs
#   per-function work; sparse indexing, pruning and threading act here.
WORKLOADS = {
    "ingest": Workload(
        name="ingest",
        parts=(SubCorpus("i", 100, 10, 2, 150),),
        reuse=0.8,
        workers=1,
    ),
    "scan": Workload(
        name="scan",
        parts=(
            SubCorpus("s4", 175, 40, 1, 4),
            SubCorpus("s16", 63, 40, 1, 16),
            SubCorpus("s64", 12, 40, 1, 64),
        ),
        reuse=0.0,
        workers=2,
    ),
    # A few seconds end to end; used by the self-test, not by BENCHMARK.json.
    "tiny": Workload(
        name="tiny",
        parts=(SubCorpus("t8", 6, 4, 1, 8), SubCorpus("t24", 4, 4, 1, 24)),
        reuse=0.25,
        workers=2,
        n_clusters=16,
        sample=200,
        iterations=5,
        m=1 << 10,
        k=10,
    ),
}


def derived_seed(seed: int, *path: int) -> int:
    """A 32-bit seed for one component, distinct for every ``path``."""
    import numpy as np

    return int(np.random.SeedSequence([seed, *path]).generate_state(1)[0])


def _rename(programs, prefix: str, label_offset: int) -> int:
    """Move programs into the ``prefix`` namespace in place.

    Returns one past the largest ground-truth label seen after the shift.
    """
    top = label_offset
    for prog in programs:
        prog.program_id = f"{prefix}.{prog.program_id}"
        if prog.class_id is not None:
            prog.class_id = f"{prefix}.{prog.class_id}"
        for fn in prog.functions:
            fn.function_id = f"{prefix}.{fn.function_id}"
            if fn.class_label is not None:
                fn.class_label += label_offset
                top = max(top, fn.class_label + 1)
    return top


def _reject_duplicates(programs) -> None:
    seen_programs: set[str] = set()
    seen_functions: set[str] = set()
    for prog in programs:
        if prog.program_id in seen_programs:
            raise ValueError(f"duplicate program id {prog.program_id!r}")
        seen_programs.add(prog.program_id)
        for fn in prog.functions:
            if fn.function_id in seen_functions:
                raise ValueError(f"duplicate function id {fn.function_id!r}")
            seen_functions.add(fn.function_id)


def compose(workload: Workload, seed: int):
    """Generate and merge every sub-corpus: (repository, queries)."""
    from binsketch import synth

    repository, queries = [], []
    next_label = 0
    for index, part in enumerate(workload.parts):
        spec = synth.SynthConfig(
            classes=part.classes,
            programs_per_class=part.programs_per_class,
            queries_per_class=part.queries_per_class,
            functions_per_program=part.functions_per_program,
            d=workload.d,
            reuse=workload.reuse,
            noise=workload.noise,
        )
        repo_part, query_part = synth.generate(spec, seed=derived_seed(seed, 0, index))
        top = _rename(repo_part, part.prefix, next_label)
        next_label = _rename(query_part, part.prefix, next_label)
        next_label = max(next_label, top)
        repository.extend(repo_part)
        queries.extend(query_part)
    _reject_duplicates(repository + queries)
    return repository, queries


def data_shape(repository, queries) -> dict:
    """Counters describing the generated corpora (what later changes exploit)."""
    import numpy as np

    sizes = np.array([len(p.functions) for p in repository], dtype=np.int64)
    values, counts = np.unique(sizes, return_counts=True)
    zero_norm = sum(
        1
        for prog in (*repository, *queries)
        for fn in prog.functions
        if not np.any(fn.embedding)
    )
    return {
        "repo_programs": len(repository),
        "query_programs": len(queries),
        "repo_functions": int(sizes.sum()),
        "query_functions": sum(len(p.functions) for p in queries),
        "program_size_histogram": {str(int(v)): int(c) for v, c in zip(values, counts)},
        "program_size_mean": float(sizes.mean()),
        "program_size_p95": float(np.percentile(sizes, 95)),
        "zero_norm_functions": zero_norm,
    }


def setup(workload: Workload, seed: int, out_dir: str) -> tuple[float, dict]:
    """Write the three input files into ``out_dir``; return (seconds, shape).

    The timed region is what a user pays to produce the inputs: generation,
    renaming, and the corpus and class-map writes.
    """
    from binsketch import corpus, metrics, synth

    start = time.perf_counter()
    repository, queries = compose(workload, seed)
    corpus.save_corpus(repository, os.path.join(out_dir, REPO_TSV), d=workload.d)
    corpus.save_corpus(queries, os.path.join(out_dir, QUERY_TSV), d=workload.d)
    mapping = synth.class_map(repository)
    mapping.update(synth.class_map(queries))
    metrics.save_class_map(mapping, os.path.join(out_dir, CLASSES_TSV))
    seconds = time.perf_counter() - start
    return seconds, data_shape(repository, queries)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]
    result: dict = {}
    if args.trace:
        import spans

        tracer = spans.Tracer()
        with tracer.installed():
            seconds, shape = setup(workload, args.seed, args.out)
        result.update(spans=tracer.export(), counts=tracer.counts)
    else:
        seconds, shape = setup(workload, args.seed, args.out)
    result.update(setup_s=seconds, shape=shape)
    with open(os.path.join(args.out, SETUP_JSON), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
