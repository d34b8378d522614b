"""Whole-corpus sketching equals sketching each program on its own.

``structural.sketch_blocks`` and ``semantic.hash_programs`` work over the
stacked functions of a whole corpus; each program's result must not depend
on its neighbours, and must match an oracle built from the program alone.
"""

import logging
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from binsketch import semantic, structural
from binsketch.corpus import FunctionRecord, ProgramRecord, stack_embeddings
from binsketch.kmeans import CentroidModel, classify

K, D, M = 2048, 16, 1 << 10
_C = np.random.default_rng(7).standard_normal((K, D))
MODEL = CentroidModel(_C / np.linalg.norm(_C, axis=1, keepdims=True))
CENTROIDS = MODEL.centroids.astype(np.float64)
HASHER = structural.FeatureHasher(m=M)
assert np.array_equal(classify(MODEL, CENTROIDS), np.arange(K))

# With 2048 labels in 1024 buckets, collisions are common; keep a pair that
# cancels (opposite signs) and one that reinforces (equal signs) in reach.
_POS = HASHER.position(np.arange(K)).astype(np.int64)
_SIGN = HASHER.sign(np.arange(K))
_first: dict[int, int] = {}
COLLIDING: list[int] = []
for _label in range(K):
    _other = _first.setdefault(int(_POS[_label]), _label)
    if _other != _label and len(COLLIDING) < 8:
        COLLIDING += [_other, _label]
assert len({(_SIGN[a] == _SIGN[b]) for a, b in zip(COLLIDING[::2], COLLIDING[1::2])}) == 2

# A function is a label (its embedding is that centroid, scaled) or None (a
# zero-norm function). Small labels repeat often within a program.
_LABEL = st.one_of(st.integers(0, 7), st.sampled_from(COLLIDING), st.integers(0, K - 1))
_FUNCTION = st.tuples(
    st.one_of(st.none(), _LABEL), st.floats(0.25, 4.0), st.integers(0, 500), st.integers(0, 30)
)
_CORPUS = st.lists(st.lists(_FUNCTION, max_size=10), max_size=8)


def _programs(spec):
    programs = []
    for i, functions in enumerate(spec):
        records = [
            FunctionRecord(
                f"p{i}.f{j}",
                np.zeros(D) if label is None else CENTROIDS[label] * scale,
                loc=loc,
                nos=nos,
            )
            for j, (label, scale, loc, nos) in enumerate(functions)
        ]
        programs.append(ProgramRecord(f"p{i}", records))
    return programs


def _oracle_bits(labels):
    sums: dict[int, int] = {}
    for label in set(labels):
        bucket = int(HASHER.position(np.array([label]))[0])
        sums[bucket] = sums.get(bucket, 0) + int(HASHER.sign(np.array([label]))[0])
    return sorted(b for b, total in sums.items() if total != 0)


@settings(max_examples=150, deadline=None)
@given(_CORPUS)
def test_stack_embeddings_drops_exactly_the_zero_rows(spec):
    programs = _programs(spec)
    functions, X, owner = stack_embeddings(programs)
    kept = [(i, fn) for i, p in enumerate(programs) for fn in p.functions if fn.embedding.any()]
    assert [id(fn) for fn in functions] == [id(fn) for _, fn in kept]
    assert owner.dtype == np.int64
    assert owner.tolist() == [i for i, _ in kept]
    assert X.dtype == np.float64
    assert X.shape == (len(kept), D if any(spec) else 0)
    for row, (_, fn) in zip(X, kept):
        assert np.array_equal(row, fn.embedding)


def test_rows_whose_norm_underflows_are_dropped_for_both_sketches(caplog):
    tiny = FunctionRecord("tiny", np.full(D, 1e-170), loc=3, nos=1)
    assert tiny.embedding.any() and np.linalg.norm(tiny.embedding) == 0.0
    keep = FunctionRecord("keep", CENTROIDS[3], loc=1, nos=0)
    zero = FunctionRecord("zero", np.zeros(D), loc=1, nos=0)
    programs = [ProgramRecord("a", [tiny, keep]), ProgramRecord("b", [zero])]
    with caplog.at_level(logging.WARNING, logger="binsketch.corpus"):
        functions, X, owner = stack_embeddings(programs)
    assert [r.getMessage() for r in caplog.records] == ["skipped 2 zero-norm functions"]
    assert functions == [keep]
    assert owner.tolist() == [0]
    assert np.array_equal(X, CENTROIDS[3][np.newaxis, :])
    alone = ProgramRecord("a", [keep])
    cfg = semantic.WeightConfig()
    assert structural.hash_program(programs[0], MODEL, HASHER) == structural.hash_program(
        alone, MODEL, HASHER
    )
    assert semantic.hash_program(programs[0], cfg) == semantic.hash_program(alone, cfg)


def _sketches(programs):
    """Every program's sketch from the blocks of one ``sketch_blocks``."""
    blocks = structural.sketch_blocks(programs, MODEL, HASHER)
    return [structural.StructuralEmbedding(row, M) for words in blocks for row in words]


@settings(max_examples=150, deadline=None)
@given(_CORPUS)
def test_structural_corpus_equals_each_program(spec):
    programs = _programs(spec)
    got = _sketches(programs)
    assert got == [structural.hash_program(p, MODEL, HASHER) for p in programs]
    for sketch, functions in zip(got, spec):
        labels = [label for label, *_ in functions if label is not None]
        assert np.flatnonzero(sketch.bits()).tolist() == _oracle_bits(labels)


def test_colliding_pairs_cancel_and_reinforce():
    for a, b in zip(COLLIDING[::2], COLLIDING[1::2]):
        program = _programs([[(a, 1.0, 1, 0), (b, 1.0, 1, 0)]])
        sketch = _sketches(program)[0]
        assert sketch.popcount() == (1 if _SIGN[a] == _SIGN[b] else 0)


@settings(max_examples=150, deadline=None)
@given(_CORPUS, st.sampled_from(semantic.MODES))
def test_semantic_corpus_equals_each_program(spec, mode):
    programs = _programs(spec)
    cfg = semantic.WeightConfig(mode=mode)
    got = semantic.hash_programs(programs, cfg, d=D)
    each = [semantic.hash_program(p, cfg, d=D) for p in programs]
    assert [g.values.tobytes() for g in got] == [e.values.tobytes() for e in each]
    for pooled, program in zip(got, programs):
        usable = [fn for fn in program.functions if fn.embedding.any()]
        assert pooled.values.any() == bool(usable)
        for comp in range(D):
            terms = [
                semantic.weight(fn.loc, fn.nos, cfg)
                * fn.embedding[comp]
                / math.sqrt(math.fsum(v * v for v in fn.embedding))
                for fn in usable
            ]
            expect = math.fsum(terms) / len(usable) if usable else 0.0
            assert abs(float(pooled.values[comp]) - expect) <= 1e-6
