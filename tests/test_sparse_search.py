"""The posting-list kernel scores exactly like the dense scan.

``search.build`` keeps per-bit posting lists when a structural repository
holds fewer set bits than packed words, and the packed words otherwise.
Both kernels count the same integers, so every float64 score, and with it
every ranked hit, must be identical whichever one runs.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from binsketch.corpus import StructuralEmbedding
from binsketch.search import StructuralIndex, build, search
from binsketch.structural import Postings, jaccard_many, set_bits

# From empty to all-ones, with the sparse end drawn most often.
DENSITIES = st.sampled_from([0.0, 0.0, 1e-4, 1e-3, 0.01, 0.1, 0.5, 0.9, 1.0])


def pack_rows(embeddings):
    """Stacked packed words and row popcounts, as the dense kernel takes them."""
    words = np.stack([e.words for e in embeddings])
    return words, np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _row(rng, m, density):
    return StructuralEmbedding.from_bits((rng.random(m) < density).astype(np.uint8))


@st.composite
def repositories(draw):
    """Rows, a query and k, with duplicate rows so ties straddle rank k."""
    m = draw(st.sampled_from([1024, 2048, 65536]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for _ in range(draw(st.integers(1, 12))):
        if rows and draw(st.booleans()):
            rows.append(rows[draw(st.integers(0, len(rows) - 1))])
        else:
            rows.append(_row(rng, m, draw(DENSITIES)))
    query = draw(
        st.sampled_from(rows)
        | st.just(StructuralEmbedding(np.zeros(m // 64, dtype=np.uint64), m))
        | DENSITIES.map(lambda density: _row(rng, m, density))
    )
    order = draw(st.permutations(range(len(rows))))
    entries = [(f"p{i:02d}", rows[i]) for i in order]
    return m, entries, query, draw(st.integers(1, len(rows) + 1))


@settings(max_examples=150, deadline=None)
@given(repositories())
def test_postings_kernel_equals_dense_kernel(case):
    m, entries, query, k = case
    entries.sort()
    ids = [pid for pid, _ in entries]
    words, pops = pack_rows([emb for _, emb in entries])
    postings = Postings.from_bits(*set_bits(words), m, len(words))

    dense = jaccard_many(query.words, words, pops)
    sparse = jaccard_many(query.words, postings, pops)
    assert dense.dtype == sparse.dtype == np.float64
    assert dense.tobytes() == sparse.tobytes()

    dense_hits = search(StructuralIndex(ids, words, pops, m), query, k).hits
    sparse_hits = search(StructuralIndex(ids, postings, pops, m), query, k).hits
    assert dense_hits == sparse_hits

    built = build(entries)
    assert isinstance(built.rows, Postings) == (pops.sum() < words.size)
    assert search(built, query, k).hits == dense_hits


@settings(max_examples=60, deadline=None)
@given(repositories())
def test_postings_list_every_set_bit_once(case):
    m, entries, _, _ = case
    embs = [emb for _, emb in sorted(entries)]
    words, _ = pack_rows(embs)
    postings = Postings.from_bits(*set_bits(words), m, len(words))
    assert postings.rows.dtype == np.int32
    assert postings.offsets.shape == (m + 1,)
    bits = np.array([emb.bits() for emb in embs])
    for bit in range(0, m, 97):
        got = postings.rows[postings.offsets[bit]:postings.offsets[bit + 1]]
        assert got.tolist() == np.flatnonzero(bits[:, bit]).tolist()
    row, pos = set_bits(words)
    assert sorted(zip(row.tolist(), pos.tolist())) == list(zip(*np.nonzero(bits)))


def test_empty_query_scores_empty_rows_one_and_others_zero():
    m = 1024
    empty = StructuralEmbedding(np.zeros(m // 64, dtype=np.uint64), m)
    full = StructuralEmbedding.from_bits(np.ones(m, dtype=np.uint8))
    one = StructuralEmbedding.from_bits(np.eye(1, m, 5, dtype=np.uint8)[0])
    entries = [("a", one), ("b", empty), ("c", one), ("d", empty)]
    repo = build(entries)
    assert isinstance(repo.rows, Postings)
    assert repo.scores(empty.words).tolist() == [0.0, 1.0, 0.0, 1.0]
    assert [hit.program_id for hit in search(repo, empty, 3).hits] == ["b", "d", "a"]
    assert repo.scores(full.words).tolist() == [1 / m, 0.0, 1 / m, 0.0]


def test_density_rule_picks_postings_below_one_bit_per_word():
    m = 1024
    words_per_row = m // 64
    rng = np.random.default_rng(0)
    sparse = [(f"s{i}", _row(rng, m, 0.5 / 64)) for i in range(50)]
    dense = [(f"d{i}", _row(rng, m, 0.5)) for i in range(50)]
    assert isinstance(build(sparse).rows, Postings)
    assert isinstance(build(dense).rows, np.ndarray)
    # Exactly one set bit per packed word is not cheaper than the scan.
    at_rule = [
        (f"r{i}", StructuralEmbedding.from_bits(np.arange(m) % 64 == i % 64)) for i in range(8)
    ]
    index = build(at_rule)
    assert index.pops.sum() == len(at_rule) * words_per_row
    assert isinstance(index.rows, np.ndarray)


def test_random_word_repository_builds_no_postings():
    # The 2048 x 1024-word repository of acceptance criterion 8: about 66M
    # set bits, which would be 66M posting entries.
    rng = np.random.default_rng(3)
    words = rng.integers(0, 1 << 63, size=(2048, 1024), dtype=np.uint64)
    repo = build([(f"p{i:05d}", StructuralEmbedding(words[i], m=1 << 16)) for i in range(2048)])
    assert isinstance(repo.rows, np.ndarray)
    assert repo.rows.shape == (2048, 1024)
    assert repo.pops.sum() > 60_000_000


def test_single_row_repository():
    row = StructuralEmbedding.from_bits(np.eye(1, 2048, 7, dtype=np.uint8)[0])
    repo = build([("p", row)])
    assert isinstance(repo.rows, Postings)
    assert repo.scores(row.words).tolist() == [1.0]
    dense = StructuralIndex(["p"], row.words[np.newaxis, :], repo.pops, 2048)
    assert search(repo, row, 5).hits == search(dense, row, 5).hits
