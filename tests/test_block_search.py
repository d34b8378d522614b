"""``batch_search`` and ``index-search`` answer like ``search.search``.

``index-search`` scores a ``.sem`` repository one block of query rows at a
time, with one GEMM per block; ``search.search`` is the one-row case. The
hits file must equal, line for line, the file written from ``search.search``
per query, whatever the block holds: ``search._SCORE_BLOCK_BYTES`` is
patched to one row, three rows and more rows than there are queries.
Repositories hold repeated rows, zero rows and unsorted ids; queries include
zero vectors. ``save_results`` must write, or refuse, a ranking's results
exactly as it does the same results built one by one.

A structural batch copies each query's ``search.search`` arrays into its
ranking; it must do so in both index forms, at any ``workers``, and rank as
a stable argsort of the dense scores does.
"""

import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binsketch import search
from binsketch.cli import main
from binsketch.corpus import (
    SemanticEmbedding,
    StructuralEmbedding,
    load_embeddings,
    save_semantic,
    save_structural,
)
from binsketch.errors import ValidationError
from binsketch.structural import set_bits


def _rows(rng, n, d, repeats, zeros):
    """(n, d) float32 rows: ``repeats`` of them copy an earlier row, ``zeros``
    are zero vectors."""
    values = rng.standard_normal((n, d)).astype(np.float32)
    for i in rng.choice(np.arange(1, max(n, 1)), size=min(repeats, max(n - 1, 0)), replace=False):
        values[i] = values[rng.integers(i)]
    values[rng.choice(n, size=min(zeros, n), replace=False)] = 0.0
    return values


def _save(path, ids, values):
    save_semantic([(pid, SemanticEmbedding(v)) for pid, v in zip(ids, values)], str(path),
                  d=values.shape[1])


@st.composite
def _cases(draw):
    n = draw(st.integers(0, 30))
    return {
        "seed": draw(st.integers(0, 2**32 - 1)),
        "n": n,
        "q": draw(st.integers(0, 7)),
        "d": draw(st.integers(1, 40)),
        "repeats": draw(st.integers(0, 6)),
        "zeros": draw(st.integers(0, 3)),
        "zero_queries": draw(st.integers(0, 2)),
        "k": draw(st.integers(1, n + 5)),
    }


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_cases())
def test_hits_file_matches_search_per_query_at_every_block_size(tmp_path_factory, case):
    rng = np.random.default_rng(case["seed"])
    tmp = tmp_path_factory.mktemp("blocks")
    n, q, d, k = case["n"], case["q"], case["d"], case["k"]
    repo_ids = [f"p{i:02d}" for i in rng.permutation(n)]
    _save(tmp / "repo.sem", repo_ids, _rows(rng, n, d, case["repeats"], case["zeros"]))
    queries = _rows(rng, q, d, 0, case["zero_queries"])
    _save(tmp / "query.sem", [f"q{i}" for i in range(q)], queries)

    index = search.load_index(str(tmp / "repo.sem"))
    expected = tmp / "expected.tsv"
    search.save_results(
        [(qid, search.search(index, emb, k))
         for qid, emb in load_embeddings(str(tmp / "query.sem"))[1]],
        str(expected),
    )
    for rows in (1, 3, q + 1):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(search, "_SCORE_BLOCK_BYTES", rows * 8 * max(n, 1))
            out = tmp / f"hits{rows}.tsv"
            assert main(["index-search", "--repo-emb", str(tmp / "repo.sem"),
                         "--query-emb", str(tmp / "query.sem"), "--k", str(k),
                         "--out", str(out)]) == 0
        assert out.read_bytes().splitlines() == expected.read_bytes().splitlines(), rows


def test_repeated_rows_tie_and_rank_by_id(tmp_path):
    # A BLAS matvec scores the last rows of a matrix in its own loop, so
    # there a copy of an earlier row can get other bits.
    rng = np.random.default_rng(2)
    values = rng.standard_normal((23, 32)).astype(np.float32)
    values[20:] = values[:3]
    _save(tmp_path / "repo.sem", [f"p{i:02d}" for i in range(23)], values)
    index = search.load_index(str(tmp_path / "repo.sem"))
    for row in rng.standard_normal((20, 32)).astype(np.float32):
        ranked = [hit.program_id for hit in search.search(index, SemanticEmbedding(row), 23).hits]
        scores = index.scores(SemanticEmbedding(row))
        for i in range(3):
            assert scores[i] == scores[20 + i]
            assert ranked.index(f"p{20 + i}") == ranked.index(f"p{i:02d}") + 1


@pytest.fixture
def sketches(tmp_path):
    rng = np.random.default_rng(3)
    ids = ["a", "b", "c"]
    save_structural([(pid, StructuralEmbedding.from_bits(rng.integers(0, 2, 128)))
                     for pid in ids], str(tmp_path / "m128.stru"))
    _save(tmp_path / "d3.sem", ids, rng.standard_normal((3, 3)).astype(np.float32))
    _save(tmp_path / "d4.sem", ids, rng.standard_normal((3, 4)).astype(np.float32))
    return tmp_path


@pytest.mark.parametrize(
    "repo, query, message",
    [
        ("d3.sem", "m128.stru", "embedding kinds differ: semantic repository, other query"),
        ("m128.stru", "d3.sem", "embedding kinds differ: structural repository, other query"),
        ("d3.sem", "d4.sem", "query d=4 does not match repository d=3"),
    ],
)
def test_mismatched_query_file_is_one_error_line(sketches, capsys, repo, query, message):
    out = sketches / "hits.tsv"
    code = main(["index-search", "--repo-emb", str(sketches / repo),
                 "--query-emb", str(sketches / query), "--out", str(out)])
    assert (code, capsys.readouterr().err) == (2, f"error: {message}\n")
    assert not out.exists()


_IDS = st.text(st.characters(codec="utf-8") | st.sampled_from(["\t", "\n", "%", "\ud800"]),
               max_size=3)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(ids=st.lists(_IDS, min_size=1, max_size=6), queries=st.lists(_IDS, max_size=5),
       data=st.data())
def test_a_ranking_is_written_or_refused_as_its_results_are(tmp_path_factory, ids, queries, data):
    width = data.draw(st.integers(0, len(ids)))
    rows = [data.draw(st.permutations(range(len(ids))))[:width] for _ in queries]
    scores = data.draw(st.lists(st.floats(-1, 1), min_size=width * len(queries),
                                max_size=width * len(queries)))
    shape = (len(queries), width)
    ranking = search.Ranking(ids, np.array(rows, dtype=np.intp).reshape(shape),
                             np.array(scores, dtype=np.float64).reshape(shape))
    tmp = tmp_path_factory.mktemp("hits")
    outcomes = []
    # A ranking's results share one id list, so each id is checked once;
    # results built one by one each bring their own, checked afresh.
    results = [(qid, search.SearchResult(list(ids), ranking.rows[q], ranking.scores[q]))
               for q, qid in enumerate(queries)]
    for name, write in [
        ("arrays", lambda path: search.save_results(zip(queries, ranking), path)),
        ("results", lambda path: search.save_results(results, path)),
    ]:
        try:
            write(str(tmp / name))
            outcomes.append((tmp / name).read_bytes())
        except ValidationError as exc:
            assert not (tmp / name).exists()
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@st.composite
def _structural_cases(draw):
    """A repository of n packed rows under unsorted ids, with empty and
    repeated rows, so ties straddle rank k; queries copy repository rows,
    are empty or are random."""
    m = draw(st.sampled_from([64, 128, 1024]))
    n = draw(st.integers(0, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from([0.0, 0.02, 0.1, 0.5]))
    bits = (rng.random((n + 6, m)) < density).astype(np.uint8)
    for i in range(n + 6):
        pick = draw(st.sampled_from(["random", "empty", "copy"]))
        if pick == "empty":
            bits[i] = 0
        elif pick == "copy" and i:
            bits[i] = bits[draw(st.integers(0, i - 1))]
    rows = [StructuralEmbedding.from_bits(row) for row in bits]
    ids = [f"p{i:02d}" for i in draw(st.permutations(range(n)))]
    return m, ids, rows[:n], rows[n:], draw(st.integers(1, n + 5))


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_structural_cases())
def test_structural_batches_copy_search_in_both_index_forms(tmp_path_factory, case):
    m, ids, rows, queries, k = case
    words = np.array([row.words for row in rows], dtype=np.uint64).reshape(len(rows), m // 64)
    pops = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
    sparse = search.StructuralIndex.from_set_bits(ids, pops, *set_bits(words), m)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    dense = search.StructuralIndex(sparse.program_ids, words[order], pops[order], m)
    assert sparse.program_ids == sorted(ids)
    qids = [f"q{i}" for i in range(len(queries))]
    tmp = tmp_path_factory.mktemp("stru")
    for index in (sparse, dense):
        results = [search.search(index, query, k) for query in queries]
        search.save_results(list(zip(qids, results)), str(tmp / "expected.tsv"))
        for workers in (1, 2):
            ranking = search.batch_search(index, queries, k, workers=workers)
            assert ranking.rows.shape == (len(queries), min(k, len(ids)))
            for q, (query, result) in enumerate(zip(queries, results)):
                assert ranking.rows[q].tolist() == result.rows.tolist()
                assert ranking.scores[q].tobytes() == result.scores.tobytes()
                stable = np.argsort(-dense.scores(query), kind="stable")[:k]
                assert ranking.rows[q].tolist() == stable.tolist()
            search.save_results(zip(qids, ranking), str(tmp / "hits.tsv"))
            assert (tmp / "hits.tsv").read_bytes() == (tmp / "expected.tsv").read_bytes()


def test_structural_threads_fill_their_own_rows():
    # More threads than cores, switching as often as the interpreter allows:
    # each thread writes only its queries' rows of the shared ranking.
    rng = np.random.default_rng(11)
    rows = [StructuralEmbedding.from_bits(rng.integers(0, 2, 1024)) for _ in range(300)]
    index = search.build([(f"p{i:03d}", row) for i, row in enumerate(rows[:200])])
    assert isinstance(index.rows, np.ndarray)
    serial = search.batch_search(index, rows[200:], k=7)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threaded = search.batch_search(index, rows[200:], k=7, workers=8)
    finally:
        sys.setswitchinterval(interval)
    assert threaded.rows.tolist() == serial.rows.tolist()
    assert threaded.scores.tobytes() == serial.scores.tobytes()


def test_empty_result_has_no_hits():
    empty = search.build([])
    assert search.search(empty, StructuralEmbedding.from_bits([1, 0]), 3).hits == []
    assert search.SearchResult([], np.empty(0, dtype=np.intp), np.empty(0)).hits == []


def test_results_are_equal_when_their_hits_are():
    one = search.SearchResult(["a", "b"], np.array([1, 0]), np.array([0.5, 0.25]))
    same = search.SearchResult(["b", "c", "a"], np.array([0, 2]), np.array([0.5, 0.25]))
    assert one.hits == [search.Hit("b", 0.5), search.Hit("a", 0.25)]
    assert one == same
    assert one != search.SearchResult(["a", "b"], np.array([1, 0]), np.array([0.5, 0.5]))
    assert one != search.SearchResult(["a", "b"], np.array([1]), np.array([0.5]))
    assert one != one.hits


def test_ranking_rows_read_back_as_search_results():
    # Structural only: a semantic block may score in other last bits than
    # one row does (see the search module).
    rng = np.random.default_rng(5)
    embs = [StructuralEmbedding.from_bits(rng.integers(0, 2, 128)) for _ in range(12)]
    index = search.build([(f"p{i:02d}", emb) for i, emb in enumerate(embs[:9])])
    ranking = search.batch_search(index, embs[9:], k=4)
    assert len(ranking) == 3
    for q, query in enumerate(embs[9:]):
        assert ranking[q] == search.search(index, query, 4)
    assert ranking == [search.search(index, query, 4) for query in embs[9:]]


@pytest.mark.parametrize("kind", ["stru", "sem"])
def test_empty_repository_ranks_to_no_hits(kind):
    queries = ([StructuralEmbedding.from_bits([1, 0])] * 2 if kind == "stru"
               else [SemanticEmbedding(np.ones(3))] * 2)
    ranking = search.batch_search(search.build([]), queries, k=3)
    assert ranking.rows.shape == ranking.scores.shape == (2, 0)
    assert [result.hits for result in ranking] == [[], []]
