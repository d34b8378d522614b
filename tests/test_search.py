import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsketch.corpus import SemanticEmbedding, StructuralEmbedding
from binsketch.errors import ConfigError, ParseError, ValidationError
from binsketch.search import (
    batch_search,
    bench,
    build,
    load_results,
    save_results,
    search,
    top_k,
)
from binsketch.semantic import cosine
from binsketch.structural import jaccard


def random_structural(rng, m=1024, density=None):
    density = rng.uniform(0.05, 0.5) if density is None else density
    return StructuralEmbedding.from_bits((rng.random(m) < density).astype(np.uint8))


def structural_entries(rng, n, m=1024):
    return [(f"prog{i:03d}", random_structural(rng, m)) for i in range(n)]


def semantic_entries(rng, n, d=8):
    return [
        (f"prog{i:03d}", SemanticEmbedding(rng.standard_normal(d).astype(np.float32)))
        for i in range(n)
    ]


def oracle_top_k(entries, query, score_fn, k):
    scored = [(pid, score_fn(query, emb)) for pid, emb in entries]
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


class TestBuild:
    def test_duplicate_ids_rejected(self, rng):
        entries = structural_entries(rng, 3)
        entries.append(entries[0])
        with pytest.raises(ValidationError, match="duplicate"):
            build(entries)

    def test_mixed_kinds_rejected(self, rng):
        entries = structural_entries(rng, 2) + [
            ("other", SemanticEmbedding(rng.standard_normal(8).astype(np.float32)))
        ]
        with pytest.raises(ValidationError, match="mix"):
            build(entries)

    def test_mixed_m_rejected(self, rng):
        entries = [("a", random_structural(rng, 1024)), ("b", random_structural(rng, 2048))]
        with pytest.raises(ValidationError):
            build(entries)

    def test_mixed_d_rejected(self, rng):
        entries = semantic_entries(rng, 2, d=4) + [
            ("x", SemanticEmbedding(np.ones(5, dtype=np.float32)))
        ]
        with pytest.raises(ValidationError):
            build(entries)

    def test_empty_repository(self, rng):
        repo = build([])
        assert len(repo) == 0
        assert search(repo, random_structural(rng), k=5).hits == []
        assert search(repo, SemanticEmbedding(np.ones(3, dtype=np.float32)), k=5).hits == []


class TestSearch:
    def test_structural_matches_full_scan_oracle(self, rng):
        entries = structural_entries(rng, 40)
        repo = build(entries)
        for _ in range(10):
            query = random_structural(rng)
            got = search(repo, query, k=7)
            expect = oracle_top_k(entries, query, jaccard, 7)
            assert [(h.program_id, h.score) for h in got.hits] == expect

    def test_semantic_matches_full_scan_oracle(self, rng):
        entries = semantic_entries(rng, 40)
        repo = build(entries)
        for _ in range(10):
            query = SemanticEmbedding(rng.standard_normal(8).astype(np.float32))
            got = search(repo, query, k=5)
            expect = oracle_top_k(entries, query, cosine, 5)
            assert [h.program_id for h in got.hits] == [pid for pid, _ in expect]
            for hit, (_, score) in zip(got.hits, expect):
                assert hit.score == pytest.approx(score, abs=1e-12)

    def test_ties_break_on_ascending_id(self, rng):
        emb = random_structural(rng)
        entries = [("zzz", emb), ("aaa", emb), ("mmm", emb)]
        repo = build(entries)
        got = search(repo, emb, k=3)
        assert [h.program_id for h in got.hits] == ["aaa", "mmm", "zzz"]
        assert all(h.score == 1.0 for h in got.hits)

    def test_k_larger_than_repository(self, rng):
        entries = structural_entries(rng, 4)
        got = search(build(entries), random_structural(rng), k=100)
        assert len(got.hits) == 4

    def test_k_below_one_rejected(self, rng):
        repo = build(structural_entries(rng, 3))
        with pytest.raises(ValidationError):
            search(repo, random_structural(rng), k=0)

    def test_kind_mismatch_rejected(self, rng):
        repo = build(structural_entries(rng, 3))
        with pytest.raises(ValidationError, match="structural"):
            search(repo, SemanticEmbedding(np.ones(8, dtype=np.float32)), k=2)

    def test_m_mismatch_rejected(self, rng):
        repo = build(structural_entries(rng, 3, m=1024))
        with pytest.raises(ValidationError, match="m="):
            search(repo, random_structural(rng, m=2048), k=2)

    def test_zero_semantic_query_scores_all_zero(self, rng):
        entries = semantic_entries(rng, 6)
        got = search(build(entries), SemanticEmbedding(np.zeros(8, dtype=np.float32)), k=3)
        assert [h.score for h in got.hits] == [0.0, 0.0, 0.0]
        assert [h.program_id for h in got.hits] == sorted(e[0] for e in entries)[:3]

    def test_self_retrieval_scores_one(self, rng):
        entries = structural_entries(rng, 10)
        repo = build(entries)
        for pid, emb in entries[:3]:
            top = search(repo, emb, k=1).hits[0]
            assert top.score == 1.0


# A few values, so most arrays are tie-heavy; -0.0 and 0.0 compare equal.
_SCORES = st.lists(st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0]), max_size=300)


@settings(max_examples=400, deadline=None)
@given(_SCORES.flatmap(lambda s: st.tuples(st.just(s), st.integers(1, len(s) + 20))))
def test_top_k_equals_stable_argsort(case):
    values, k = case
    scores = np.array(values, dtype=np.float64)
    expect = np.argsort(-scores, kind="stable")[:k]
    for set_aside_lowest in (True, False):
        got = top_k(scores, k, set_aside_lowest)
        assert got.dtype.kind == "i"
        assert got.tolist() == expect.tolist()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 120))
def test_top_k_equals_stable_argsort_on_distinct_and_repeated_floats(seed, n, k):
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal(n)
    scores[rng.random(n) < 0.3] = scores[0]
    expect = np.argsort(-scores, kind="stable")[:k].tolist()
    assert top_k(scores, k).tolist() == expect
    assert top_k(scores, k, set_aside_lowest=False).tolist() == expect


class TestTopK:
    @pytest.mark.parametrize("kind", ["structural", "semantic"])
    def test_all_zero_query_returns_lowest_ids(self, rng, kind):
        if kind == "structural":
            entries = structural_entries(rng, 30)
            query = StructuralEmbedding(np.zeros(1024 // 64, dtype=np.uint64), 1024)
        else:
            entries = semantic_entries(rng, 30)
            query = SemanticEmbedding(np.zeros(8, dtype=np.float32))
        entries = entries[::-1]  # build sorts by id
        got = search(build(entries), query, k=7).hits
        assert [h.program_id for h in got] == sorted(pid for pid, _ in entries)[:7]
        assert [h.score for h in got] == [0.0] * 7


class TestBatchSearch:
    def test_worker_count_does_not_change_results(self, rng):
        entries = semantic_entries(rng, 30)
        repo = build(entries)
        queries = [SemanticEmbedding(rng.standard_normal(8).astype(np.float32)) for _ in range(12)]
        serial = batch_search(repo, queries, k=5, workers=1)
        threaded = batch_search(repo, queries, k=5, workers=4)
        assert serial == threaded

    def test_order_follows_input(self, rng):
        entries = structural_entries(rng, 10)
        repo = build(entries)
        queries = [emb for _, emb in entries[:4]]
        results = batch_search(repo, queries, k=1, workers=3)
        assert [r.hits[0].program_id for r in results] == [pid for pid, _ in entries[:4]]

    def test_bad_worker_count(self, rng):
        repo = build(structural_entries(rng, 2))
        with pytest.raises(ConfigError):
            batch_search(repo, [random_structural(rng)], k=1, workers=0)

    @pytest.mark.parametrize(
        "kind, queries, message",
        [
            ("stru", np.zeros((2, 16), dtype=np.float32), "dtype float32 do not fit"),
            ("stru", np.zeros((2, 32), dtype=np.uint64), "shape (2, 32) and dtype uint64"),
            ("stru", np.zeros(16, dtype=np.uint64), "shape (16,) and dtype uint64"),
            ("stru", [SemanticEmbedding(np.ones(8))],
             "embedding kinds differ: structural repository, other query"),
            ("stru", [np.zeros(16, dtype=np.uint64), np.zeros(8, dtype=np.uint64)],
             "shape (1, 8) and dtype uint64"),
            ("sem", np.zeros((2, 4), dtype=np.float32), "query d=4 does not match repository d=8"),
            ("sem", np.zeros(8, dtype=np.float32), "shape (8,) and dtype float32"),
            ("sem", [StructuralEmbedding.from_bits([1, 0])],
             "embedding kinds differ: semantic repository, other query"),
        ],
        ids=["stru-float-rows", "stru-other-words", "stru-one-row", "stru-sem-embedding",
             "stru-short-row-in-list", "sem-other-d", "sem-one-row",
             "sem-stru-embedding"],
    )
    def test_queries_that_do_not_fit_are_one_validation_error(self, rng, kind, queries, message):
        # m=1024 is 16 words; d=8.
        repo = build(structural_entries(rng, 3) if kind == "stru" else semantic_entries(rng, 3))
        for run in (lambda: batch_search(repo, queries, k=2), lambda: bench(repo, queries)):
            with pytest.raises(ValidationError) as exc:
                run()
            assert message in str(exc.value)

    def test_a_row_is_checked_as_a_one_row_matrix(self, rng):
        repo = build(structural_entries(rng, 3))
        with pytest.raises(ValidationError, match=r"shape \(1, 8\) and dtype uint64"):
            search(repo, np.zeros(8, dtype=np.uint64), k=2)
        with pytest.raises(ValidationError, match=r"shape \(1, 1, 16\)"):
            search(repo, np.zeros((1, 16), dtype=np.uint64), k=2)


class TestBench:
    def test_counts_all_comparisons(self, rng):
        entries = structural_entries(rng, 25)
        repo = build(entries)
        queries = [emb for _, emb in entries[:4]]
        report = bench(repo, queries, rounds=3)
        assert report.comparisons == 3 * 4 * 25
        assert report.seconds > 0
        assert report.per_second > 0
        rows = np.array([emb.words for emb in queries])
        assert bench(repo, rows, rounds=3).comparisons == 3 * 4 * 25

    def test_empty_inputs_rejected(self, rng):
        with pytest.raises(ValidationError):
            bench(build([]), [random_structural(rng)])
        with pytest.raises(ValidationError):
            bench(build(structural_entries(rng, 2)), [])
        with pytest.raises(ValidationError):
            bench(build(structural_entries(rng, 2)), np.empty((0, 16), dtype=np.uint64))


class TestResultsFile:
    def test_round_trip(self, rng, tmp_path):
        entries = structural_entries(rng, 12)
        repo = build(entries)
        queries = [(f"q{i}", random_structural(rng)) for i in range(5)]
        results = [(qid, search(repo, emb, k=4)) for qid, emb in queries]
        path = tmp_path / "hits.tsv"
        save_results(results, str(path))
        loaded = load_results(str(path))
        assert [qid for qid, _ in loaded] == [qid for qid, _ in results]
        for (_, res), (_, rows) in zip(results, loaded):
            assert [h.program_id for h in res.hits] == [pid for pid, _ in rows]
            for hit, (_, score) in zip(res.hits, rows):
                assert abs(hit.score - score) <= 5e-7  # 6dp in the file

    def test_file_shape(self, rng, tmp_path):
        repo = build(structural_entries(rng, 3))
        result = search(repo, random_structural(rng), k=2)
        path = tmp_path / "hits.tsv"
        save_results([("q0", result)], str(path))
        lines = path.read_bytes().decode().splitlines()
        assert len(lines) == 2
        fields = lines[0].split("\t")
        assert fields[0] == "q0" and fields[1] == "1"
        float(fields[3])  # parses

    def test_empty_results_file(self, tmp_path):
        path = tmp_path / "hits.tsv"
        save_results([], str(path))
        assert path.read_bytes() == b""
        assert load_results(str(path)) == []

    @pytest.mark.parametrize(
        "body",
        [
            "q0\t1\tp\tx\n",
            "q0\t2\tp\t0.5\n",
            "q0\t1\tp\n",
            "q0\t1\tp\t0.5\nq0\t3\tp2\t0.4\n",
            "q0\t1\tp\t0.5\nq1\t1\tp\t0.5\nq0\t2\tp2\t0.4\n",
        ],
    )
    def test_malformed_results_rejected(self, tmp_path, body):
        path = tmp_path / "bad.tsv"
        path.write_bytes(body.encode())
        with pytest.raises(ParseError):
            load_results(str(path))
