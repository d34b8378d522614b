import itertools
import json
import logging
import os
import subprocess
import sys

import numpy as np
import pytest

import binsketch
from binsketch.cli import main
from binsketch.corpus import (
    SemanticEmbedding,
    StructuralEmbedding,
    load_embeddings,
    load_structural,
    save_semantic,
    save_structural,
)
from binsketch.search import load_index, load_results
from binsketch.structural import Postings


def run_cli(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:  # argparse usage failures
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_report(stdout):
    values = {}
    for line in stdout.strip().splitlines():
        key, _, value = line.partition("=")
        values[key] = value
    return values


@pytest.fixture
def pipeline_dir(tmp_path, capsys):
    """A small synthetic corpus plus trained model and embeddings."""
    d = tmp_path
    code, out, err = run_cli(
        capsys,
        "synth",
        "--classes", "4",
        "--programs-per-class", "3",
        "--queries-per-class", "1",
        "--functions-per-program", "12",
        "--d", "6",
        "--seed", "0",
        "--out-repo", str(d / "repo.tsv"),
        "--out-query", str(d / "query.tsv"),
        "--out-classes", str(d / "classes.tsv"),
    )
    assert code == 0, err
    code, out, err = run_cli(
        capsys,
        "kmeans-train",
        "--corpus", str(d / "repo.tsv"),
        "--n-clusters", "48",
        "--iterations", "10",
        "--seed", "1",
        "--out", str(d / "model.km"),
    )
    assert code == 0, err
    for mode, name in [("stru", "repo.stru"), ("sem", "repo.sem")]:
        code, _, err = run_cli(
            capsys,
            "hash",
            "--corpus", str(d / "repo.tsv"),
            "--mode", mode,
            "--model", str(d / "model.km"),
            "--m", "1024",
            "--out", str(d / name),
        )
        assert code == 0, err
    for mode, name in [("stru", "query.stru"), ("sem", "query.sem")]:
        code, _, err = run_cli(
            capsys,
            "hash",
            "--corpus", str(d / "query.tsv"),
            "--mode", mode,
            "--model", str(d / "model.km"),
            "--m", "1024",
            "--out", str(d / name),
        )
        assert code == 0, err
    return d


class TestPipeline:
    def test_end_to_end_clone_search(self, pipeline_dir, capsys):
        d = pipeline_dir
        code, out, err = run_cli(
            capsys,
            "index-search",
            "--repo-emb", str(d / "repo.stru"),
            "--query-emb", str(d / "query.stru"),
            "--k", "5",
            "--out", str(d / "hits.tsv"),
        )
        assert code == 0, err
        results = load_results(str(d / "hits.tsv"))
        assert len(results) == 4
        assert all(len(rows) == 5 for _, rows in results)

        code, out, err = run_cli(
            capsys,
            "eval",
            "--results", str(d / "hits.tsv"),
            "--class-map", str(d / "classes.tsv"),
            "--k", "5",
            "--repo-emb", str(d / "repo.stru"),
        )
        assert code == 0, err
        report = parse_report(out)
        assert report["queries"] == "4"
        assert report["excluded_queries"] == "0"
        # Zero noise, zero reuse: same-class sketches are identical, so
        # every query finds its 3 classmates up front.
        assert float(report["map_at_k"]) >= 0.95

    def test_semantic_side_also_retrieves(self, pipeline_dir, capsys):
        d = pipeline_dir
        run_cli(
            capsys,
            "index-search",
            "--repo-emb", str(d / "repo.sem"),
            "--query-emb", str(d / "query.sem"),
            "--k", "3",
            "--out", str(d / "hits_sem.tsv"),
        )
        code, out, err = run_cli(
            capsys,
            "eval",
            "--results", str(d / "hits_sem.tsv"),
            "--class-map", str(d / "classes.tsv"),
            "--k", "3",
        )
        assert code == 0, err
        assert float(parse_report(out)["map_at_k"]) >= 0.95

    def test_self_search_top_score_is_one(self, pipeline_dir, capsys):
        d = pipeline_dir
        run_cli(
            capsys,
            "index-search",
            "--repo-emb", str(d / "repo.stru"),
            "--query-emb", str(d / "repo.stru"),
            "--k", "1",
            "--out", str(d / "self.tsv"),
        )
        for qid, rows in load_results(str(d / "self.tsv")):
            assert rows[0][1] == pytest.approx(1.0)

    def test_mean_mode_matches_mean_pooling_config(self, pipeline_dir, capsys):
        d = pipeline_dir
        run_cli(
            capsys, "hash",
            "--corpus", str(d / "repo.tsv"), "--mode", "mean",
            "--out", str(d / "repo.mean"),
        )
        kind, entries = load_embeddings(str(d / "repo.mean"))
        assert kind == "semantic"
        assert len(entries) == 12

    def test_structural_popcount_bounded_by_function_count(self, pipeline_dir):
        entries = load_structural(str(pipeline_dir / "repo.stru"))
        assert all(emb.popcount() <= 12 for _, emb in entries)


class TestDeterminism:
    def test_rerun_is_byte_identical(self, pipeline_dir, capsys):
        d = pipeline_dir
        run_cli(
            capsys, "kmeans-train",
            "--corpus", str(d / "repo.tsv"), "--n-clusters", "48",
            "--iterations", "10", "--seed", "1", "--out", str(d / "model2.km"),
        )
        assert (d / "model.km").read_bytes() == (d / "model2.km").read_bytes()

        run_cli(
            capsys, "hash",
            "--corpus", str(d / "repo.tsv"), "--mode", "stru",
            "--model", str(d / "model.km"), "--m", "1024",
            "--out", str(d / "repo2.stru"),
        )
        assert (d / "repo.stru").read_bytes() == (d / "repo2.stru").read_bytes()

    def test_worker_count_invariance(self, pipeline_dir, capsys):
        d = pipeline_dir
        for workers, name in [("1", "w1.tsv"), ("4", "w4.tsv")]:
            run_cli(
                capsys, "index-search",
                "--repo-emb", str(d / "repo.sem"),
                "--query-emb", str(d / "query.sem"),
                "--k", "6", "--workers", workers,
                "--out", str(d / name),
            )
        assert (d / "w1.tsv").read_bytes() == (d / "w4.tsv").read_bytes()

    @pytest.mark.parametrize("mode", ["stru", "sem"])
    def test_one_and_two_workers_write_identical_hits(self, pipeline_dir, capsys, mode):
        d = pipeline_dir
        if mode == "stru":  # the posting-list kernel, which runs serially
            assert isinstance(load_index(str(d / "repo.stru")).rows, Postings)
        for workers in ("1", "2"):
            code, _, err = run_cli(
                capsys, "index-search",
                "--repo-emb", str(d / f"repo.{mode}"),
                "--query-emb", str(d / f"query.{mode}"),
                "--k", "7", "--workers", workers,
                "--out", str(d / f"w{workers}.tsv"),
            )
            assert code == 0, err
        assert (d / "w1.tsv").read_bytes() == (d / "w2.tsv").read_bytes()
        assert len(load_results(str(d / "w1.tsv"))) == 4


class TestEvalHandExample:
    def test_printed_values(self, tmp_path, capsys):
        results = tmp_path / "hits.tsv"
        results.write_bytes(
            b"q0\t1\tr0\t0.900000\nq0\t2\tr1\t0.800000\nq0\t3\tr2\t0.700000\n"
        )
        classes = tmp_path / "classes.tsv"
        classes.write_bytes(b"q0\tA\nr0\tA\nr1\tB\nr2\tA\n")
        code, out, err = run_cli(
            capsys, "eval",
            "--results", str(results), "--class-map", str(classes), "--k", "3",
        )
        assert code == 0, err
        report = parse_report(out)
        assert report["map_at_k"] == "0.833333"
        assert report["mp_at_k"] == "0.666667"

    def test_lonely_query_class_excluded(self, tmp_path, capsys):
        results = tmp_path / "hits.tsv"
        results.write_bytes(b"q0\t1\tr0\t0.900000\nq1\t1\tr0\t0.500000\n")
        classes = tmp_path / "classes.tsv"
        classes.write_bytes(b"q0\tA\nq1\tLONE\nr0\tA\n")
        code, out, err = run_cli(
            capsys, "eval",
            "--results", str(results), "--class-map", str(classes), "--k", "2",
        )
        assert code == 0, err
        assert parse_report(out)["excluded_queries"] == "1"


class TestMatchEval:
    def test_perfectly_separable_corpus(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.tsv"
        lines = ["KHCORP1\tversion=1\td=2"]
        for pid in ("A", "B"):
            lines.append(f"{pid}\t{pid}.f0\t10\t1\t1.0 0.0\tclass_label=0")
            lines.append(f"{pid}\t{pid}.f1\t10\t1\t0.0 1.0\tclass_label=1")
        corpus.write_bytes(("\n".join(lines) + "\n").encode())
        model = tmp_path / "model.km"
        code, _, err = run_cli(
            capsys, "kmeans-train",
            "--corpus", str(corpus), "--n-clusters", "2",
            "--iterations", "3", "--seed", "0", "--out", str(model),
        )
        assert code == 0, err
        code, out, err = run_cli(
            capsys, "match-eval",
            "--query-corpus", str(corpus), "--repo-corpus", str(corpus),
            "--model", str(model),
        )
        assert code == 0, err
        report = parse_report(out)
        assert report["precision"] == "1.000000"
        assert report["recall"] == "1.000000"
        assert report["f1"] == "1.000000"
        assert report["matched_pairs"] == "8"

    def test_missing_labels_rejected(self, pipeline_dir, tmp_path, capsys):
        corpus = tmp_path / "nolabels.tsv"
        corpus.write_bytes(
            b"KHCORP1\tversion=1\td=6\np\tp.f0\t1\t0\t1.0 0.0 0.0 0.0 0.0 0.0\n"
        )
        code, _, err = run_cli(
            capsys, "match-eval",
            "--query-corpus", str(corpus), "--repo-corpus", str(corpus),
            "--model", str(pipeline_dir / "model.km"),
        )
        assert code == 2
        assert "class_label" in err


class TestZeroNormFunctions:
    """Every command drops zero-norm functions, as ``hash`` does."""

    def _corpus(self, path, zero):
        lines = ["KHCORP1\tversion=1\td=2"]
        for pid in ("A", "B"):
            lines.append(f"{pid}\t{pid}.f0\t10\t1\t1.0 0.0\tclass_label=0")
            lines.append(f"{pid}\t{pid}.f1\t10\t1\t0.0 1.0\tclass_label=1")
        if zero:
            # Whatever its class, cluster 0 is no evidence about it.
            lines.append("B\tB.zero\t10\t1\t0.0 0.0\tclass_label=1")
        path.write_bytes(("\n".join(lines) + "\n").encode())
        return str(path)

    def _train(self, capsys, corpus, model):
        return run_cli(
            capsys, "kmeans-train", "--corpus", corpus, "--n-clusters", "2",
            "--iterations", "3", "--seed", "0", "--out", str(model),
        )

    def test_kmeans_train_skips_them(self, tmp_path, capsys, caplog):
        model = tmp_path / "model.km"
        with caplog.at_level(logging.WARNING, logger="binsketch.corpus"):
            code, out, err = self._train(capsys, self._corpus(tmp_path / "z.tsv", True), model)
        assert code == 0, err
        assert parse_report(out)["trained_on"] == "4"
        assert [r.getMessage() for r in caplog.records] == ["skipped 1 zero-norm functions"]
        clean = tmp_path / "clean.km"
        self._train(capsys, self._corpus(tmp_path / "c.tsv", False), clean)
        assert model.read_bytes() == clean.read_bytes()

    def test_all_zero_corpus_has_nothing_to_train_on(self, tmp_path, capsys):
        corpus = tmp_path / "zero.tsv"
        corpus.write_bytes(b"KHCORP1\tversion=1\td=2\np\tp.f0\t1\t0\t0.0 0.0\n")
        code, out, err = self._train(capsys, str(corpus), tmp_path / "m.km")
        assert code == 2
        assert err.splitlines() == [
            f"error: {corpus}: corpus has no non-zero-norm functions to train on"
        ]

    @pytest.mark.parametrize("side", ["--query-corpus", "--repo-corpus"])
    def test_match_eval_does_not_pair_them_as_cluster_zero(self, tmp_path, capsys, side):
        clean = self._corpus(tmp_path / "c.tsv", False)
        model = str(tmp_path / "model.km")
        assert self._train(capsys, clean, model)[0] == 0
        argv = {"--query-corpus": clean, "--repo-corpus": clean, "--model": model}
        code, expect, err = run_cli(capsys, "match-eval", *sum(argv.items(), ()))
        assert code == 0, err
        argv[side] = self._corpus(tmp_path / "z.tsv", True)
        code, out, err = run_cli(capsys, "match-eval", *sum(argv.items(), ()))
        assert code == 0, err
        assert parse_report(out) == parse_report(expect)
        assert parse_report(out)["matched_pairs"] == "8"


class TestLossCheck:
    def test_default_run_passes(self, capsys):
        code, out, err = run_cli(capsys, "loss-check")
        assert code == 0, err
        report = parse_report(out)
        assert report["status"] == "pass"
        assert float(report["max_rel_error"]) <= 1e-3

    def test_impossible_tolerance_fails_with_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "loss-check", "--tol", "0")
        assert code == 1
        assert parse_report(out)["status"] == "fail"

    def test_overflowing_loss_fails(self, capsys):
        # The loss is inf, so every finite difference is NaN: not a pass.
        with np.errstate(over="ignore", invalid="ignore"):
            code, out, _ = run_cli(capsys, "loss-check", "--temperature", "1e308")
        assert code == 1
        report = parse_report(out)
        assert report["max_rel_error"] == "nan"
        assert report["status"] == "fail"

    def test_overflowing_loss_writes_no_numpy_warning(self):
        # In a real process a RuntimeWarning goes to stderr with the numpy
        # source line it points at; capsys would not see it.
        src = os.path.dirname(os.path.dirname(binsketch.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "binsketch.cli", "loss-check", "--temperature", "1e308"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert parse_report(proc.stdout)["status"] == "fail"
        assert proc.stderr == ""  # no RuntimeWarning and no numpy source line

    def test_overflowing_step_writes_no_numpy_warning(self):
        # The perturbed inputs overflow the row norms; the report still fails.
        src = os.path.dirname(os.path.dirname(binsketch.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "binsketch.cli", "loss-check", "--step", "1e+308"],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 1
        assert proc.stdout.splitlines()[-1] == "status=fail"
        assert proc.stderr == ""

    @pytest.mark.parametrize("seed", ["4", "7"])
    def test_overflowing_logits_raise_no_warning(self, seed):
        # At these seeds the scaled logits hold -inf and inf, so the
        # logsumexp shift subtracts infinities.
        src = os.path.dirname(os.path.dirname(binsketch.__file__))
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "binsketch.cli", "loss-check",
             "--n", "2", "--d", "2", "--temperature", "1e308", "--seed", seed],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stderr == ""
        assert proc.returncode == 1
        assert parse_report(proc.stdout)["status"] == "fail"

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--step", "nan", "step must be finite and > 0, got nan"),
            ("--step", "inf", "step must be finite and > 0, got inf"),
            ("--tol", "nan", "--tol must be finite and >= 0, got nan"),
            ("--tol", "inf", "--tol must be finite and >= 0, got inf"),
            ("--tol", "-1", "--tol must be finite and >= 0, got -1.0"),
        ],
    )
    def test_bad_step_or_tolerance_is_usage_error(self, capsys, flag, value, message):
        code, out, err = run_cli(capsys, "loss-check", flag, value)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {message}"]


class TestBench:
    def test_reports_rate(self, pipeline_dir, capsys):
        code, out, err = run_cli(
            capsys, "bench",
            "--repo-emb", str(pipeline_dir / "repo.stru"),
            "--queries", "4", "--rounds", "2",
        )
        assert code == 0, err
        report = parse_report(out)
        assert int(report["comparisons"]) == 2 * 4 * 12
        assert float(report["per_second"]) > 0

    def test_semantic_file_rejected(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--repo-emb", str(pipeline_dir / "repo.sem")
        )
        assert code == 2
        assert "structural" in err

    @pytest.mark.parametrize("queries", ["-1", "0"])
    def test_query_count_below_one_is_usage_error(self, pipeline_dir, capsys, queries):
        # entries[:-1] would silently bench all entries but the last.
        code, out, err = run_cli(
            capsys, "bench",
            "--repo-emb", str(pipeline_dir / "repo.stru"), "--queries", queries,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: --queries must be >= 1, got {queries}"]

    @pytest.mark.parametrize("queries", [13, 2**63, 2**64])
    def test_query_count_past_the_file_benches_every_row(self, pipeline_dir, capsys, queries):
        code, out, err = run_cli(
            capsys, "bench",
            "--repo-emb", str(pipeline_dir / "repo.stru"), "--queries", str(queries),
        )
        assert (code, err) == (0, "")
        report = parse_report(out)
        assert (report["queries"], report["comparisons"]) == ("12", str(12 * 12))

    def test_query_file_rows_are_benched(self, pipeline_dir, capsys):
        code, out, err = run_cli(
            capsys, "bench",
            "--repo-emb", str(pipeline_dir / "repo.stru"),
            "--query-emb", str(pipeline_dir / "query.stru"), "--rounds", "3",
        )
        assert code == 0, err
        report = parse_report(out)
        assert (report["queries"], report["rounds"]) == ("4", "3")
        assert int(report["comparisons"]) == 3 * 4 * 12

    @pytest.mark.parametrize(
        "kind, param, n, message",
        [
            ("sem", 4, 0, "embedding kinds differ: structural repository, other query"),
            ("sem", 4, 2, "embedding kinds differ: structural repository, other query"),
            ("stru", 2048, 0, "query m=2048 does not match repository m=1024"),
            ("stru", 2048, 2, "query m=2048 does not match repository m=1024"),
        ],
    )
    def test_query_file_header_is_checked_even_when_empty(
        self, pipeline_dir, capsys, kind, param, n, message
    ):
        rng = np.random.default_rng(0)
        path = pipeline_dir / f"other.{kind}"
        ids = [f"q{i}" for i in range(n)]
        if kind == "stru":
            rows = [StructuralEmbedding.from_bits(rng.integers(0, 2, param)) for _ in ids]
            save_structural(list(zip(ids, rows)), str(path), m=param)
        else:
            rows = [SemanticEmbedding(rng.standard_normal(param)) for _ in ids]
            save_semantic(list(zip(ids, rows)), str(path), d=param)
        code, out, err = run_cli(
            capsys, "bench",
            "--repo-emb", str(pipeline_dir / "repo.stru"), "--query-emb", str(path),
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [f"error: {message}"]

    def test_model_file_as_queries_is_unrecognized(self, pipeline_dir, capsys):
        code, out, err = run_cli(
            capsys, "bench",
            "--repo-emb", str(pipeline_dir / "repo.stru"),
            "--query-emb", str(pipeline_dir / "model.km"),
        )
        assert (code, out) == (2, "")
        assert len(err.splitlines()) == 1
        assert "unrecognized magic b'KHKM1" in err


class TestExitCodes:
    def test_stru_without_model_is_usage_error(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys, "hash",
            "--corpus", str(pipeline_dir / "repo.tsv"),
            "--mode", "stru",
            "--out", str(pipeline_dir / "x.stru"),
        )
        assert code == 2
        assert "--model" in err

    def test_kind_mismatch_is_usage_error(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys, "index-search",
            "--repo-emb", str(pipeline_dir / "repo.stru"),
            "--query-emb", str(pipeline_dir / "query.sem"),
            "--k", "3",
            "--out", str(pipeline_dir / "x.tsv"),
        )
        assert code == 2
        assert "kind" in err

    @pytest.mark.parametrize(
        "repo, query, message",
        [
            (("stru", 1024, 0), ("sem", 4, 1),
             "embedding kinds differ: structural repository, other query"),
            (("sem", 4, 2), ("stru", 1024, 0),
             "embedding kinds differ: semantic repository, other query"),
            (("stru", 1024, 0), ("stru", 2048, 2), "query m=2048 does not match repository m=1024"),
            (("stru", 1024, 2), ("stru", 2048, 0), "query m=2048 does not match repository m=1024"),
            (("sem", 4, 0), ("sem", 8, 2), "query d=8 does not match repository d=4"),
            (("sem", 4, 2), ("sem", 8, 0), "query d=8 does not match repository d=4"),
        ],
        ids=["empty-stru-repo-sem-query", "sem-repo-empty-stru-query", "empty-repo-other-m",
             "empty-query-other-m", "empty-repo-other-d", "empty-query-other-d"],
    )
    def test_mismatch_is_usage_error_when_either_file_is_empty(
        self, tmp_path, capsys, repo, query, message
    ):
        # The search checks each query against the repository, but an empty
        # side gives it nothing to check: the headers must be compared.
        rng = np.random.default_rng(0)
        paths = {}
        for side, (kind, param, n) in (("repo", repo), ("query", query)):
            path = paths[side] = tmp_path / f"{side}.{kind}"
            ids = [f"{side}{i}" for i in range(n)]
            if kind == "stru":
                rows = [StructuralEmbedding.from_bits(rng.integers(0, 2, param)) for _ in ids]
                save_structural(list(zip(ids, rows)), str(path), m=param)
            else:
                rows = [SemanticEmbedding(rng.standard_normal(param)) for _ in ids]
                save_semantic(list(zip(ids, rows)), str(path), d=param)
        out = tmp_path / "hits.tsv"
        code, stdout, err = run_cli(
            capsys, "index-search", "--repo-emb", str(paths["repo"]),
            "--query-emb", str(paths["query"]), "--k", "3", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err.splitlines() == [f"error: {message}"]
        assert not out.exists()

    def test_zero_k_is_usage_error(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys, "index-search",
            "--repo-emb", str(pipeline_dir / "repo.stru"),
            "--query-emb", str(pipeline_dir / "query.stru"),
            "--k", "0",
            "--out", str(pipeline_dir / "x.tsv"),
        )
        assert code == 2

    @pytest.mark.parametrize("flag,config", [("0", None), ("-5", None), (None, {"k": 0})])
    def test_k_below_one_is_usage_error_without_queries(self, pipeline_dir, capsys, flag, config):
        d = pipeline_dir
        save_structural([], str(d / "none.stru"), m=1024)
        argv = ["index-search", "--repo-emb", str(d / "repo.stru"),
                "--query-emb", str(d / "none.stru"), "--out", str(d / "x.tsv")]
        if flag is not None:
            argv += ["--k", flag]
        else:
            (d / "cfg.json").write_text(json.dumps(config))
            argv = ["--config", str(d / "cfg.json"), *argv]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: k must be >= 1, got {flag or config['k']}"]
        assert not (d / "x.tsv").exists()

    @pytest.mark.parametrize("model", ["model.km", "missing.km"])
    @pytest.mark.parametrize("mode", ["stru", "sem"])
    def test_corpus_without_programs_is_usage_error(self, pipeline_dir, capsys, mode, model):
        d = pipeline_dir
        corpus = d / "header_only.tsv"
        corpus.write_bytes(b"KHCORP1\tversion=1\td=6\n")
        code, out, err = run_cli(
            capsys, "hash", "--corpus", str(corpus), "--mode", mode,
            "--model", str(d / model), "--out", str(d / "x.emb"),
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {corpus}: corpus has no programs to hash"]
        assert not (d / "x.emb").exists()

    def test_missing_file_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "kmeans-train",
            "--corpus", str(tmp_path / "nope.tsv"),
            "--out", str(tmp_path / "m.km"),
        )
        assert code == 2

    def test_invalid_synth_spec(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "synth",
            "--classes", "2", "--programs-per-class", "1",
            "--reuse", "1.5",
            "--out-repo", str(tmp_path / "r.tsv"),
            "--out-query", str(tmp_path / "q.tsv"),
        )
        assert code == 2

    @pytest.mark.parametrize(
        "noise, message",
        [
            ("nan", "noise must be finite and >= 0, got nan"),
            ("inf", "noise must be finite and >= 0, got inf"),
            # Finite, but noise times a standard normal draw overflows.
            ("1e308", "noise must keep embeddings finite, got 1e+308"),
        ],
        ids=["nan", "inf", "1e308"],
    )
    def test_non_finite_synth_noise_is_usage_error(self, tmp_path, capsys, noise, message):
        code, _, err = run_cli(
            capsys, "synth",
            "--classes", "2", "--programs-per-class", "1", "--noise", noise,
            "--out-repo", str(tmp_path / "r.tsv"),
            "--out-query", str(tmp_path / "q.tsv"),
        )
        assert code == 2
        assert err.splitlines() == [f"error: {message}"]
        assert not (tmp_path / "r.tsv").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["hash", "--corpus", "model.km", "--mode", "sem", "--out", "x.sem"],
            ["eval", "--results", "repo.stru", "--class-map", "classes.tsv"],
            ["eval", "--results", "hits.tsv", "--class-map", "model.km"],
        ],
        ids=["corpus", "results", "class-map"],
    )
    def test_non_utf8_text_input_is_usage_error(self, pipeline_dir, capsys, argv):
        (pipeline_dir / "hits.tsv").write_text("C0000Q000\t1\tC0000P000\t1.000000\n")
        argv = [str(pipeline_dir / a) if "." in a else a for a in argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ") and "not valid UTF-8" in err

    def test_structural_file_with_set_padding_bits_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "pad.stru"
        # KHSTRU1, m = 100, one record "p" of 13 bytes with bits 100-103 set.
        path.write_bytes(
            b"KHSTRU1" + (100).to_bytes(4, "little") + (1).to_bytes(8, "little")
            + (1).to_bytes(4, "little") + b"p" + b"\x00" * 12 + b"\xf0"
        )
        code, _, err = run_cli(
            capsys, "index-search", "--repo-emb", str(path), "--query-emb", str(path),
            "--out", str(tmp_path / "hits.tsv"),
        )
        assert code == 2
        assert err.splitlines() == [f"error: {path}: padding bits past m must be zero"]
        assert not (tmp_path / "hits.tsv").exists()

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 2

    def test_negative_sample_is_usage_error(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys, "kmeans-train",
            "--corpus", str(pipeline_dir / "repo.tsv"),
            "--sample", "-5",
            "--out", str(pipeline_dir / "m.km"),
        )
        assert code == 2
        assert err.splitlines() == ["error: --sample must be >= 0, got -5"]

    @pytest.mark.parametrize("config", [None, {"seed_kmeans": -1}])
    def test_negative_kmeans_seed_is_usage_error(self, pipeline_dir, capsys, config):
        argv = ["kmeans-train", "--corpus", str(pipeline_dir / "repo.tsv"),
                "--sample", "10", "--out", str(pipeline_dir / "m.km")]
        if config is None:
            argv += ["--seed", "-1"]
        else:
            cfg = pipeline_dir / "cfg.json"
            cfg.write_text(json.dumps(config))
            argv = ["--config", str(cfg), *argv]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.splitlines() == ["error: --seed (or seed_kmeans) must be >= 0, got -1"]
        assert not (pipeline_dir / "m.km").exists()

    def test_negative_synth_seed_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "synth",
            "--classes", "2", "--programs-per-class", "1", "--seed", "-3",
            "--out-repo", str(tmp_path / "r.tsv"),
            "--out-query", str(tmp_path / "q.tsv"),
        )
        assert code == 2
        assert err.splitlines() == ["error: seed must be >= 0, got -3"]

    @pytest.mark.parametrize("flag", ["--n", "--d"])
    def test_negative_loss_check_size_is_usage_error(self, capsys, flag):
        code, out, err = run_cli(capsys, "loss-check", flag, "-1")
        assert code == 2
        assert out == ""
        assert err.splitlines() == [f"error: {flag} must be >= 1, got -1"]

    def test_negative_loss_check_seed_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "loss-check", "--seed", "-1")
        assert code == 2
        assert err.splitlines() == ["error: --seed must be >= 0, got -1"]

    @pytest.mark.parametrize("flag", ["--alpha1", "--alpha2", "--beta1", "--beta2"])
    def test_non_finite_weight_names_its_parameter(self, pipeline_dir, capsys, flag):
        code, _, err = run_cli(
            capsys, "hash",
            "--corpus", str(pipeline_dir / "repo.tsv"), "--mode", "sem",
            flag, "nan", "--out", str(pipeline_dir / "x.sem"),
        )
        assert code == 2
        assert err.splitlines() == [f"error: {flag[2:]} must be finite, got nan"]

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize(
        "name, value, message",
        [
            ("beta2", 1e-308, "the weights overflow float64 under mode=full, "
                              "alpha1=0.4, alpha2=5.0, beta1=0.45, beta2=1e-308"),
            ("alpha2", 1e-308, "the weights overflow float64 under mode=full, "
                               "alpha1=0.4, alpha2=1e-308, beta1=0.45, beta2=1.0"),
            ("alpha2", 1e-40, "a pooled vector exceeds the float32 range under mode=full, "
                              "alpha1=0.4, alpha2=1e-40, beta1=0.45, beta2=1.0"),
            # loc reaches 952 here: loc**20 is finite in float64 but not in float32.
            ("alpha1", 20.0, "a pooled vector exceeds the float32 range under mode=full, "
                             "alpha1=20.0, alpha2=5.0, beta1=0.45, beta2=1.0"),
        ],
        ids=["beta2-weight", "alpha2-weight", "alpha2-float32", "alpha1-float32"],
    )
    def test_overflowing_weight_is_one_error_line(self, pipeline_dir, name, value, message, via):
        # A real process: numpy's RuntimeWarnings would reach its stderr,
        # where capsys does not look.
        out = pipeline_dir / "x.sem"
        setting = ["--" + name, repr(value)]
        if via == "config":
            cfg = pipeline_dir / "cfg.json"
            cfg.write_text(json.dumps({name: value}))
            setting = ["--config", str(cfg)]
        argv = ["hash", "--corpus", str(pipeline_dir / "repo.tsv"), "--mode", "sem",
                "--out", str(out)]
        argv = setting + argv if via == "config" else argv + setting
        src = os.path.dirname(os.path.dirname(binsketch.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "binsketch.cli", *argv],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [f"error: {message}"]
        assert not out.exists()

    @pytest.mark.parametrize("field", ["loc", "nos"])
    def test_stat_beyond_float64_is_one_error_line(self, tmp_path, field):
        # The reader takes any integer; 10**400 has no float64 value.
        stats = {"loc": "3", "nos": "1", field: "1" + "0" * 400}
        corpus = tmp_path / "big.tsv"
        corpus.write_text(
            "KHCORP1\tversion=1\td=2\n"
            f"p\tf0\t{stats['loc']}\t{stats['nos']}\t0.5 1.0\n"
        )
        out = tmp_path / "x.sem"
        src = os.path.dirname(os.path.dirname(binsketch.__file__))
        proc = subprocess.run(
            [sys.executable, "-m", "binsketch.cli", "hash", "--corpus", str(corpus),
             "--mode", "sem", "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            f"error: function 'f0': {field} is beyond the float64 range"
        ]
        assert not out.exists()

    def test_model_with_huge_record_count_is_usage_error(self, pipeline_dir, capsys):
        bad = pipeline_dir / "bad.km"
        raw = bytearray((pipeline_dir / "model.km").read_bytes())
        raw[9:17] = (1 << 40).to_bytes(8, "little")
        bad.write_bytes(bytes(raw))
        code, _, err = run_cli(
            capsys, "hash",
            "--corpus", str(pipeline_dir / "repo.tsv"),
            "--mode", "stru", "--model", str(bad),
            "--out", str(pipeline_dir / "x.stru"),
        )
        assert code == 2
        assert len(err.splitlines()) == 1
        assert err.startswith("error:") and "truncated" in err

    def test_n_clusters_exceeding_corpus(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys, "kmeans-train",
            "--corpus", str(pipeline_dir / "repo.tsv"),
            "--n-clusters", "100000",
            "--out", str(pipeline_dir / "m.km"),
        )
        assert code == 2
        assert "distinct" in err


class TestConfigFile:
    def test_config_defaults_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"k": 2}))
        results = tmp_path / "hits.tsv"
        results.write_bytes(b"q0\t1\tr0\t0.900000\nq0\t2\tr1\t0.800000\n")
        classes = tmp_path / "classes.tsv"
        classes.write_bytes(b"q0\tA\nr0\tA\nr1\tA\n")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "eval",
            "--results", str(results), "--class-map", str(classes),
        )
        assert code == 0
        assert parse_report(out)["k"] == "2"
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "eval",
            "--results", str(results), "--class-map", str(classes), "--k", "1",
        )
        assert parse_report(out)["k"] == "1"

    @pytest.mark.parametrize(
        "body", [{"k": "7"}, {"k": True}, {"k": 7.0}, {"alpha1": "0.4"}, {"beta2": False}]
    )
    def test_wrong_json_type_is_usage_error(self, pipeline_dir, capsys, body):
        cfg = pipeline_dir / "cfg.json"
        cfg.write_text(json.dumps(body))
        code, _, err = run_cli(
            capsys, "--config", str(cfg), "index-search",
            "--repo-emb", str(pipeline_dir / "repo.stru"),
            "--query-emb", str(pipeline_dir / "query.stru"),
            "--out", str(pipeline_dir / "x.tsv"),
        )
        assert code == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert "must be" in err

    def test_int_accepted_for_float_field(self, pipeline_dir, capsys):
        outputs = []
        for value in (1, 1.0):
            cfg = pipeline_dir / "cfg.json"
            cfg.write_text(json.dumps({"alpha1": value}))
            out = pipeline_dir / f"alpha1_{value!r}.sem"
            code, _, err = run_cli(
                capsys, "--config", str(cfg), "hash",
                "--corpus", str(pipeline_dir / "repo.tsv"), "--mode", "sem",
                "--out", str(out),
            )
            assert code == 0, err
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clusters": 3}))
        code, _, err = run_cli(capsys, "--config", str(cfg), "loss-check")
        assert code == 2
        assert "unknown config" in err


# field -> (subcommand under observation, config value, a different flag value).
# The hash seeds are XORed into label ids 0..127, which seeds below 128 would
# only permute.
PRECEDENCE_CASES = [
    ("d", "synth", 4, 5),
    ("n_clusters", "kmeans-train", 4, 8),
    ("iterations", "kmeans-train", 1, 4),
    ("seed_kmeans", "kmeans-train", 1, 2),
    ("m", "hash-stru", 1024, 2048),
    ("seed_position", "hash-stru", 1000, 2000),
    ("seed_sign", "hash-stru", 1000, 2000),
    ("alpha1", "hash-sem", 0.2, 1.0),
    ("alpha2", "hash-sem", 2.0, 7.0),
    ("beta1", "hash-sem", 0.1, 0.9),
    ("beta2", "hash-sem", 0.5, 3.0),
    ("k", "index-search", 2, 3),
    ("k", "eval", 1, 2),
]


class TestPrecedence:
    """For every PipelineConfig field: a config value acts exactly like the
    same flag, and a flag beats a different config value."""

    _serial = itertools.count()

    @staticmethod
    def _argv(d, command, field, out):
        # A flag the command needs here unless it is the one under test.
        preset = {"kmeans-train": ["--n-clusters", "6"], "hash-stru": ["--m", "1024"]}
        extra = [] if field in {"n_clusters", "m"} else preset.get(command, [])
        return {
            "synth": ["synth", "--classes", "2", "--programs-per-class", "2",
                      "--functions-per-program", "4", "--out-repo", out,
                      "--out-query", str(d / "unused.tsv")],
            "kmeans-train": ["kmeans-train", "--corpus", str(d / "repo.tsv"), "--out", out],
            "hash-stru": ["hash", "--corpus", str(d / "wide.tsv"), "--mode", "stru",
                          "--model", str(d / "wide.km"), "--out", out],
            "hash-sem": ["hash", "--corpus", str(d / "repo.tsv"), "--mode", "sem",
                         "--out", out],
            "index-search": ["index-search", "--repo-emb", str(d / "repo.stru"),
                             "--query-emb", str(d / "query.stru"), "--out", out],
            "eval": ["eval", "--results", str(d / "hits5.tsv"),
                     "--class-map", str(d / "classes.tsv")],
        }[command] + extra

    def _observe(self, d, capsys, field, command, config=None, flag=None):
        """Stdout and output bytes (None if none) of one successful run."""
        n = next(self._serial)
        out = d / f"obs{n}"
        argv = self._argv(d, command, field, str(out))
        if flag is not None:
            argv += ["--seed" if field == "seed_kmeans" else "--" + field.replace("_", "-"),
                     str(flag)]
        if config is not None:
            cfg = d / f"cfg{n}.json"
            cfg.write_text(json.dumps({field: config}))
            argv = ["--config", str(cfg), *argv]
        code, stdout, err = run_cli(capsys, *argv)
        assert code == 0, err
        return stdout, out.read_bytes() if out.exists() else None

    @pytest.fixture
    def d(self, pipeline_dir, capsys):
        d = pipeline_dir
        # One program of ~128 distinct labels in m=1024 buckets: labels
        # collide, so the sign seed decides which buckets cancel.
        for argv in (
            ["index-search", "--repo-emb", str(d / "repo.stru"),
             "--query-emb", str(d / "query.stru"), "--k", "5", "--out", str(d / "hits5.tsv")],
            ["synth", "--classes", "1", "--programs-per-class", "1", "--queries-per-class", "0",
             "--functions-per-program", "200", "--d", "8",
             "--out-repo", str(d / "wide.tsv"), "--out-query", str(d / "unused.tsv")],
            ["kmeans-train", "--corpus", str(d / "wide.tsv"), "--n-clusters", "128",
             "--iterations", "3", "--out", str(d / "wide.km")],
        ):
            code, _, err = run_cli(capsys, *argv)
            assert code == 0, err
        return d

    @pytest.mark.parametrize("field,command,value,other", PRECEDENCE_CASES)
    def test_config_value_acts_like_the_flag(self, d, capsys, field, command, value, other):
        by_config = self._observe(d, capsys, field, command, config=value)
        assert by_config == self._observe(d, capsys, field, command, flag=value)
        assert by_config != self._observe(d, capsys, field, command, flag=other)

    @pytest.mark.parametrize("field,command,value,other", PRECEDENCE_CASES)
    def test_flag_beats_config(self, d, capsys, field, command, value, other):
        both = self._observe(d, capsys, field, command, config=value, flag=other)
        assert both == self._observe(d, capsys, field, command, flag=other)
        assert both != self._observe(d, capsys, field, command, flag=value)
