import json

import numpy as np
import pytest

from binsketch.cli import main
from binsketch.corpus import load_embeddings, load_structural
from binsketch.search import load_results


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

    def test_zero_k_is_usage_error(self, pipeline_dir, capsys):
        code, _, err = run_cli(
            capsys, "index-search",
            "--repo-emb", str(pipeline_dir / "repo.stru"),
            "--query-emb", str(pipeline_dir / "query.stru"),
            "--k", "0",
            "--out", str(pipeline_dir / "x.tsv"),
        )
        assert code == 2

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
