"""Self-test of the benchmark on the ``tiny`` workload (a few seconds).

    python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import pipeline  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.WORKLOADS["tiny"]


def _declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return [m["name"] for m in json.load(fh)[section]]


def _run(capsys, trace):
    assert run.main(["--workload", "tiny", "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result["metrics"]


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_a_unit(capsys, trace, section):
    metrics = _run(capsys, trace)
    for name in _declared(section):
        assert name in metrics, name
        assert isinstance(metrics[name]["value"], (int, float)), name
        assert metrics[name]["unit"], name


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("inputs"))
    workloads.setup(TINY, 5, path)
    return path


def test_traced_outputs_are_byte_identical(inputs, tmp_path):
    plain = pipeline.run(TINY, 5, inputs, str(tmp_path / "plain"))
    tracer = spans.Tracer()
    with tracer.installed():
        traced = pipeline.run(TINY, 5, inputs, str(tmp_path / "traced"), tracer=tracer)
    assert [o.error for o in plain + traced] == [None] * (len(plain) + len(traced))
    for name, path in pipeline.output_files(str(tmp_path / "plain")).items():
        with open(path, "rb") as a, open(tmp_path / "traced" / name, "rb") as b:
            assert a.read() == b.read(), name
    assert not tracer.missing and not tracer.counter_errors
    summary = spans.summarize(tracer.export())
    for name in ("corpus.load_corpus", "kmeans.classify", "structural.jaccard_many",
                 "search.search", "cli.index-search"):
        assert summary[name]["calls"] > 0, name


def test_pool_thread_spans_have_the_waiting_span_as_parent(inputs, tmp_path):
    assert TINY.workers > 1
    tracer = spans.Tracer()
    with tracer.installed():
        pipeline.run(TINY, 5, inputs, str(tmp_path), tracer=tracer)
    exported = tracer.export()
    searches = [s for s in exported if s["name"] == "search.search"]
    assert searches
    assert {exported[s["parent"]]["name"] for s in searches} == {"search.batch_search"}
    for s in exported:
        assert s["end"] >= s["start"]


def test_missing_target_and_broken_counter_do_not_stop_the_run(inputs, tmp_path):
    from binsketch import search

    def broken(args, kwargs, result):
        raise KeyError("gone")

    original = search.search
    targets = spans.TARGETS + (
        ("binsketch.search", "renamed_away", None),
        ("binsketch.metrics", "format_report", broken),
    )
    tracer = spans.Tracer()
    with tracer.installed(targets):
        outcomes = pipeline.run(TINY, 5, inputs, str(tmp_path), tracer=tracer)
    assert all(o.error is None for o in outcomes)
    assert tracer.missing == ["search.renamed_away"]
    assert tracer.counter_errors and tracer.counter_errors[0].startswith("metrics.format_report")
    assert search.search is original


def test_self_time_subtracts_the_union_of_children():
    spans_ = [
        {"name": "a", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "b", "start": 1.0, "end": 5.0, "parent": 0},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0},
    ]
    summary = spans.summarize(spans_)
    assert summary["a"]["self_s"] == pytest.approx(5.0)
    assert summary["b"] == {"calls": 2, "s": pytest.approx(7.0), "self_s": pytest.approx(7.0)}


def test_scan_generator_prefixes_ids_and_rejects_duplicates():
    repository, queries = workloads.compose(TINY, 7)
    ids = [p.program_id for p in repository + queries]
    assert len(ids) == len(set(ids)) == TINY.repo_programs + TINY.query_programs
    prefixes = {pid.split(".")[0] for pid in ids}
    assert prefixes == {part.prefix for part in TINY.parts}
    labels = {part.prefix: set() for part in TINY.parts}
    for prog in repository:
        labels[prog.program_id.split(".")[0]].update(fn.class_label for fn in prog.functions)
    first, second = labels.values()
    assert not first & second
    with pytest.raises(ValueError, match="duplicate program id"):
        workloads._reject_duplicates(repository[:1] * 2)


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
