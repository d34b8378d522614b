"""Any argv or ``--config`` a user can type exits 0 or 2, never with a traceback.

Each subcommand gets hostile flag values (negatives, zero, ``nan``, ``inf``,
huge integers, non-numbers) and hostile files (missing, a directory, empty,
another format, bytes that are not UTF-8, zero-norm and overflowing
embeddings) on top of a tiny valid pipeline, optionally with a config file
of wrongly typed or out-of-range values.
Exit 1 is allowed only for a loss-check that ran and reported a failure.

Every draw stays small so no example allocates or spawns much: corpora
of at most 48 functions, at most 4 workers, 64 clusters and 5 iterations.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binsketch.cli import main

HUGE = [2**63, 2**64, 10**30]


def _mostly(valid, hostile):
    """Flag text: a valid value about three draws in four, else a hostile one."""
    weighted = [*valid] * (3 * len(hostile)) + [*hostile] * len(valid)
    return st.sampled_from([str(v) for v in weighted])


def _ints(*valid):
    """An int option that sizes work: negatives, zero and junk, never huge."""
    return _mostly(valid, [-1, 0, "nan", "inf", "x", ""])


def _floats(*valid):
    return _mostly(valid, [-1.0, 0.0, 1e-308, 1e308, "nan", "inf", "-inf", "x"])


_HUGE_INTS = _mostly([0, 1, 7], [-1, *HUGE, "nan", "x"])


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """Valid inputs of every kind plus hostile ones, built by the CLI itself."""
    d = tmp_path_factory.mktemp("argv")

    def run(*argv):
        assert main([str(a) for a in argv]) == 0

    run("synth", "--classes", 2, "--programs-per-class", 2, "--queries-per-class", 1,
        "--functions-per-program", 8, "--d", 4, "--seed", 0,
        "--out-repo", d / "repo.tsv", "--out-query", d / "query.tsv",
        "--out-classes", d / "classes.tsv")
    run("kmeans-train", "--corpus", d / "repo.tsv", "--n-clusters", 4, "--iterations", 2,
        "--out", d / "model.km")
    for side in ("repo", "query"):
        run("hash", "--corpus", d / f"{side}.tsv", "--mode", "stru", "--model", d / "model.km",
            "--m", 1024, "--out", d / f"{side}.stru")
        run("hash", "--corpus", d / f"{side}.tsv", "--mode", "sem", "--out", d / f"{side}.sem")
    run("index-search", "--repo-emb", d / "repo.sem", "--query-emb", d / "query.sem",
        "--k", 3, "--out", d / "hits.tsv")
    # A zero-norm function, an all-zero program, and values whose norm overflows.
    (d / "zero.tsv").write_bytes(
        b"KHCORP1\tversion=1\td=4\n"
        b"a\ta.f0\t1\t0\t0.0 0.0 0.0 0.0\tclass_label=0\n"
        b"b\tb.f0\t1\t0\t1.0 0.0 0.0 0.0\tclass_label=0\n"
        b"b\tb.f1\t1\t0\t0.0 0.0 0.0 0.0\tclass_label=1\n"
        b"b\tb.f2\t5\t2\t0.0 1.0 0.0 0.0\tclass_label=1\n"
    )
    (d / "huge.tsv").write_bytes(
        b"KHCORP1\tversion=1\td=4\n"
        b"a\ta.f0\t1\t0\t1e300 1e300 0.0 0.0\tclass_label=0\n"
        b"a\ta.f1\t1\t0\t0.0 1.0 0.0 0.0\tclass_label=1\n"
        b"b\tb.f0\t1\t0\t1e-300 0.0 1e-300 0.0\tclass_label=0\n"
    )
    (d / "empty").write_bytes(b"")
    (d / "latin1.tsv").write_bytes(b"KHCORP1\tversion=1\td=4\np\xe9\tf\t1\t0\t1 0 0 0\n")
    (d / "subdir").mkdir()
    (d / "out").mkdir()
    return d


_INPUTS = ["repo.tsv", "query.tsv", "zero.tsv", "huge.tsv", "classes.tsv", "model.km",
           "repo.stru", "query.stru", "repo.sem", "query.sem", "hits.tsv", "empty",
           "latin1.tsv", "subdir", "missing"]
_OUTPUTS = ["out/a", "out/b", "out", "nowhere/a"]

_CONFIG_VALUES = st.sampled_from(
    [-1, 0, 1, 2, 4, 1.5, -0.5, float("nan"), float("inf"), "7", None, True, [], {}]
)
# Huge values go only to fields that size no allocation and no loop.
_CONFIG = st.one_of(
    st.none(),
    st.none(),
    st.none(),
    st.sampled_from(["missing", "empty", "subdir", "[1, 2]", "{not json", "\"text\""]),
    st.dictionaries(
        st.sampled_from(
            ["d", "n_clusters", "iterations", "m", "seed_kmeans", "seed_position",
             "seed_sign", "alpha1", "alpha2", "beta1", "beta2", "k", "unknown"]
        ),
        _CONFIG_VALUES,
        max_size=4,
    ),
    st.dictionaries(
        st.sampled_from(["m", "seed_kmeans", "seed_position", "seed_sign", "k"]),
        st.sampled_from(HUGE + [-(2**64)]),
        min_size=1,
        max_size=2,
    ),
)


def _flags(draw, options):
    """Each option in ``options`` (flag -> strategy) present or absent."""
    argv = []
    for flag, values in options.items():
        if draw(st.booleans()):
            argv += [flag, draw(values)]
    return argv


_IN = st.sampled_from(_INPUTS)
_OUT = st.one_of(st.just("out/a"), st.sampled_from(_OUTPUTS))


def _file(*right):
    """A file argument: mostly one of the ``right`` kind, else any input."""
    return st.one_of(st.sampled_from(right), st.sampled_from(right), _IN)


_CORPUS = _file("repo.tsv", "query.tsv", "zero.tsv", "huge.tsv")
_MODEL = _file("model.km")
_EMB = _file("repo.stru", "query.stru", "repo.sem", "query.sem")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(
        ["synth", "kmeans-train", "hash", "index-search", "eval", "match-eval",
         "loss-check", "bench"]
    ))
    if command == "synth":
        # Sizes are always given so the corpus stays small: at most
        # 2 classes x (2 + 1) programs x 8 functions = 48 functions.
        argv = [command,
                "--classes", draw(_ints(1, 2)),
                "--programs-per-class", draw(_ints(1, 2)),
                "--queries-per-class", draw(_ints(1)),
                "--functions-per-program", draw(_ints(1, 2, 8)),
                "--d", draw(_ints(1, 4)),
                "--out-repo", draw(_OUT), "--out-query", draw(_OUT)]
        argv += _flags(draw, {
            "--reuse": _floats(0.0, 0.5, 1.0, 1.5),
            "--noise": _floats(0.0, 0.3, 1e154),
            "--seed": _HUGE_INTS,
            "--out-classes": _OUT,
        })
    elif command == "kmeans-train":
        # Without --n-clusters the default (1024) exceeds the corpus.
        argv = [command, "--corpus", draw(_CORPUS), "--out", draw(_OUT),
                "--n-clusters", draw(_ints(1, 4, 64))]
        argv += _flags(draw, {
            "--iterations": _ints(1, 5),
            "--seed": _HUGE_INTS,
            "--sample": _HUGE_INTS,
        })
    elif command == "hash":
        argv = [command, "--corpus", draw(_CORPUS), "--out", draw(_OUT),
                "--mode", draw(st.sampled_from(["stru", "sem", "mean", "loc", "nos", "bad"]))]
        argv += _flags(draw, {
            "--model": _MODEL,
            "--m": st.sampled_from(["1024", "1000", "-1024", "0", str(2**19), *map(str, HUGE)]),
            "--seed-position": _HUGE_INTS,
            "--seed-sign": _HUGE_INTS,
            "--alpha1": _floats(0.4),
            "--alpha2": _floats(5.0),
            "--beta1": _floats(0.45),
            "--beta2": _floats(1.0),
        })
    elif command == "index-search":
        argv = [command, "--repo-emb", draw(_EMB), "--query-emb", draw(_EMB), "--out", draw(_OUT)]
        argv += _flags(draw, {
            "--k": _HUGE_INTS,
            "--workers": st.sampled_from(["-1", "0", "1", "2", "4", "nan"]),
        })
    elif command == "eval":
        argv = [command, "--results", draw(_file("hits.tsv")),
                "--class-map", draw(_file("classes.tsv"))]
        argv += _flags(draw, {"--k": _HUGE_INTS, "--repo-emb": _EMB})
    elif command == "match-eval":
        argv = [command, "--query-corpus", draw(_CORPUS), "--repo-corpus", draw(_CORPUS),
                "--model", draw(_MODEL)]
    elif command == "loss-check":
        argv = [command]
        argv += _flags(draw, {
            "--n": _ints(1, 2, 4),
            "--d": _ints(1, 3),
            "--temperature": _floats(10.0),
            "--seed": _HUGE_INTS,
            "--step": _floats(1e-4),
            "--tol": _floats(1e-3),
        })
    else:
        argv = [command, "--repo-emb", draw(_EMB)]
        argv += _flags(draw, {
            "--query-emb": _EMB,
            "--queries": _HUGE_INTS,
            "--rounds": _ints(1, 2),
        })
    if draw(st.booleans()):
        argv.insert(0, "-v")
    return argv


@settings(
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(argv=_argv(), config=_CONFIG)
def test_any_argv_and_config_exits_cleanly(files, capsys, argv, config):
    d = files
    if config is not None:
        cfg = d / "cfg.json"
        if isinstance(config, dict):
            cfg.write_text(json.dumps(config))
        elif config in ("missing", "empty", "subdir"):
            cfg = d / config
        else:
            cfg.write_text(config)
        argv = ["--config", str(cfg), *argv]
    argv = [str(d / a) if a in _INPUTS or a in _OUTPUTS else a for a in argv]
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    if code == 1:
        assert "loss-check" in argv and "status=fail" in out, err
    else:
        assert code in (0, 2), (code, err)
    if code == 2:
        assert out == ""
        assert err.strip(), "a usage error must say why"
