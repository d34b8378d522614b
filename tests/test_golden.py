"""Exact bytes of small fixed files written through the public writers.

The binary containers and the results TSV are an on-disk contract: a
refactor of the code behind them must not move a single byte. Each case
also checks that loading the golden bytes and saving them again writes the
same bytes back. The ``hash`` cases pin what both sketch modes write for a
fixed corpus and model, and the ``synth`` case what a fixed synthetic corpus
saves to, the bytes every generated benchmark input starts from.
"""

import hashlib

import numpy as np
import pytest

from binsketch.corpus import (
    SemanticEmbedding,
    StructuralEmbedding,
    load_semantic,
    load_structural,
    save_corpus,
    save_semantic,
    save_structural,
)
from binsketch.cli import main
from binsketch.kmeans import CentroidModel, load_model, save_model
from binsketch.search import SearchResult, load_results, save_results
from binsketch.synth import SynthConfig, generate


def _bits(m, on):
    bits = np.zeros(m, dtype=np.uint8)
    bits[list(on)] = 1
    return StructuralEmbedding.from_bits(bits)


# Hex groups: magic, u32 param, u64 count, then per record u32 id length,
# UTF-8 id, payload. m=70 exercises a partial last byte and a partial last word.
STRUCTURAL = [("alpha", _bits(70, [0, 3, 69])), ("β", _bits(70, [])), ("", _bits(70, [8]))]
STRUCTURAL_HEX = (
    "4b485354525531" "46000000" "0300000000000000"
    "05000000" "616c706861" "090000000000000020"
    "02000000" "ceb2" "000000000000000000"
    "00000000" "000100000000000000"
)

SEMANTIC = [
    ("p0", SemanticEmbedding(np.array([1.0, -0.5, 0.25], dtype=np.float32))),
    ("p1", SemanticEmbedding(np.zeros(3, dtype=np.float32))),
]
SEMANTIC_HEX = (
    "4b4853454d31" "03000000" "0200000000000000"
    "02000000" "7030" "0000803f" "000000bf" "0000803e"
    "02000000" "7031" "00000000" "00000000" "00000000"
)

MODEL = CentroidModel(np.array([[1.0, 0.0], [0.0, 1.0], [0.6, 0.8]], dtype=np.float32))
MODEL_HEX = (
    "4b484b4d31" "02000000" "0300000000000000"
    "01000000" "30" "0000803f" "00000000"
    "01000000" "31" "00000000" "0000803f"
    "01000000" "32" "9a99193f" "cdcc4c3f"
)

RESULTS = [
    ("q0", SearchResult(["a", "b", "c"], np.array([0, 1]), np.array([1.0, 0.25]))),
    ("q1", SearchResult(["a", "b", "c"], np.array([2]), np.array([1 / 3]))),
]
RESULTS_BYTES = b"q0\t1\ta\t1.000000\nq0\t2\tb\t0.250000\nq1\t1\tc\t0.333333\n"


def _result(pairs):
    """A result whose hits are the (program_id, score) pairs, in order."""
    ids = [pid for pid, _ in pairs]
    return SearchResult(ids, np.arange(len(ids)), np.array([score for _, score in pairs]))


def _reload_results(path, out):
    loaded = load_results(path)
    save_results(
        [(qid, _result(rows)) for qid, rows in loaded],
        out,
    )


CASES = {
    "structural": (
        lambda path: save_structural(STRUCTURAL, path),
        lambda path, out: save_structural(load_structural(path), out, m=70),
        bytes.fromhex(STRUCTURAL_HEX),
    ),
    "semantic": (
        lambda path: save_semantic(SEMANTIC, path),
        lambda path, out: save_semantic(load_semantic(path), out, d=3),
        bytes.fromhex(SEMANTIC_HEX),
    ),
    "model": (
        lambda path: save_model(MODEL, path),
        lambda path, out: save_model(load_model(path), out),
        bytes.fromhex(MODEL_HEX),
    ),
    "results": (
        lambda path: save_results(RESULTS, path),
        _reload_results,
        RESULTS_BYTES,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_writer_bytes_are_pinned(tmp_path, name):
    save, _, expected = CASES[name]
    path = tmp_path / name
    save(str(path))
    assert path.read_bytes() == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_load_save_round_trip_is_byte_identical(tmp_path, name):
    _, reload, expected = CASES[name]
    src, out = tmp_path / "golden", tmp_path / "again"
    src.write_bytes(expected)
    reload(str(src), str(out))
    assert out.read_bytes() == expected


# `hash` over a fixed corpus with no zero-norm function. Labels under MODEL4:
# p0 -> {0, 0, 2} (a repeated label), p1 -> {3} (one function), p2 -> {1, 2, 3, 1}.
HASH_CORPUS = """KHCORP1\tversion=1\td=3
p0\tp0.f0\t10\t1\t1.0 0.1 0.0
p0\tp0.f1\t200\t0\t0.9 0.0 0.05
p0\tp0.f2\t5\t3\t0.0 0.0 2.0
p1\tp1.f0\t40\t2\t0.5 0.7 0.0
p2\tp2.f0\t1\t0\t0.0 1.5 0.2
p2\tp2.f1\t12\t7\t0.2 -0.3 1.0
p2\tp2.f2\t77\t1\t0.59 0.81 0.0
p2\tp2.f3\t300\t40\t-1.0 0.5 0.25
"""
MODEL4 = CentroidModel(
    np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0.6, 0.8, 0]], dtype=np.float32)
)
# Set bits per program at m=1024 with the default seeds: label 0 -> 431,
# 1 -> 32, 2 -> 718, 3 -> 193.
HASH_STRU_BITS = [("p0", [431, 718]), ("p1", [193]), ("p2", [32, 193, 718])]
HASH_SEM_HEX = (
    "4b4853454d31" "03000000" "0300000000000000"
    "02000000" "7030" "3cc6db3f" "2efba93d" "6d2b873f"
    "02000000" "7031" "fc1af13f" "17c62840" "00000000"
    "02000000" "7032" "e0b592bf" "2e5fc63f" "f616b53f"
)


def _stru_bytes(m, rows):
    out = bytearray(b"KHSTRU1" + m.to_bytes(4, "little") + len(rows).to_bytes(8, "little"))
    for pid, on in rows:
        payload = bytearray(m // 8)
        for bit in on:
            payload[bit >> 3] |= 1 << (bit & 7)
        out += len(pid).to_bytes(4, "little") + pid.encode() + payload
    return bytes(out)


@pytest.mark.parametrize(
    "mode, expected",
    [("stru", _stru_bytes(1024, HASH_STRU_BITS)), ("sem", bytes.fromhex(HASH_SEM_HEX))],
)
def test_hash_writes_pinned_bytes(tmp_path, capsys, mode, expected):
    corpus, model, out = tmp_path / "c.tsv", tmp_path / "m.km", tmp_path / "out"
    corpus.write_text(HASH_CORPUS)
    save_model(MODEL4, str(model))
    argv = ["hash", "--corpus", str(corpus), "--mode", mode, "--out", str(out)]
    if mode == "stru":
        argv += ["--model", str(model), "--m", "1024"]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"programs=3\nmode={mode}\n"
    assert out.read_bytes() == expected


# SHA-256 of the repository and query corpora of SYNTH, saved with save_corpus.
SYNTH = SynthConfig(
    classes=3, programs_per_class=2, queries_per_class=1, functions_per_program=6, d=4,
    reuse=0.5, noise=0.45,
)
SYNTH_SHA256 = {
    "repo": "bbd04016c8897496af36bd89b27f6fc8bd402a24bbf16516426a73ff43f9afdc",
    "query": "4d4cfd222aab6b6e3b65a5db029eba9fa59fc1f7aa7dd14ad2bd293bc8ac5e11",
}


def test_synth_corpora_are_pinned(tmp_path):
    for name, programs in zip(("repo", "query"), generate(SYNTH, seed=7)):
        path = tmp_path / f"{name}.tsv"
        save_corpus(programs, str(path))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == SYNTH_SHA256[name], name
