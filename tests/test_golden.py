"""Exact bytes of small fixed files written through the public writers.

The binary containers and the results TSV are an on-disk contract: a
refactor of the code behind them must not move a single byte. Each case
also checks that loading the golden bytes and saving them again writes the
same bytes back.
"""

import numpy as np
import pytest

from binsketch.corpus import (
    SemanticEmbedding,
    StructuralEmbedding,
    load_semantic,
    load_structural,
    save_semantic,
    save_structural,
)
from binsketch.kmeans import CentroidModel, load_model, save_model
from binsketch.search import Hit, SearchResult, load_results, save_results


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
    ("q0", SearchResult([Hit("a", 1.0), Hit("b", 0.25)])),
    ("q1", SearchResult([Hit("c", 1 / 3)])),
]
RESULTS_BYTES = b"q0\t1\ta\t1.000000\nq0\t2\tb\t0.250000\nq1\t1\tc\t0.333333\n"


def _reload_results(path, out):
    loaded = load_results(path)
    save_results(
        [(qid, SearchResult([Hit(pid, score) for pid, score in rows])) for qid, rows in loaded],
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
