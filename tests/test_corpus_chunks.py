"""The text readers across chunk boundaries.

``corpus._CHUNK_BYTES`` is patched down so that a file of a few dozen bytes
spans many chunks. Every error must still name its absolute line with the
message a one-chunk file gives.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from binsketch import corpus
from binsketch.corpus import FunctionRecord, ProgramRecord, load_corpus, save_corpus
from binsketch.errors import ParseError
from binsketch.metrics import load_class_map
from binsketch.search import load_results

HEADER = "KHCORP1\tversion=1\td=2"


def _line(program, function, loc=3, emb="0.5 -1.25", extras=()):
    return "\t".join([program, function, str(loc), "1", emb, *extras])


def _valid_lines(n=16):
    """n function lines of programs p0, p1, ... with three functions each."""
    return [
        _line(f"p{i // 3}", f"f{i}", extras=(f"class_label={i}", f"class_id=c{i // 3}"))
        for i in range(n)
    ]


def _write(path, lines, raw=None):
    path.write_bytes(raw if raw is not None else ("\n".join([HEADER, *lines]) + "\n").encode())
    return str(path)


def _chunk_starts(path):
    """The first line of each chunk; a stray 0xff byte is read as "?", which
    keeps every line's length and so every chunk boundary."""
    probe = f"{path}.probe"
    with open(path, "rb") as src, open(probe, "wb") as dst:
        dst.write(src.read().replace(b"\xff", b"?"))
    return [first for first, _ in corpus.read_line_chunks(probe)]


@pytest.fixture
def chunk_bytes(monkeypatch):
    def set_size(size):
        monkeypatch.setattr(corpus, "_CHUNK_BYTES", size)

    return set_size


def _in_later_chunk(path, lineno):
    """The chunk holding ``lineno`` is not the first and ``lineno`` is not its
    first line: the defect sits part-way through a later chunk."""
    starts = _chunk_starts(path)
    assert len(starts) > 3
    assert lineno > starts[1] and lineno not in starts
    return starts


# Each defect goes on line 11 (the 10th function line), mid-way through a
# later chunk of about four lines; the message is what a one-chunk file gives.
DEFECTS = {
    "bad float": (_line("p3", "f9", emb="0.5 oops"), "embedding value is not a float"),
    "token count": (_line("p3", "f9", emb="0.5 1 2"), "expected 2 embedding values, got 3"),
    "nan": (_line("p3", "f9", emb="0.5 nan"), "function 'f9': embedding has non-finite values"),
    "negative loc": (_line("p3", "f9", loc=-1), "function 'f9': loc must be >= 0"),
    "bad class_label": (
        _line("p3", "f9", extras=("class_label=x", "class_id=c3")),
        "class_label is not an integer: 'x'",
    ),
    "negative class_label": (
        _line("p3", "f9", extras=("class_label=-2", "class_id=c3")),
        "function 'f9': class_label must be >= 0",
    ),
}


@pytest.mark.parametrize("defect", sorted(DEFECTS))
def test_defect_in_a_later_chunk_names_its_line(tmp_path, chunk_bytes, defect):
    bad, message = DEFECTS[defect]
    lines = _valid_lines()
    lines[9] = bad
    whole = _write(tmp_path / "whole.tsv", lines)
    with pytest.raises(ParseError) as one_chunk:
        load_corpus(whole)
    assert str(one_chunk.value) == f"line 11: {message}"
    chunk_bytes(150)
    path = _write(tmp_path / "bad.tsv", lines)
    _in_later_chunk(path, 11)
    with pytest.raises(ParseError) as chunked:
        load_corpus(path)
    assert str(chunked.value) == str(one_chunk.value)
    assert chunked.value.line == 11


def test_invalid_utf8_in_a_later_chunk_names_its_line(tmp_path, chunk_bytes):
    lines = _valid_lines()
    raw = ("\n".join([HEADER, *lines]) + "\n").encode()
    raw = raw.replace(b"\tf9\t", b"\tf\xff9\t")
    chunk_bytes(150)
    path = _write(tmp_path / "bad.tsv", None, raw)
    _in_later_chunk(path, 11)
    with pytest.raises(ParseError, match="^line 11: not valid UTF-8$"):
        load_corpus(path)


def test_split_run_across_a_chunk_boundary(tmp_path, chunk_bytes):
    lines = _valid_lines(9)
    lines.append(_line("p0", "f9", extras=("class_label=9", "class_id=c0")))
    chunk_bytes(1)  # one line per chunk: line 11 starts a chunk of its own
    path = _write(tmp_path / "bad.tsv", lines)
    assert _chunk_starts(path) == list(range(1, 12))
    with pytest.raises(ParseError, match="^line 11: program 'p0' appears in two separate runs$"):
        load_corpus(path)


def test_class_id_conflict_across_a_chunk_boundary(tmp_path, chunk_bytes):
    lines = _valid_lines(9)
    lines[7] = _line("p2", "f7", extras=("class_label=7", "class_id=other"))
    chunk_bytes(1)
    path = _write(tmp_path / "bad.tsv", lines)
    assert 9 in _chunk_starts(path)
    with pytest.raises(ParseError, match="^line 9: program 'p2' has conflicting class_id values$"):
        load_corpus(path)


def test_token_counts_that_cancel_in_a_chunk_name_the_first_line(tmp_path, chunk_bytes):
    # d+1 tokens on line 10 and d-1 on line 12: the chunk holds the right
    # total, so only a per-line count finds them.
    lines = _valid_lines()
    lines[8] = _line("p2", "f8", emb="0.5 1 2")
    lines[10] = _line("p3", "f10", emb="0.5")
    chunk_bytes(150)
    path = _write(tmp_path / "bad.tsv", lines)
    starts = _in_later_chunk(path, 10)
    chunk = max(s for s in starts if s <= 10)
    assert all(s <= chunk or s > 12 for s in starts)  # lines 10 and 12 share a chunk
    with pytest.raises(ParseError, match="^line 10: expected 2 embedding values, got 3$"):
        load_corpus(path)


def test_first_error_in_file_order_across_chunks(tmp_path, chunk_bytes):
    # A parse error in an earlier chunk is reported before bad bytes in a
    # later one; a one-chunk file reports the bytes (it is decoded first).
    lines = _valid_lines()
    lines[1] = _line("p0", "f1", emb="0.5 oops")
    raw = ("\n".join([HEADER, *lines]) + "\n").encode().replace(b"\tf12\t", b"\tf\xff12\t")
    path = _write(tmp_path / "bad.tsv", None, raw)
    with pytest.raises(ParseError, match="^line 14: not valid UTF-8$"):
        load_corpus(path)
    chunk_bytes(150)
    with pytest.raises(ParseError, match="^line 3: embedding value is not a float$"):
        load_corpus(path)


def test_utf8_error_wins_within_its_chunk(tmp_path, chunk_bytes):
    lines = _valid_lines()
    lines[8] = _line("p2", "f8", emb="0.5 oops")
    raw = ("\n".join([HEADER, *lines]) + "\n").encode().replace(b"\tf9\t", b"\tf\xff9\t")
    chunk_bytes(150)
    path = _write(tmp_path / "bad.tsv", None, raw)
    starts = _chunk_starts(path)
    assert max(s for s in starts if s <= 11) <= 10  # lines 10 and 11 share a chunk
    with pytest.raises(ParseError, match="^line 11: not valid UTF-8$"):
        load_corpus(path)


_FLOATS = st.floats(allow_nan=False, allow_infinity=False, width=64)


@st.composite
def _corpora(draw):
    d = draw(st.integers(min_value=1, max_value=3))
    labelled = draw(st.booleans())
    programs = []
    for p in range(draw(st.integers(min_value=0, max_value=6))):
        functions = [
            FunctionRecord(
                function_id=f"p{p}.f{f}",
                embedding=np.array(draw(st.lists(_FLOATS, min_size=d, max_size=d))),
                loc=draw(st.integers(min_value=0, max_value=10**6)),
                nos=draw(st.integers(min_value=0, max_value=10**4)),
                class_label=draw(st.integers(min_value=0, max_value=100)) if labelled else None,
            )
            for f in range(draw(st.integers(min_value=1, max_value=5)))
        ]
        class_id = draw(st.one_of(st.none(), st.sampled_from(["A", "B"])))
        programs.append(ProgramRecord(f"p{p}", functions, class_id=class_id))
    return d, programs


@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(corpus_and_d=_corpora(), size=st.integers(min_value=1, max_value=400))
def test_round_trip_across_chunks(tmp_path_factory, monkeypatch, corpus_and_d, size):
    d, programs = corpus_and_d
    monkeypatch.setattr(corpus, "_CHUNK_BYTES", size)
    path = str(tmp_path_factory.mktemp("chunks") / "corpus.tsv")
    save_corpus(programs, path, d=d)
    assert load_corpus(path) == programs


def test_results_and_class_map_across_chunks(tmp_path, chunk_bytes):
    hits = tmp_path / "hits.tsv"
    hits.write_bytes(b"".join(b"q%d\t%d\tr%d\t0.500000\n" % (q, r, r) for q in range(4)
                              for r in range(1, 4)))
    classes = tmp_path / "classes.tsv"
    classes.write_bytes(b"".join(b"r%d\tc%d\n" % (i, i % 2) for i in range(12)))
    expected = load_results(str(hits)), load_class_map(str(classes))
    chunk_bytes(10)
    assert len(_chunk_starts(str(hits))) > 3 and len(_chunk_starts(str(classes))) > 3
    assert (load_results(str(hits)), load_class_map(str(classes))) == expected
    classes.write_bytes(classes.read_bytes().replace(b"r9\t", b"r\xff9\t"))
    with pytest.raises(ParseError, match="^line 10: not valid UTF-8$"):
        load_class_map(str(classes))
    hits.write_bytes(hits.read_bytes().replace(b"q2\t2\t", b"q2\t7\t"))
    with pytest.raises(ParseError, match="^line 8: rank 7 out of sequence$"):
        load_results(str(hits))
