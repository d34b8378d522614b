import math
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binsketch.corpus import (
    STRUCTURAL,
    FunctionRecord,
    ProgramRecord,
    SemanticEmbedding,
    StructuralEmbedding,
    load_corpus,
    load_embeddings,
    load_semantic,
    load_structural,
    save_corpus,
    save_semantic,
    save_structural,
)
from binsketch.errors import FormatError, ParseError, ValidationError
from binsketch.kmeans import load_model

from conftest import make_corpus, make_program


class TestFunctionRecord:
    def test_rejects_non_finite(self):
        with pytest.raises(ValidationError):
            FunctionRecord("f", np.array([1.0, np.nan]), loc=1, nos=0)

    def test_rejects_negative_loc(self):
        with pytest.raises(ValidationError):
            FunctionRecord("f", np.array([1.0]), loc=-1, nos=0)

    def test_rejects_2d_embedding(self):
        with pytest.raises(ValidationError):
            FunctionRecord("f", np.zeros((2, 2)), loc=0, nos=0)

    def test_equality_is_field_for_field(self):
        a = FunctionRecord("f", np.array([1.0, 2.0]), loc=3, nos=1, class_label=7)
        b = FunctionRecord("f", np.array([1.0, 2.0]), loc=3, nos=1, class_label=7)
        c = FunctionRecord("f", np.array([1.0, 2.5]), loc=3, nos=1, class_label=7)
        assert a == b
        assert a != c


class TestCorpusFormat:
    def test_round_trip_equality(self, rng, tmp_path):
        programs = [
            make_program(rng, "alpha", class_id="C0", with_labels=True),
            make_program(rng, "beta"),
            make_program(rng, "gamma", class_id="C1"),
        ]
        path = tmp_path / "corpus.tsv"
        save_corpus(programs, str(path))
        assert load_corpus(str(path)) == programs

    def test_second_save_is_byte_identical(self, rng, tmp_path):
        programs = make_corpus(rng, n_programs=4, with_labels=True)
        p1, p2 = tmp_path / "one.tsv", tmp_path / "two.tsv"
        save_corpus(programs, str(p1))
        save_corpus(load_corpus(str(p1)), str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    def test_awkward_floats_survive(self, tmp_path):
        values = [0.1, -1.5e16, 5e-324, 1.7976931348623157e308, -0.0, 3.141592653589793]
        prog = ProgramRecord(
            "p", [FunctionRecord("p.f0", np.array(values), loc=0, nos=0)]
        )
        path = tmp_path / "c.tsv"
        save_corpus([prog], str(path))
        loaded = load_corpus(str(path))
        assert np.array_equal(loaded[0].functions[0].embedding, np.array(values))

    def test_header_line(self, rng, tmp_path):
        path = tmp_path / "c.tsv"
        save_corpus(make_corpus(rng, d=6), str(path))
        first = path.read_bytes().split(b"\n")[0]
        assert first == b"KHCORP1\tversion=1\td=6"

    def test_empty_corpus_round_trip(self, tmp_path):
        path = tmp_path / "empty.tsv"
        save_corpus([], str(path), d=4)
        assert load_corpus(str(path)) == []

    def test_empty_corpus_needs_dimension(self, tmp_path):
        with pytest.raises(ValidationError):
            save_corpus([], str(tmp_path / "x.tsv"))

    def test_empty_program_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            save_corpus([ProgramRecord("p")], str(tmp_path / "x.tsv"), d=3)

    @pytest.mark.parametrize(
        "dims, declared, match",
        [((3, 4), None, "'p1.f0' has d=4, expected 3"), ((3, 3), 5, "declared d=5")],
        ids=["mixed", "declared"],
    )
    def test_dimension_mismatch_rejected_on_save(self, rng, tmp_path, dims, declared, match):
        programs = [make_program(rng, f"p{i}", n_functions=2, d=d) for i, d in enumerate(dims)]
        path = tmp_path / "x.tsv"
        with pytest.raises(ValidationError, match=match):
            save_corpus(programs, str(path), d=declared)
        assert not path.exists()

    def test_duplicate_program_id_rejected_on_save(self, rng, tmp_path):
        programs = [make_program(rng, "same"), make_program(rng, "same")]
        with pytest.raises(ValidationError):
            save_corpus(programs, str(tmp_path / "x.tsv"))

    @pytest.mark.parametrize(
        "lines",
        [
            ["KHCORP2\tversion=1\td=2"],
            ["KHCORP1\tversion=2\td=2"],
            ["KHCORP1\tversion=1\td=two"],
            ["KHCORP1\tversion=1\td=2", "p\tf\t1\t0"],
            ["KHCORP1\tversion=1\td=2", "p\tf\tx\t0\t1.0 2.0"],
            ["KHCORP1\tversion=1\td=2", "p\tf\t1\t0\t1.0"],
            ["KHCORP1\tversion=1\td=2", "p\tf\t1\t0\t1.0 nan"],
            ["KHCORP1\tversion=1\td=2", "p\tf\t-1\t0\t1.0 2.0"],
            ["KHCORP1\tversion=1\td=2", "p\tf\t1\t0\t1.0 2.0\tcolor=red"],
            ["KHCORP1\tversion=1\td=2", "p\tf\t1\t0\t1.0 2.0", ""],
        ],
    )
    def test_malformed_lines_raise_parse_error(self, tmp_path, lines):
        path = tmp_path / "bad.tsv"
        path.write_bytes(("\n".join(lines) + "\n").encode())
        with pytest.raises(ParseError):
            load_corpus(str(path))

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_bytes(b"KHCORP1\tversion=1\td=1\np\tf\t1\t0\t1.0\np\tg\t1\t0\toops\n")
        with pytest.raises(ParseError, match="line 3"):
            load_corpus(str(path))

    def test_split_program_runs_rejected(self, tmp_path):
        body = (
            "KHCORP1\tversion=1\td=1\n"
            "a\tf0\t1\t0\t1.0\n"
            "b\tf0\t1\t0\t1.0\n"
            "a\tf1\t1\t0\t1.0\n"
        )
        path = tmp_path / "bad.tsv"
        path.write_bytes(body.encode())
        with pytest.raises(ParseError, match="two separate runs"):
            load_corpus(str(path))

    def test_conflicting_class_id_rejected(self, tmp_path):
        body = (
            "KHCORP1\tversion=1\td=1\n"
            "a\tf0\t1\t0\t1.0\tclass_id=X\n"
            "a\tf1\t1\t0\t1.0\tclass_id=Y\n"
        )
        path = tmp_path / "bad.tsv"
        path.write_bytes(body.encode())
        with pytest.raises(ParseError, match="conflicting class_id"):
            load_corpus(str(path))


def _payload(emb):
    """The KHSTRU1 payload bytes of one sketch."""
    return STRUCTURAL.encode(emb.m, emb.words[np.newaxis])[0].tobytes()


class TestStructuralEmbedding:
    def test_bit_positions_map_to_bytes(self):
        bits = np.zeros(1024, dtype=np.uint8)
        bits[13] = 1
        emb = StructuralEmbedding.from_bits(bits)
        raw = _payload(emb)
        assert raw[1] == 1 << 5  # bit 13 -> byte 13>>3, position 13&7
        assert sum(raw) == 1 << 5

    def test_m_1024_packs_to_128_bytes(self):
        emb = StructuralEmbedding.from_bits(np.zeros(1024, dtype=np.uint8))
        assert len(_payload(emb)) == 128
        assert emb.popcount() == 0

    def test_bits_round_trip(self, rng):
        bits = (rng.random(2048) < 0.3).astype(np.uint8)
        emb = StructuralEmbedding.from_bits(bits)
        assert np.array_equal(emb.bits(), bits)
        assert emb.popcount() == int(bits.sum())

    def test_from_bytes_inverts_to_bytes(self, rng):
        bits = (rng.random(4096) < 0.5).astype(np.uint8)
        emb = StructuralEmbedding.from_bits(bits)
        raw = np.frombuffer(_payload(emb), dtype=np.uint8)[np.newaxis]
        again = StructuralEmbedding(STRUCTURAL.decode("x.stru", emb.m, ["p"], raw)[0], emb.m)
        assert again == emb

    def test_word_count_must_match_m(self):
        with pytest.raises(ValidationError):
            StructuralEmbedding(np.zeros(3, dtype=np.uint64), 1024)


class TestBinaryContainers:
    def _structural_entries(self, rng, n=5, m=1024):
        return [
            (f"p{i}", StructuralEmbedding.from_bits((rng.random(m) < 0.2).astype(np.uint8)))
            for i in range(n)
        ]

    def test_structural_round_trip(self, rng, tmp_path):
        entries = self._structural_entries(rng)
        path = tmp_path / "repo.stru"
        save_structural(entries, str(path))
        assert load_structural(str(path)) == entries
        assert path.read_bytes()[:7] == b"KHSTRU1"

    def test_structural_empty_file(self, tmp_path):
        path = tmp_path / "empty.stru"
        save_structural([], str(path), m=2048)
        assert load_structural(str(path)) == []

    def test_structural_mixed_m_rejected(self, rng, tmp_path):
        entries = [
            ("a", StructuralEmbedding.from_bits(np.zeros(1024, dtype=np.uint8))),
            ("b", StructuralEmbedding.from_bits(np.zeros(2048, dtype=np.uint8))),
        ]
        with pytest.raises(ValidationError):
            save_structural(entries, str(tmp_path / "x.stru"))

    @pytest.mark.parametrize("declare", [False, True])
    @pytest.mark.parametrize("kind", ["stru", "sem"])
    def test_entry_of_the_other_kind_rejected(self, rng, tmp_path, kind, declare):
        stru = self._structural_entries(rng, n=1)[0][1]
        sem = SemanticEmbedding(np.ones(3, dtype=np.float32))
        if kind == "stru":
            save, own, other, declared = save_structural, stru, sem, {"m": stru.m}
        else:
            save, own, other, declared = save_semantic, sem, stru, {"d": sem.d}
        path = tmp_path / "x.bin"
        for entries in ([("a", other)], [("b", own), ("a", other)]):
            with pytest.raises(ValidationError, match="entry 'a' ") as err:
                save(entries, str(path), **(declared if declare else {}))
            assert "None" not in str(err.value)
            assert not path.exists()

    def test_structural_truncation_detected(self, rng, tmp_path):
        path = tmp_path / "repo.stru"
        save_structural(self._structural_entries(rng), str(path))
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(FormatError, match="truncated"):
            load_structural(str(path))

    def test_structural_trailing_garbage_detected(self, rng, tmp_path):
        path = tmp_path / "repo.stru"
        save_structural(self._structural_entries(rng), str(path))
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError, match="trailing"):
            load_structural(str(path))

    def test_structural_set_padding_bits_rejected(self, tmp_path):
        # m = 100 fills 12.5 bytes: bits 100-103, the high nibble of the last
        # byte, are padding that the writer leaves zero. A reader that cleared
        # them would load a file that load -> save does not reproduce.
        path = tmp_path / "pad.stru"
        ones = StructuralEmbedding.from_bits(np.ones(100, dtype=np.uint8))
        save_structural([("p", ones)], str(path))
        raw = bytearray(path.read_bytes())
        assert raw[-1] == 0x0F
        raw[-1] = 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match=re.escape(str(path)) + ".*padding bits"):
            load_structural(str(path))

    def test_semantic_round_trip(self, rng, tmp_path):
        entries = [
            (f"p{i}", SemanticEmbedding(rng.standard_normal(8).astype(np.float32)))
            for i in range(4)
        ]
        path = tmp_path / "repo.sem"
        save_semantic(entries, str(path))
        assert load_semantic(str(path)) == entries
        assert path.read_bytes()[:6] == b"KHSEM1"

    def test_semantic_zero_vector_marked_degenerate(self, tmp_path):
        path = tmp_path / "repo.sem"
        save_semantic([("z", SemanticEmbedding(np.zeros(4, dtype=np.float32)))], str(path))
        (_, loaded), = load_semantic(str(path))
        assert not loaded.values.any()
        assert loaded == SemanticEmbedding(np.zeros(4, dtype=np.float32))

    def test_semantic_bad_magic(self, tmp_path):
        path = tmp_path / "x.sem"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
        with pytest.raises(FormatError, match="magic"):
            load_semantic(str(path))

    def test_load_embeddings_sniffs_kind(self, rng, tmp_path):
        spath, mpath = tmp_path / "a.stru", tmp_path / "b.sem"
        save_structural(self._structural_entries(rng, n=2), str(spath))
        save_semantic([("p", SemanticEmbedding(np.ones(3, dtype=np.float32)))], str(mpath))
        assert load_embeddings(str(spath))[0] == "structural"
        assert load_embeddings(str(mpath))[0] == "semantic"
        bad = tmp_path / "bad.bin"
        bad.write_bytes(b"WHATEVER")
        with pytest.raises(FormatError):
            load_embeddings(str(bad))


@pytest.mark.parametrize(
    "magic, load",
    [(b"KHSTRU1", load_structural), (b"KHSEM1", load_semantic), (b"KHKM1", load_model)],
)
def test_record_count_beyond_file_size_is_truncation(tmp_path, magic, load):
    path = tmp_path / "huge.bin"
    path.write_bytes(magic + struct.pack("<IQ", 32, 1 << 40) + b"\x00" * 64)
    with pytest.raises(FormatError, match="truncated"):
        load(str(path))


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_corpus_round_trip_property(tmp_path_factory, data):
    d = data.draw(st.integers(min_value=1, max_value=5))
    n_programs = data.draw(st.integers(min_value=0, max_value=4))
    programs = []
    for p in range(n_programs):
        n_fns = data.draw(st.integers(min_value=1, max_value=3))
        functions = []
        for f in range(n_fns):
            emb = data.draw(
                st.lists(
                    st.floats(allow_nan=False, allow_infinity=False, width=64),
                    min_size=d,
                    max_size=d,
                )
            )
            functions.append(
                FunctionRecord(
                    function_id=f"p{p}.f{f}",
                    embedding=np.array(emb),
                    loc=data.draw(st.integers(min_value=0, max_value=10**6)),
                    nos=data.draw(st.integers(min_value=0, max_value=10**4)),
                    class_label=data.draw(
                        st.one_of(st.none(), st.integers(min_value=0, max_value=100))
                    ),
                )
            )
        class_id = data.draw(st.one_of(st.none(), st.just(f"cls{p % 2}")))
        programs.append(ProgramRecord(f"p{p}", functions, class_id=class_id))
    path = tmp_path_factory.mktemp("prop") / "corpus.tsv"
    save_corpus(programs, str(path), d=d)
    assert load_corpus(str(path)) == programs


# Tokens whose parse a hand-written float scanner could get wrong: Python's
# float() accepts underscores between digits, surrounding whitespace, other
# Unicode digits and the spelled-out infinities, and rejects hex and doubled
# underscores. The corpus reader must accept and reject exactly what it does.
_AWKWARD_TOKENS = ["1_0", "1.5\r", "\xa02", "١٢", "Infinity", "1e400", "0x10", "", "1__0", "-0.0"]


@settings(max_examples=150, deadline=None)
@given(
    st.one_of(
        st.sampled_from(_AWKWARD_TOKENS),
        st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\t\n "),
                max_size=8),
        st.floats(allow_nan=False, allow_infinity=False).map(repr),
    )
)
def test_embedding_token_parses_as_python_float(tmp_path_factory, token):
    path = tmp_path_factory.mktemp("token") / "corpus.tsv"
    path.write_bytes(f"KHCORP1\tversion=1\td=1\np\tf\t1\t0\t{token}\n".encode())
    try:
        expect = float(token)
    except ValueError:
        with pytest.raises(ParseError, match="not a float"):
            load_corpus(str(path))
        return
    if not math.isfinite(expect):
        with pytest.raises(ParseError, match="non-finite"):
            load_corpus(str(path))
        return
    (program,) = load_corpus(str(path))
    got = program.functions[0].embedding[0]
    assert struct.pack("<d", got) == struct.pack("<d", expect)
