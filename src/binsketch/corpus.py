"""Data model and on-disk formats for function-level embedding corpora.

Three formats live here:

* a tab-separated text format (magic ``KHCORP1``) holding per-function
  embeddings with light source metadata and optional ground-truth labels,
* a packed binary container for structural bit-vector embeddings
  (magic ``KHSTRU1``),
* a binary container for pooled float32 semantic embeddings
  (magic ``KHSEM1``).

Writers are canonical: saving the result of a load reproduces the input
file byte for byte.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, ParseError, ValidationError

CORPUS_MAGIC = "KHCORP1"
STRUCTURAL_MAGIC = b"KHSTRU1"
SEMANTIC_MAGIC = b"KHSEM1"


@dataclass(eq=False)
class FunctionRecord:
    """One function: its embedding plus the size stats used for weighting.

    ``loc`` counts pseudocode lines and ``nos`` counts string literals; both
    are supplied by whatever produced the embeddings, we only consume them.
    ``class_label`` is an optional ground-truth label carried by synthetic
    or annotated corpora.
    """

    function_id: str
    embedding: np.ndarray
    loc: int
    nos: int
    class_label: int | None = None

    def __post_init__(self):
        self.embedding = np.asarray(self.embedding, dtype=np.float64)
        if self.embedding.ndim != 1:
            raise ValidationError(
                f"function {self.function_id!r}: embedding must be 1-D, "
                f"got shape {self.embedding.shape}"
            )
        if not np.all(np.isfinite(self.embedding)):
            raise ValidationError(
                f"function {self.function_id!r}: embedding has non-finite values"
            )
        for name, value in (("loc", self.loc), ("nos", self.nos)):
            if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
                raise ValidationError(
                    f"function {self.function_id!r}: {name} must be an integer"
                )
            if value < 0:
                raise ValidationError(
                    f"function {self.function_id!r}: {name} must be >= 0"
                )
        if self.class_label is not None and self.class_label < 0:
            raise ValidationError(
                f"function {self.function_id!r}: class_label must be >= 0"
            )

    @property
    def d(self) -> int:
        return self.embedding.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FunctionRecord):
            return NotImplemented
        return (
            self.function_id == other.function_id
            and np.array_equal(self.embedding, other.embedding)
            and self.loc == other.loc
            and self.nos == other.nos
            and self.class_label == other.class_label
        )


@dataclass(eq=False)
class ProgramRecord:
    """A program is an ordered bag of functions plus an optional class id."""

    program_id: str
    functions: list[FunctionRecord] = field(default_factory=list)
    class_id: str | None = None

    def __eq__(self, other) -> bool:
        if not isinstance(other, ProgramRecord):
            return NotImplemented
        return (
            self.program_id == other.program_id
            and self.class_id == other.class_id
            and self.functions == other.functions
        )


@dataclass(eq=False)
class StructuralEmbedding:
    """A length-``m`` bit-vector packed into little-endian 64-bit words.

    Bit ``i`` lives in word ``i >> 6`` at position ``i & 63``; any padding
    bits past ``m`` in the last word are zero.
    """

    words: np.ndarray
    m: int

    def __post_init__(self):
        self.words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if self.m < 1:
            raise ValidationError(f"bit-vector length must be >= 1, got {self.m}")
        expect = (self.m + 63) // 64
        if self.words.shape != (expect,):
            raise ValidationError(
                f"expected {expect} packed words for m={self.m}, "
                f"got shape {self.words.shape}"
            )
        pad = self.m % 64
        if pad and int(self.words[-1]) >> pad:
            raise ValidationError("padding bits past m must be zero")

    @classmethod
    def from_bits(cls, bits: np.ndarray | Sequence[int]) -> "StructuralEmbedding":
        bits = np.asarray(bits, dtype=np.uint8)
        if bits.ndim != 1 or bits.size < 1:
            raise ValidationError("bits must be a non-empty 1-D array")
        if np.any(bits > 1):
            raise ValidationError("bits must be 0 or 1")
        return cls.from_bytes(np.packbits(bits, bitorder="little").tobytes(), bits.size)

    @classmethod
    def from_bytes(cls, raw: bytes | memoryview, m: int) -> "StructuralEmbedding":
        nbytes = (m + 7) // 8
        if len(raw) != nbytes:
            raise FormatError(f"expected {nbytes} bytes for m={m}, got {len(raw)}")
        nwords = (m + 63) // 64
        padded = bytes(raw) + b"\x00" * (nwords * 8 - nbytes)
        words = np.frombuffer(padded, dtype="<u8").copy()
        pad = m % 64
        if pad:
            words[-1] &= np.uint64((1 << pad) - 1)
        return cls(words, m)

    def to_bytes(self) -> bytes:
        nbytes = (self.m + 7) // 8
        return self.words.astype("<u8", copy=False).tobytes()[:nbytes]

    def bits(self) -> np.ndarray:
        """Unpack to a (m,) uint8 array of 0/1 values."""
        flat = np.unpackbits(
            np.frombuffer(self.to_bytes(), dtype=np.uint8), bitorder="little"
        )
        return flat[: self.m]

    def popcount(self) -> int:
        return int(np.bitwise_count(self.words).sum(dtype=np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructuralEmbedding):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.words, other.words)


@dataclass(eq=False)
class SemanticEmbedding:
    """A pooled float32 program vector.

    ``degenerate`` marks vectors produced from programs with no usable
    functions; it is advisory and ignored by equality.
    """

    values: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValidationError("semantic embedding must be a non-empty 1-D array")
        if not np.all(np.isfinite(self.values)):
            raise ValidationError("semantic embedding has non-finite values")

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemanticEmbedding):
            return NotImplemented
        return np.array_equal(self.values, other.values)


def iter_functions(programs: Iterable[ProgramRecord]) -> Iterator[FunctionRecord]:
    for prog in programs:
        yield from prog.functions


def corpus_dimension(programs: Iterable[ProgramRecord]) -> int | None:
    """Embedding dimension shared by every function, or None if empty."""
    d = None
    for fn in iter_functions(programs):
        if d is None:
            d = fn.d
        elif fn.d != d:
            raise ValidationError(
                f"function {fn.function_id!r} has dimension {fn.d}, expected {d}"
            )
    return d


def _format_float(x: float) -> str:
    # repr() of a Python float is the shortest string that parses back
    # to the same double, which is what makes round trips byte-exact.
    return repr(float(x))


def check_field(value: str, what: str) -> None:
    """Reject text that would split a tab-separated line."""
    if "\t" in value or "\n" in value:
        raise ValidationError(f"{what} {value!r} contains a tab or newline")


def save_corpus(programs: Sequence[ProgramRecord], path: str, d: int | None = None) -> None:
    inferred = corpus_dimension(programs)
    if inferred is not None:
        if d is not None and d != inferred:
            raise ValidationError(f"declared d={d} but corpus functions have d={inferred}")
        d = inferred
    if d is None:
        raise ValidationError("cannot infer embedding dimension from an empty corpus; pass d")
    if d < 1:
        raise ValidationError(f"embedding dimension must be >= 1, got {d}")

    seen: set[str] = set()
    lines = [f"{CORPUS_MAGIC}\tversion=1\td={d}"]
    for prog in programs:
        if prog.program_id in seen:
            raise ValidationError(f"duplicate program_id {prog.program_id!r}")
        seen.add(prog.program_id)
        check_field(prog.program_id, "program id")
        if prog.class_id is not None:
            check_field(prog.class_id, "class id")
        if not prog.functions:
            raise ValidationError(
                f"program {prog.program_id!r} has no functions; "
                "the corpus format stores one function per line"
            )
        for fn in prog.functions:
            check_field(fn.function_id, "function id")
            emb = " ".join(_format_float(v) for v in fn.embedding)
            parts = [prog.program_id, fn.function_id, str(fn.loc), str(fn.nos), emb]
            if fn.class_label is not None:
                parts.append(f"class_label={fn.class_label}")
            if prog.class_id is not None:
                parts.append(f"class_id={prog.class_id}")
            lines.append("\t".join(parts))
    with open(path, "wb") as fh:
        fh.write("\n".join(lines).encode("utf-8") + b"\n")


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", line) from None


def load_corpus(path: str) -> list[ProgramRecord]:
    with open(path, "rb") as fh:
        text = fh.read().decode("utf-8")
    raw_lines = text.split("\n")
    if raw_lines and raw_lines[-1] == "":
        raw_lines.pop()
    if not raw_lines:
        raise ParseError("empty file, expected header", 1)

    header = raw_lines[0].split("\t")
    if len(header) != 3 or header[0] != CORPUS_MAGIC:
        raise ParseError(f"bad header, expected {CORPUS_MAGIC!r}", 1)
    if header[1] != "version=1":
        raise ParseError(f"unsupported version field {header[1]!r}", 1)
    if not header[2].startswith("d="):
        raise ParseError(f"expected d=<int>, got {header[2]!r}", 1)
    d = _parse_int(header[2][2:], "d", 1)
    if d < 1:
        raise ParseError(f"embedding dimension must be >= 1, got {d}", 1)

    programs: list[ProgramRecord] = []
    finished: set[str] = set()
    current: ProgramRecord | None = None
    for lineno, line in enumerate(raw_lines[1:], start=2):
        if line == "":
            raise ParseError("empty line", lineno)
        fields = line.split("\t")
        if len(fields) < 5:
            raise ParseError(f"expected at least 5 tab-separated fields, got {len(fields)}", lineno)
        program_id, function_id, loc_tok, nos_tok, emb_tok = fields[:5]

        class_label: int | None = None
        class_id: str | None = None
        for extra in fields[5:]:
            if extra.startswith("class_label="):
                if class_label is not None:
                    raise ParseError("duplicate class_label field", lineno)
                class_label = _parse_int(extra[len("class_label="):], "class_label", lineno)
            elif extra.startswith("class_id="):
                if class_id is not None:
                    raise ParseError("duplicate class_id field", lineno)
                class_id = extra[len("class_id="):]
            else:
                raise ParseError(f"unknown trailing field {extra!r}", lineno)

        tokens = emb_tok.split(" ")
        if len(tokens) != d:
            raise ParseError(f"expected {d} embedding values, got {len(tokens)}", lineno)
        try:
            emb = np.array([float(t) for t in tokens], dtype=np.float64)
        except ValueError:
            raise ParseError("embedding value is not a float", lineno) from None
        if not np.all(np.isfinite(emb)):
            raise ParseError("embedding has non-finite values", lineno)

        try:
            fn = FunctionRecord(
                function_id=function_id,
                embedding=emb,
                loc=_parse_int(loc_tok, "loc", lineno),
                nos=_parse_int(nos_tok, "nos", lineno),
                class_label=class_label,
            )
        except ValidationError as exc:
            raise ParseError(str(exc), lineno) from None

        if current is None or program_id != current.program_id:
            if program_id in finished:
                raise ParseError(f"program {program_id!r} appears in two separate runs", lineno)
            if current is not None:
                finished.add(current.program_id)
            current = ProgramRecord(program_id=program_id, functions=[fn], class_id=class_id)
            programs.append(current)
        else:
            if class_id != current.class_id:
                raise ParseError(
                    f"program {program_id!r} has conflicting class_id values", lineno
                )
            current.functions.append(fn)
    return programs


def write_records(
    path: str,
    magic: bytes,
    param: int,
    entries: Sequence[tuple[str, object]],
    encode: Callable[[object], bytes],
) -> None:
    """Write a fixed-record container.

    The layout is ``magic``, u32 ``param`` (m or d), u64 record count, then
    per record a u32 length-prefixed UTF-8 id and ``encode(value)``, which
    must be the same size for every record.
    """
    if not 1 <= param < 1 << 32:
        raise ValidationError(f"{magic.decode()} parameter must be in [1, 2**32), got {param}")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<IQ", param, len(entries)))
        for pid, value in entries:
            encoded = pid.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(encode(value))


def read_records(
    path: str, magic: bytes, payload_size: Callable[[int], int]
) -> tuple[int, list[str], list[memoryview]]:
    """Read a container written by :func:`write_records`.

    Returns ``param``, the ids and the payloads of ``payload_size(param)``
    bytes each, as views into the file buffer (no copy). The record count
    is checked against the file size before anything is allocated.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if not data.startswith(magic):
        raise FormatError(f"{path}: bad magic, expected {magic!r}")
    truncated = FormatError(f"{path}: truncated file")
    pos = len(magic) + 12
    if len(data) < pos:
        raise truncated
    param, count = struct.unpack_from("<IQ", data, len(magic))
    size = payload_size(param)
    if count * (4 + size) > len(data) - pos:
        raise truncated
    view = memoryview(data)
    ids: list[str] = []
    payloads: list[memoryview] = []
    for left in range(count - 1, -1, -1):
        # Each record still to come needs at least 4 + size bytes, so the
        # length prefix at ``pos`` is always inside the file.
        start = pos + 4
        end = start + struct.unpack_from("<I", data, pos)[0]
        pos = end + size
        if pos + left * (4 + size) > len(data):
            raise truncated
        try:
            ids.append(data[start:end].decode("utf-8"))
        except UnicodeDecodeError:
            raise FormatError(f"{path}: id is not valid UTF-8") from None
        payloads.append(view[end:pos])
    if pos != len(data):
        raise FormatError(f"{path}: {len(data) - pos} trailing bytes")
    return param, ids, payloads


def _shared(entries: Sequence[tuple[str, object]], name: str, value: int | None) -> int:
    """The ``name`` attribute (m or d) of every entry, or ``value`` if given."""
    if value is None:
        if not entries:
            raise ValidationError(f"cannot infer {name} from an empty entry list; pass {name}")
        value = getattr(entries[0][1], name)
    for pid, emb in entries:
        if getattr(emb, name) != value:
            raise ValidationError(
                f"entry {pid!r} has {name}={getattr(emb, name)}, expected {value}"
            )
    return value


def save_structural(
    entries: Sequence[tuple[str, StructuralEmbedding]], path: str, m: int | None = None
) -> None:
    m = _shared(entries, "m", m)
    write_records(path, STRUCTURAL_MAGIC, m, entries, StructuralEmbedding.to_bytes)


def load_structural(path: str) -> list[tuple[str, StructuralEmbedding]]:
    m, ids, payloads = read_records(path, STRUCTURAL_MAGIC, lambda m: (m + 7) // 8)
    if m < 1:
        raise FormatError(f"{path}: bit-vector length must be >= 1, got {m}")
    return [(pid, StructuralEmbedding.from_bytes(raw, m)) for pid, raw in zip(ids, payloads)]


def load_embeddings(path: str):
    """Load either embedding container, sniffing the magic.

    Returns ("structural", entries) or ("semantic", entries).
    """
    with open(path, "rb") as fh:
        head = fh.read(len(STRUCTURAL_MAGIC))
    if head.startswith(STRUCTURAL_MAGIC):
        return "structural", load_structural(path)
    if head.startswith(SEMANTIC_MAGIC):
        return "semantic", load_semantic(path)
    raise FormatError(f"{path}: unrecognized magic {head!r}")


def save_semantic(
    entries: Sequence[tuple[str, SemanticEmbedding]], path: str, d: int | None = None
) -> None:
    d = _shared(entries, "d", d)
    write_records(
        path, SEMANTIC_MAGIC, d, entries, lambda emb: emb.values.astype("<f4", copy=False).tobytes()
    )


def load_semantic(path: str) -> list[tuple[str, SemanticEmbedding]]:
    d, ids, payloads = read_records(path, SEMANTIC_MAGIC, lambda d: 4 * d)
    if d < 1:
        raise FormatError(f"{path}: dimension must be >= 1, got {d}")
    rows = np.frombuffer(b"".join(payloads), dtype="<f4").reshape(len(ids), d).copy()
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}: entry {ids[int(np.argmin(finite))]!r} has non-finite values")
    return [(pid, SemanticEmbedding(row, degenerate=not row.any())) for pid, row in zip(ids, rows)]
