"""Data model and on-disk formats for function-level embedding corpora.

Three formats live here:

* a tab-separated text format (magic ``KHCORP1``) holding per-function
  embeddings with light source metadata and optional ground-truth labels,
* a packed binary container for structural bit-vector embeddings
  (magic ``KHSTRU1``),
* a binary container for pooled float32 semantic embeddings
  (magic ``KHSEM1``).

Writers are canonical: saving the result of a load reproduces the input
file byte for byte. Each writes as it goes, and one helper removes the file
at its path if anything fails after it was opened, even an older file.

The text readers (:func:`load_corpus` here, ``search.load_results`` and
``metrics.load_class_map``) stream their file through
:func:`read_line_chunks`, about 64 KB of whole lines at a time, so a file is
never held whole, and check it line by line. Within a chunk, bytes that are
not UTF-8 are reported before any other error, since the chunk is decoded
first; across chunks, the first error in file order is reported.

The binary containers (these two and the centroid model, ``KHKM1``) share
one codec. Each container's byte layout is one :class:`RecordFormat`: the
rows callers hold, ``encode`` of them into payload bytes and ``decode``
back. :func:`write_records` writes the ids plus blocks of rows, each
checked against the format's width and padding bits before it is encoded,
and :class:`RecordBlocks` reads records in blocks of about 1 MB, so no
reader needs the file whole. Given the formats a caller accepts
(``SKETCHES`` for either sketch container), it learns the file's from the
magic of the header it reads, so no reader opens a file only to sniff it.
It reads each record straight from a buffered file: its length prefix, its
id, then its payload into the block's row. A block's records are checked
as they are read (truncation, ids that are not UTF-8, trailing bytes after
the last record), then its payloads (padding bits, non-finite values);
across blocks, the first error in file order is reported.
:func:`read_records` returns the format, the parameter, the ids and every
block's payloads decoded as one matrix. :func:`entry_rows` is the one step
from (id, embedding) pairs to rows, for both savers and ``search.build``.
"""

from __future__ import annotations

import logging
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import FormatError, ParseError, ValidationError

logger = logging.getLogger(__name__)

CORPUS_MAGIC = "KHCORP1"
STRUCTURAL_MAGIC = b"KHSTRU1"
SEMANTIC_MAGIC = b"KHSEM1"

# About how many bytes of a text file one chunk of lines holds: enough to
# amortise the per-chunk read and decode, and small next to any file worth
# streaming.
_CHUNK_BYTES = 1 << 16

# About how many payload bytes one block of container records holds.
_BLOCK_BYTES = 1 << 20

# The file buffer of a container read and of every write: few system calls,
# and small enough that a small file touches little fresh memory.
_BUFFER_BYTES = 1 << 16


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
        if not np.isfinite(self.embedding).all():
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
        padded = np.pad(bits, (0, -bits.size % 64))
        return cls(np.packbits(padded, bitorder="little").view("<u8"), bits.size)

    def bits(self) -> np.ndarray:
        """Unpack to a (m,) uint8 array of 0/1 values."""
        raw = self.words.astype("<u8", copy=False).view(np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.m]

    def popcount(self) -> int:
        return int(np.bitwise_count(self.words).sum(dtype=np.int64))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructuralEmbedding):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.words, other.words)


@dataclass(eq=False)
class SemanticEmbedding:
    """A pooled float32 program vector (zero for a program that contributes
    no function)."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.float32)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValidationError("semantic embedding must be a non-empty 1-D array")
        if not np.isfinite(self.values).all():
            raise ValidationError("semantic embedding has non-finite values")

    @property
    def d(self) -> int:
        return self.values.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemanticEmbedding):
            return NotImplemented
        return np.array_equal(self.values, other.values)


def stack_embeddings(
    programs: Sequence[ProgramRecord],
) -> tuple[list[FunctionRecord], np.ndarray, np.ndarray]:
    """The functions a corpus contributes, in corpus order, with their rows as
    one (F, d) float64 matrix ((0, 0) if there is none) and each row's program
    index. This is the one corpus-to-rows step: a zero-norm function (all
    zeros, or a norm that underflows) has no direction, so it is dropped here
    for every consumer, with one warning."""
    functions = [fn for prog in programs for fn in prog.functions]
    sizes = np.fromiter((len(p.functions) for p in programs), dtype=np.int64, count=len(programs))
    owner = np.repeat(np.arange(len(programs), dtype=np.int64), sizes)
    if not functions:
        return functions, np.empty((0, 0)), owner
    try:
        X = np.stack([fn.embedding for fn in functions])
    except ValueError:
        bad = next(fn for fn in functions if fn.d != functions[0].d)
        raise ValidationError(
            f"function {bad.function_id!r} has dimension {bad.d}, but the corpus mixes "
            f"dimensions (the first function has {functions[0].d})"
        ) from None
    # Zero exactly where np.linalg.norm is zero, without an (F, d) temporary.
    with np.errstate(over="ignore"):
        keep = np.einsum("ij,ij->i", X, X) > 0.0
    if not keep.all():
        logger.warning("skipped %d zero-norm functions", int(keep.size - keep.sum()))
        functions = [fn for fn, kept in zip(functions, keep.tolist()) if kept]
        X, owner = X[keep], owner[keep]
    return functions, X, owner


def read_line_chunks(path: str) -> Iterator[tuple[int, list[str]]]:
    """The lines of a UTF-8 text file in chunks of whole lines, each with the
    1-based number of its first line; a final newline ends the last line.

    A chunk holds about ``_CHUNK_BYTES`` of the file (at least one line) and
    is decoded once. Bytes that are not UTF-8 raise :class:`ParseError`
    naming their line when their chunk is reached.
    """
    first = 1
    with open(path, "rb") as fh:
        while raw := fh.readlines(_CHUNK_BYTES):
            data = b"".join(raw)
            try:
                text = data.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ParseError(
                    "not valid UTF-8", first + data.count(b"\n", 0, exc.start)
                ) from None
            lines = text.split("\n")
            if lines[-1] == "":
                lines.pop()
            yield first, lines
            first += len(lines)


def numbered_lines(path: str) -> Iterator[tuple[int, str]]:
    """Each line of a UTF-8 text file with its 1-based number, read in chunks
    by :func:`read_line_chunks`."""
    for first, lines in read_line_chunks(path):
        yield from enumerate(lines, start=first)


@contextmanager
def _writing(path: str):
    """Open ``path`` for writing bytes; if the block raises, the file
    ``path`` names (through any symlink) is removed, so a writer that fails
    part-way leaves none. Only a regular file is removed, never a device
    such as ``/dev/stdout``."""
    fh = open(path, "wb", buffering=_BUFFER_BYTES)
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path):
            os.remove(os.path.realpath(path))
        raise


def write_lines(path: str, lines: Iterable[str]) -> None:
    """Write each line and a newline as UTF-8, each encoded as it is written
    (no lines give an empty file), so ``lines`` may be computed meanwhile. A
    failure part-way, from ``lines`` or from a line UTF-8 cannot encode,
    removes the file."""
    with _writing(path) as fh:
        for line in lines:
            fh.write((line + "\n").encode("utf-8"))


def encode_id(value: str, what: str) -> bytes:
    """UTF-8 bytes of an id; a lone surrogate has none and is rejected."""
    try:
        return value.encode("utf-8")
    except UnicodeEncodeError:
        raise ValidationError(
            f"{what} {value!r} holds a lone surrogate, which UTF-8 cannot encode"
        ) from None


def check_field(value: str, what: str) -> None:
    """Reject text that would split a tab-separated line or has no UTF-8 form."""
    if "\t" in value or "\n" in value:
        raise ValidationError(f"{what} {value!r} contains a tab or newline")
    if not value.isascii():
        encode_id(value, what)


def save_corpus(programs: Sequence[ProgramRecord], path: str, d: int | None = None) -> None:
    first = next((fn for prog in programs for fn in prog.functions), None)
    if first is not None:
        if d is not None and d != first.d:
            raise ValidationError(f"declared d={d} but corpus functions have d={first.d}")
        d = first.d
    if d is None:
        raise ValidationError("cannot infer embedding dimension from an empty corpus; pass d")
    if d < 1:
        raise ValidationError(f"embedding dimension must be >= 1, got {d}")
    write_lines(path, _corpus_lines(programs, d))


def _corpus_lines(programs: Iterable[ProgramRecord], d: int) -> Iterator[str]:
    """The lines of a ``KHCORP1`` file, each program checked as it comes."""
    seen: set[str] = set()
    yield f"{CORPUS_MAGIC}\tversion=1\td={d}"
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
            if fn.d != d:
                raise ValidationError(f"function {fn.function_id!r} has d={fn.d}, expected {d}")
            # repr() of a Python float is the shortest string that parses back
            # to the same double, which is what makes round trips byte-exact.
            emb = " ".join(map(repr, fn.embedding.tolist()))
            parts = [prog.program_id, fn.function_id, str(fn.loc), str(fn.nos), emb]
            if fn.class_label is not None:
                parts.append(f"class_label={fn.class_label}")
            if prog.class_id is not None:
                parts.append(f"class_id={prog.class_id}")
            yield "\t".join(parts)


def _parse_int(token: str, what: str, line: int) -> int:
    try:
        return int(token)
    except ValueError:
        raise ParseError(f"{what} is not an integer: {token!r}", line) from None


def load_corpus(path: str) -> list[ProgramRecord]:
    """Read a ``KHCORP1`` file line by line as :func:`read_line_chunks`
    streams it; the first bad line raises :class:`ParseError`."""
    lines = numbered_lines(path)
    _, header_line = next(lines, (1, None))
    if header_line is None:
        raise ParseError("empty file, expected header", 1)

    header = header_line.split("\t")
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
    for lineno, line in lines:
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
            # numpy converts each str with Python's float(): same tokens accepted.
            emb = np.array(tokens, dtype=np.float64)
        except ValueError:
            raise ParseError("embedding value is not a float", lineno) from None

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


@dataclass(frozen=True)
class RecordFormat:
    """A fixed-record container and its whole byte layout: the magic, the
    name of its u32 header parameter (checked to be >= 1), the rows callers
    hold for a parameter (``width`` columns of little-endian ``dtype``), the
    ``bits`` of a row a record keeps (in whole bytes, its payload),
    :meth:`encode` of rows into payloads and
    ``decode(path, param, ids, raw)``, which turns one block of raw payloads
    (a uint8 row each) into rows, with the checks that need the payload."""

    magic: bytes
    param: str
    dtype: str
    width: Callable[[int], int]
    bits: Callable[[int], int]
    decode: Callable[[str, int, list[str], np.ndarray], np.ndarray]

    def payload_size(self, param: int) -> int:
        return (self.bits(param) + 7) // 8

    def encode(self, param: int, rows: np.ndarray) -> np.ndarray:
        """The uint8 (n, ``payload_size(param)``) payloads of (n, ``width(param)``)
        rows: their little-endian bytes, cut to the payload size. A row with
        a bit set past its ``bits`` (padding) is refused."""
        raw = np.ascontiguousarray(rows, dtype=self.dtype).view(np.uint8)
        whole, part = divmod(self.bits(param), 8)
        size = whole + (part > 0)
        if raw[:, size:].any() or part and (raw[:, whole] >> part).any():
            raise ValidationError(f"padding bits past {self.param} {param} must be zero")
        return raw[:, :size]


def block_rows(row_bytes: int) -> int:
    """How many rows of ``row_bytes`` bytes make one block of about
    ``_BLOCK_BYTES`` (at least one)."""
    return max(1, _BLOCK_BYTES // row_bytes)


def write_records(
    path: str, fmt: RecordFormat, param: int, ids: Sequence[str], blocks: Iterable[np.ndarray]
) -> None:
    """Write a fixed-record container.

    The layout is ``fmt.magic``, u32 ``param`` (m or d), u64 record count,
    then per record a u32 length-prefixed UTF-8 id and its payload.
    ``blocks`` yields the rows in record order as (n, ``fmt.width(param)``)
    arrays whose n sum to ``len(ids)``; they may be computed while the file
    is written. Each block's shape and padding bits are checked before it
    is encoded, and each id is encoded as its record is written. A failure
    part-way removes the file.
    """
    if not 1 <= param < 1 << 32:
        raise ValidationError(f"{fmt.magic.decode()} parameter must be in [1, 2**32), got {param}")
    width = fmt.width(param)
    with _writing(path) as fh:
        fh.write(fmt.magic + struct.pack("<IQ", param, len(ids)))
        pending = iter(ids)
        done = 0
        for block in blocks:
            done += len(block)
            if block.ndim != 2 or block.shape[1] != width or done > len(ids):
                raise ValidationError(
                    f"a block of shape {block.shape} does not fit "
                    f"{len(ids)} records of {width} values"
                )
            # The block comes first, so zip stops without taking an id.
            for row, pid in zip(fmt.encode(param, block), pending):
                raw = encode_id(pid, "id")
                fh.write(len(raw).to_bytes(4, "little") + raw)
                fh.write(row)
        if done != len(ids):
            raise ValidationError(f"{done} payloads for {len(ids)} ids")


class RecordBlocks:
    """The records of a container written by :func:`write_records`, read in
    blocks of :func:`block_rows` records.

    Opening reads the header and picks, of the ``formats`` a caller
    accepts, the one whose magic starts the file, exposed as ``format``. It
    then checks the parameter and the record count against the file size
    (from ``fstat``) before anything is allocated; ``param``, ``count`` and
    ``size`` (payload bytes) are then set. Iterating once yields
    ``(ids, rows)`` per block, ``rows`` decoded by the format, and checks
    every record as it comes: truncation, ids that are not UTF-8, trailing
    bytes after the last record, then the block's payloads. The first fault
    in file order raises :class:`FormatError`. The file closes when the
    iteration ends or fails, or on :meth:`close`; use it as a context
    manager to stop early.
    """

    def __init__(self, path: str, *formats: RecordFormat):
        self.path = path
        self._fh = open(path, "rb", buffering=_BUFFER_BYTES)
        try:
            head = self._fh.read(max(len(fmt.magic) for fmt in formats))
            fmt = next((fmt for fmt in formats if head.startswith(fmt.magic)), None)
            if fmt is None and len(formats) == 1:
                raise FormatError(f"{path}: bad magic, expected {formats[0].magic!r}")
            if fmt is None:
                raise FormatError(f"{path}: unrecognized magic {head!r}")
            self.format = fmt
            head += self._fh.read(len(fmt.magic) + 12 - len(head))
            if len(head) < len(fmt.magic) + 12:
                raise self._truncated()
            self.param, self.count = struct.unpack_from("<IQ", head, len(fmt.magic))
            if self.param < 1:
                raise FormatError(f"{path}: {fmt.param} must be >= 1, got {self.param}")
            self.size = fmt.payload_size(self.param)
            self._file_size = os.fstat(self._fh.fileno()).st_size
            if self.count * (4 + self.size) > self._file_size - len(head):
                raise self._truncated()
        except BaseException:
            self._fh.close()
            raise

    def _truncated(self) -> FormatError:
        return FormatError(f"{self.path}: truncated file")

    def __enter__(self) -> "RecordBlocks":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._fh.close()

    def __iter__(self) -> Iterator[tuple[list[str], np.ndarray]]:
        return self._blocks(None)

    def _blocks(self, into: np.ndarray | None) -> Iterator[tuple[list[str], np.ndarray]]:
        """Iterate as ``__iter__`` describes, putting each block's payloads
        in the next rows of ``into`` (a (count, size) uint8 matrix) or, with
        None, in a new array per block."""
        size, rows = self.size, block_rows(4 + self.size)
        read, readinto, from_bytes = self._fh.read, self._fh.readinto, int.from_bytes
        # The bytes the file holds beyond 4 + size per record: the ids must
        # fit in them, and what is left after the last record is trailing.
        spare = self._file_size - self._fh.tell() - self.count * (4 + size)
        try:
            for done in range(0, self.count, rows):
                n = min(rows, self.count - done)
                raw = np.empty((n, size), np.uint8) if into is None else into[done:done + n]
                ids: list[str] = []
                for row in raw:
                    # A read cut short (the file shrank) leaves the payload short.
                    length = from_bytes(read(4), "little")
                    spare -= length
                    if spare < 0:
                        raise self._truncated()
                    pid = read(length)
                    if readinto(row) < size:
                        raise self._truncated()
                    try:
                        ids.append(pid.decode())
                    except UnicodeDecodeError:
                        raise FormatError(f"{self.path}: id is not valid UTF-8") from None
                if done + n == self.count and spare:
                    raise FormatError(f"{self.path}: {spare} trailing bytes")
                yield ids, self.format.decode(self.path, self.param, ids, raw)
        finally:
            self.close()

    def read_all(self) -> tuple[list[str], np.ndarray]:
        """Every id, and every row in one matrix: the blocks' payloads are
        read into one (count, size) matrix, each block checked as it comes,
        and the matrix is then decoded whole."""
        raw = np.empty((self.count, self.size), dtype=np.uint8)
        ids: list[str] = []
        for block_ids, _ in self._blocks(raw):
            ids += block_ids
        return ids, self.format.decode(self.path, self.param, ids, raw)


def read_records(
    path: str, *formats: RecordFormat
) -> tuple[RecordFormat, int, list[str], np.ndarray]:
    """Read a container written by :func:`write_records` in one of
    ``formats``: the format its magic names, ``param``, the ids, and the
    decoded rows of every block of :class:`RecordBlocks` gathered into one
    matrix."""
    with RecordBlocks(path, *formats) as records:
        return records.format, records.param, *records.read_all()


def _structural_rows(path: str, m: int, ids: list[str], raw: np.ndarray) -> np.ndarray:
    """Packed (n, words) uint64 rows; set padding bits past m are refused."""
    if m % 8 and (raw[:, -1] >> (m % 8)).any():
        raise FormatError(f"{path}: padding bits past m must be zero")
    pad = -raw.shape[1] % 8
    if pad:
        raw = np.concatenate([raw, np.zeros((len(raw), pad), dtype=np.uint8)], axis=1)
    return raw.view("<u8").astype(np.uint64, copy=False)


def _semantic_rows(path: str, d: int, ids: list[str], raw: np.ndarray) -> np.ndarray:
    """(n, d) float32 rows; a row with a non-finite value is refused."""
    rows = raw.view("<f4").astype(np.float32, copy=False)
    finite = np.isfinite(rows).all(axis=1)
    if not finite.all():
        raise FormatError(f"{path}: entry {ids[int(np.argmin(finite))]!r} has non-finite values")
    return rows


STRUCTURAL = RecordFormat(
    STRUCTURAL_MAGIC, "bit-vector length", "<u8",
    lambda m: (m + 63) // 64, lambda m: m, _structural_rows,
)
SEMANTIC = RecordFormat(
    SEMANTIC_MAGIC, "dimension", "<f4", lambda d: d, lambda d: 32 * d, _semantic_rows
)
# Both sketch containers, for a reader that takes either.
SKETCHES = (STRUCTURAL, SEMANTIC)


Entry = tuple[str, StructuralEmbedding | SemanticEmbedding]


def entry_rows(
    entries: Sequence[Entry], fmt: RecordFormat, value: int | None = None
) -> tuple[int, np.ndarray]:
    """The m or d of (id, embedding) pairs of ``fmt``'s kind (``value`` if
    given, which an empty list needs) and their rows stacked into one
    (n, width) matrix: the one step from a list of embedding objects to a
    container's or an index's rows. An entry of another kind or another m
    or d is refused."""
    kind, name = (StructuralEmbedding, "m") if fmt is STRUCTURAL else (SemanticEmbedding, "d")
    for pid, emb in entries:
        if not isinstance(emb, kind):
            raise ValidationError(f"entry {pid!r} is not a {kind.__name__}")
        got = getattr(emb, name)
        value = got if value is None else value
        if got != value:
            raise ValidationError(f"entry {pid!r} has {name}={got}, expected {value}")
    if value is None:
        raise ValidationError(f"cannot infer {name} from an empty entry list; pass {name}")
    rows = [emb.words if fmt is STRUCTURAL else emb.values for _, emb in entries]
    return value, np.array(rows, dtype=fmt.dtype).reshape(len(rows), fmt.width(value))


def save_structural(
    entries: Sequence[tuple[str, StructuralEmbedding]], path: str, m: int | None = None
) -> None:
    m, words = entry_rows(entries, STRUCTURAL, m)
    write_records(path, STRUCTURAL, m, [pid for pid, _ in entries], [words])


def load_structural(path: str) -> list[tuple[str, StructuralEmbedding]]:
    return _entries(*read_records(path, STRUCTURAL))


def save_semantic(
    entries: Sequence[tuple[str, SemanticEmbedding]], path: str, d: int | None = None
) -> None:
    d, values = entry_rows(entries, SEMANTIC, d)
    write_records(path, SEMANTIC, d, [pid for pid, _ in entries], [values])


def load_semantic(path: str) -> list[tuple[str, SemanticEmbedding]]:
    return _entries(*read_records(path, SEMANTIC))


def _entries(fmt: RecordFormat, param: int, ids: list[str], rows: np.ndarray) -> list[Entry]:
    """One embedding object per row of a sketch container."""
    if fmt is STRUCTURAL:
        return [(pid, StructuralEmbedding(row, param)) for pid, row in zip(ids, rows)]
    return [(pid, SemanticEmbedding(row)) for pid, row in zip(ids, rows)]


def load_embeddings(path: str) -> tuple[str, list[Entry]]:
    """Load either sketch container: ("structural", entries) or
    ("semantic", entries), as its magic names it."""
    fmt, *rest = read_records(path, *SKETCHES)
    return "structural" if fmt is STRUCTURAL else "semantic", _entries(fmt, *rest)


def read_ids(path: str) -> list[str]:
    """The ids of either sketch container. Every block is checked as
    :func:`read_records` checks it, and its rows are then dropped."""
    return [pid for ids, _ in RecordBlocks(path, *SKETCHES) for pid in ids]
