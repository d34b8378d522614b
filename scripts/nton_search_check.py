#!/usr/bin/env python3
"""n-to-n check: an ``index-search`` whose queries are the repository itself.

The paper's large-scale scenario compares every program with every other
one. This script writes a KHSEM1 and a KHSTRU1 file of the same programs
directly with numpy and ``struct`` (no TSV, no ``synth``): random float32
vectors of dimension d, and m-bit sketches with a few random set bits each
(the shape of the ``scan`` benchmark's sketches). For each file it then runs
``binsketch index-search --repo-emb F --query-emb F`` in a fresh Python
process and prints the comparisons per second, the peak resident memory
(``ru_maxrss``) and where the time went:

* ``load``: indexing the repository and reading the queries;
* ``scores``: the scoring kernel (GEMM blocks for ``.sem``, Jaccard per
  query for ``.stru``);
* ``topk``: selecting each query's top k;
* ``write``: checking the ids and writing the hits file;
* ``other``: the rest (building per-query results, argument parsing).

The stages are timed by wrapping the functions ``index-search`` calls, so
the split costs a little time of its own; ``seconds`` is the whole command.
At the default 10,000 programs the ``.stru`` file is 82 MB and each hits
file holds 1M lines (about 40 MB); delete the directory afterwards.

Example:
    PYTHONPATH=src python3 scripts/nton_search_check.py --dir /tmp/nton
"""

import argparse
import os
import struct
import subprocess
import sys

import numpy as np

CHILD = """
import contextlib, io, resource, sys, time
from binsketch import cli, search

path, out, k = sys.argv[1], sys.argv[2], sys.argv[3]
spent = {"load": 0.0, "scores": 0.0, "topk": 0.0, "write": 0.0}

def timed(owner, name, stage):
    inner = getattr(owner, name)
    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            spent[stage] += time.perf_counter() - start
    setattr(owner, name, wrapper)

# Each stage's entry points; a name the code does not have is skipped.
for owner, name, stage in [
    (search, "load_index", "load"), (cli, "read_sketches", "load"),
    (cli, "load_embeddings", "load"),
    (search.SemanticIndex, "score_rows" if hasattr(search.SemanticIndex, "score_rows")
     else "scores", "scores"),
    (search.StructuralIndex, "scores", "scores"), (search, "top_k", "topk"),
    (search, "write_hits", "write"), (search, "save_results", "write"),
]:
    if hasattr(owner, name):
        timed(owner, name, stage)

start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["index-search", "--repo-emb", path, "--query-emb", path, "--k", k,
                     "--out", out])
seconds = time.perf_counter() - start
if code:
    sys.exit(code)
n = len(search.load_index(path))
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
split = " ".join(f"{stage}_s={value:.3f}" for stage, value in spent.items())
print(f"file={path} programs={n} comparisons={n * n} seconds={seconds:.3f} "
      f"comparisons_per_s={n * n / seconds:,.0f} {split} "
      f"other_s={seconds - sum(spent.values()):.3f} peak_rss_mb={peak:.1f}")
"""


def write_container(path: str, magic: bytes, param: int, programs: int, blocks) -> None:
    """A KHSTRU1/KHSEM1 file of programs ``p0000000``... from blocks of
    uint8 payload rows."""
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<IQ", param, programs))
        ids = (f"p{i:07d}".encode() for i in range(programs))
        for rows in blocks:
            for row, pid in zip(rows, ids):
                fh.write(struct.pack("<I", len(pid)) + pid + row.tobytes())


def semantic_rows(rng, programs: int, d: int, block: int = 1024):
    for start in range(0, programs, block):
        n = min(block, programs - start)
        yield rng.standard_normal((n, d)).astype("<f4").view(np.uint8)


def structural_rows(rng, programs: int, m: int, bits: int, block: int = 1024):
    for start in range(0, programs, block):
        n = min(block, programs - start)
        rows = np.zeros((n, m // 8), dtype=np.uint8)
        flat = rng.integers(0, m, size=n * bits)
        owners = np.repeat(np.arange(n), bits)
        np.bitwise_or.at(rows, (owners, flat >> 3), (1 << (flat & 7)).astype(np.uint8))
        yield rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", required=True, help="directory for the sketch and hits files")
    parser.add_argument("--programs", type=int, default=10_000)
    parser.add_argument("--d", type=int, default=32)
    parser.add_argument("--m", type=int, default=1 << 16)
    parser.add_argument("--bits", type=int, default=10)
    parser.add_argument("--k", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--kind", choices=("sem", "stru", "both"), default="both")
    args = parser.parse_args()
    if min(args.programs, args.d, args.bits, args.k) < 1 or args.m < 8 or args.m % 8:
        parser.error("need --programs, --d, --bits, --k >= 1 and --m a positive multiple of 8")

    os.makedirs(args.dir, exist_ok=True)
    rng = np.random.default_rng(args.seed)
    files = {
        "sem": (b"KHSEM1", args.d, lambda: semantic_rows(rng, args.programs, args.d)),
        "stru": (b"KHSTRU1", args.m,
                 lambda: structural_rows(rng, args.programs, args.m, args.bits)),
    }
    code = 0
    for kind in ("sem", "stru") if args.kind == "both" else (args.kind,):
        magic, param, rows = files[kind]
        path = os.path.join(args.dir, f"repo.{kind}")
        write_container(path, magic, param, args.programs, rows())
        out = os.path.join(args.dir, f"hits.{kind}.tsv")
        code |= subprocess.run([sys.executable, "-c", CHILD, path, out, str(args.k)]).returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
