#!/usr/bin/env python3
"""n-to-n check: an ``index-search`` whose queries are the repository itself.

The paper's large-scale scenario compares every program with every other
one. This script writes a KHSEM1 and a KHSTRU1 file of the same programs
from numpy rows through ``corpus.write_records`` (no TSV, no ``synth``):
random float32 vectors of dimension d, and m-bit sketches with a few random
set bits each (the shape of the ``scan`` benchmark's sketches; a large
``--bits`` makes a dense index). For each file it then runs
``binsketch index-search --repo-emb F --query-emb F`` in a fresh Python
process and prints the comparisons per second, that process's own peak
resident memory (``VmHWM`` in ``/proc/self/status``; its ``ru_maxrss`` would
also count the memory this script held when it started the process) and
where the time went:

* ``load``: indexing the repository and reading the queries;
* ``scores``: the scoring kernel (GEMM blocks for ``.sem``, Jaccard per
  query for ``.stru``);
* ``topk``: selecting each query's top k;
* ``write``: checking the ids and writing the hits file;
* ``other``: the rest (argument parsing, and for ``.stru`` the per-query
  ``search.search`` calls and the copy of their arrays into the ranking).

The stages are timed by wrapping the functions ``index-search`` calls, so
the split costs a little time of its own; ``seconds`` is the whole command.
At the default 10,000 programs the ``.stru`` file is 82 MB and each hits
file holds 1M lines (about 40 MB); delete the directory afterwards.

Example:
    PYTHONPATH=src python3 scripts/nton_search_check.py --dir /tmp/nton
"""

import argparse
import os
import subprocess
import sys

import numpy as np

from binsketch.corpus import SEMANTIC, STRUCTURAL, write_records

CHILD = """
import contextlib, io, sys, time
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

# Each stage's entry points. A name the code does not have is an error, so
# a rename cannot move a stage's time into other_s unseen.
for owner, name, stage in [
    (search, "load_index", "load"), (cli, "read_records", "load"),
    (search.SemanticIndex, "score_rows", "scores"), (search.StructuralIndex, "scores", "scores"),
    (search, "top_k", "topk"), (search, "save_results", "write"),
]:
    if not hasattr(owner, name):
        sys.exit(f"{owner.__name__} has no {name}: update the stage list")
    timed(owner, name, stage)

start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(["index-search", "--repo-emb", path, "--query-emb", path, "--k", k,
                     "--out", out])
seconds = time.perf_counter() - start
if code:
    sys.exit(code)
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
split = " ".join(f"{stage}_s={value:.3f}" for stage, value in spent.items())
other = seconds - sum(spent.values())
n = len(search.load_index(path))  # after the split is taken: this load is not timed
print(f"file={path} programs={n} comparisons={n * n} seconds={seconds:.3f} "
      f"comparisons_per_s={n * n / seconds:,.0f} {split} "
      f"other_s={other:.3f} peak_rss_mb={peak:.1f}")
"""


def semantic_rows(rng, programs: int, d: int, block: int = 1024):
    for start in range(0, programs, block):
        n = min(block, programs - start)
        yield rng.standard_normal((n, d)).astype(np.float32)


def structural_rows(rng, programs: int, m: int, bits: int, block: int = 1024):
    """Packed (n, words) uint64 rows with ``bits`` random bit positions each
    (repeats collapse)."""
    for start in range(0, programs, block):
        n = min(block, programs - start)
        rows = np.zeros((n, STRUCTURAL.width(m) * 8), dtype=np.uint8)
        flat = rng.integers(0, m, size=n * bits)
        owners = np.repeat(np.arange(n), bits)
        np.bitwise_or.at(rows, (owners, flat >> 3), (1 << (flat & 7)).astype(np.uint8))
        yield rows.view("<u8")


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
        "sem": (SEMANTIC, args.d, lambda: semantic_rows(rng, args.programs, args.d)),
        "stru": (STRUCTURAL, args.m,
                 lambda: structural_rows(rng, args.programs, args.m, args.bits)),
    }
    ids = [f"p{i:07d}" for i in range(args.programs)]
    code = 0
    for kind in ("sem", "stru") if args.kind == "both" else (args.kind,):
        fmt, param, rows = files[kind]
        path = os.path.join(args.dir, f"repo.{kind}")
        write_records(path, fmt, param, ids, rows())
        out = os.path.join(args.dir, f"hits.{kind}.tsv")
        code |= subprocess.run([sys.executable, "-c", CHILD, path, out, str(args.k)]).returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
