#!/usr/bin/env python3
"""Scale check: time and peak memory of indexing a large structural sketch file.

Writes a KHSTRU1 file of many programs with a few random set bits each
(the shape of the ``scan`` benchmark's sketches) from numpy rows through
``corpus.write_records``, then indexes it with
``binsketch.search.load_index`` in a fresh Python process and prints the
index time, the kernel the index chose, and that process's peak resident
memory (``ru_maxrss``). At m = 2**16 each program costs 8,208 bytes, so the
default 50,000 programs make a 410 MB file; delete it afterwards.

Example:
    PYTHONPATH=src python3 scripts/stru_scale_check.py --out /tmp/scale.stru
"""

import argparse
import os
import subprocess
import sys

import numpy as np

from binsketch.corpus import STRUCTURAL, write_records

CHILD = """
import resource, sys, time
from binsketch.search import load_index
start = time.perf_counter()
index = load_index(sys.argv[1])
seconds = time.perf_counter() - start
peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
kernel = type(index.rows).__name__
print(f"programs={len(index)} load_index_s={seconds:.3f} kernel={kernel} peak_rss_mb={peak:.1f}")
"""


def write_sketches(path: str, programs: int, m: int, bits: int, seed: int) -> None:
    """Programs ``p0000000``... with ``bits`` random bit positions each
    (repeats collapse), made and written a block of programs at a time."""
    rng = np.random.default_rng(seed)

    def blocks(block: int = 1024):
        for start in range(0, programs, block):
            n = min(block, programs - start)
            rows = np.zeros((n, m // 64), dtype=np.uint64)
            flat = rng.integers(0, m, size=n * bits)
            owners = np.repeat(np.arange(n), bits)
            np.bitwise_or.at(rows, (owners, flat >> 6), np.uint64(1) << (flat & 63).astype(np.uint64))
            yield rows

    write_records(path, STRUCTURAL, m, [f"p{i:07d}" for i in range(programs)], blocks())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="where to write the KHSTRU1 file")
    parser.add_argument("--programs", type=int, default=50_000)
    parser.add_argument("--m", type=int, default=1 << 16)
    parser.add_argument("--bits", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    if args.programs < 1 or args.bits < 1 or args.m < 64 or args.m % 64:
        parser.error("need --programs >= 1, --bits >= 1 and --m a positive multiple of 64")

    write_sketches(args.out, args.programs, args.m, args.bits, args.seed)
    print(f"file={args.out} bytes={os.path.getsize(args.out)}", flush=True)
    return subprocess.run([sys.executable, "-c", CHILD, args.out]).returncode


if __name__ == "__main__":
    sys.exit(main())
