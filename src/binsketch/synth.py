"""Synthetic labeled corpora for end-to-end clone-search experiments.

Each class owns a pool of base functions; every program of the class is
built from the whole pool, so same-class programs are clones by
construction. A configurable fraction of each program instead comes from
one global shared pool included in *every* program, which models heavy
cross-project code reuse: at high reuse, programs from different classes
share most of their functions and only the class pool tells them apart.

Shared-pool functions are small (low loc, few strings) while class-pool
functions are substantial, mirroring the observation that boilerplate is
plentiful and tiny whereas distinctive logic is big. Instances are the
base embedding plus isotropic Gaussian noise scaled so that ``noise`` is
roughly the ratio of perturbation length to the unit base vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corpus import FunctionRecord, ProgramRecord
from .errors import ConfigError


@dataclass(frozen=True)
class SynthConfig:
    classes: int
    programs_per_class: int
    queries_per_class: int = 1
    functions_per_program: int = 150
    d: int = 32
    reuse: float = 0.0
    noise: float = 0.0
    class_loc: tuple[int, int] = (100, 1000)
    class_nos: tuple[int, int] = (5, 50)
    shared_loc: tuple[int, int] = (1, 16)
    shared_nos: tuple[int, int] = (0, 2)

    def __post_init__(self):
        if self.classes < 1:
            raise ConfigError(f"classes must be >= 1, got {self.classes}")
        if self.programs_per_class < 1:
            raise ConfigError(f"programs_per_class must be >= 1, got {self.programs_per_class}")
        if self.queries_per_class < 0:
            raise ConfigError(f"queries_per_class must be >= 0, got {self.queries_per_class}")
        if self.functions_per_program < 1:
            raise ConfigError(
                f"functions_per_program must be >= 1, got {self.functions_per_program}"
            )
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if not 0.0 <= self.reuse <= 1.0:
            raise ConfigError(f"reuse must be in [0, 1], got {self.reuse}")
        if self.shared_count >= self.functions_per_program:
            raise ConfigError(
                f"reuse={self.reuse} leaves no class-specific functions "
                f"({self.shared_count} of {self.functions_per_program} shared)"
            )
        if not 0 <= self.noise < math.inf:
            raise ConfigError(f"noise must be finite and >= 0, got {self.noise}")
        for name in ("class_loc", "class_nos", "shared_loc", "shared_nos"):
            lo, hi = getattr(self, name)
            if lo < 0 or hi < lo:
                raise ConfigError(f"{name} must be 0 <= lo <= hi, got ({lo}, {hi})")

    @property
    def shared_count(self) -> int:
        return int(round(self.reuse * self.functions_per_program))


@dataclass(frozen=True)
class _Base:
    label: int
    vector: np.ndarray
    loc: int
    nos: int


def _make_pool(
    rng: np.random.Generator,
    count: int,
    d: int,
    first_label: int,
    loc_range: tuple[int, int],
    nos_range: tuple[int, int],
) -> list[_Base]:
    pool = []
    for i in range(count):
        vec = rng.standard_normal(d)
        vec /= np.linalg.norm(vec)
        pool.append(
            _Base(
                label=first_label + i,
                vector=vec,
                loc=int(rng.integers(loc_range[0], loc_range[1] + 1)),
                nos=int(rng.integers(nos_range[0], nos_range[1] + 1)),
            )
        )
    return pool


def _instantiate(
    rng: np.random.Generator, cfg: SynthConfig, program_id: str, class_id: str,
    bases: list[_Base],
) -> ProgramRecord:
    order = rng.permutation(len(bases))
    embeddings = np.array([bases[idx].vector for idx in order])
    if cfg.noise > 0:
        # One draw for the program gives the values of one draw per function.
        # A finite noise near the float64 limit can still overflow.
        with np.errstate(over="ignore"):
            embeddings += cfg.noise * rng.standard_normal(embeddings.shape) / np.sqrt(cfg.d)
        if not np.isfinite(embeddings).all():
            raise ConfigError(f"noise must keep embeddings finite, got {cfg.noise}")
    functions = [
        FunctionRecord(
            function_id=f"{program_id}.f{slot:04d}",
            embedding=emb,
            loc=bases[idx].loc,
            nos=bases[idx].nos,
            class_label=bases[idx].label,
        )
        for slot, (idx, emb) in enumerate(zip(order, embeddings))
    ]
    return ProgramRecord(program_id=program_id, functions=functions, class_id=class_id)


def generate(cfg: SynthConfig, seed: int = 0) -> tuple[list[ProgramRecord], list[ProgramRecord]]:
    """Build (repository_programs, query_programs), deterministic in ``seed``.

    Every program holds exactly ``functions_per_program`` functions: the
    full shared pool plus the full pool of its class, in shuffled order.
    Function ``class_label`` fields carry the ground-truth base identity
    and program ``class_id`` fields the clone class.
    """
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    shared = _make_pool(
        rng, cfg.shared_count, cfg.d, 0, cfg.shared_loc, cfg.shared_nos
    )
    class_size = cfg.functions_per_program - cfg.shared_count
    pools = []
    for c in range(cfg.classes):
        first = cfg.shared_count + c * class_size
        pools.append(
            _make_pool(rng, class_size, cfg.d, first, cfg.class_loc, cfg.class_nos)
        )

    repository = []
    queries = []
    for c in range(cfg.classes):
        class_id = f"C{c:04d}"
        bases = shared + pools[c]
        for p in range(cfg.programs_per_class):
            repository.append(
                _instantiate(rng, cfg, f"{class_id}P{p:03d}", class_id, bases)
            )
        for q in range(cfg.queries_per_class):
            queries.append(
                _instantiate(rng, cfg, f"{class_id}Q{q:03d}", class_id, bases)
            )
    return repository, queries


def class_map(programs: list[ProgramRecord]) -> dict[str, str]:
    """program_id -> class_id for every program that has a class."""
    return {p.program_id: p.class_id for p in programs if p.class_id is not None}


def label_pool(program: ProgramRecord) -> set[int]:
    """The set of ground-truth base labels appearing in a program."""
    return {fn.class_label for fn in program.functions if fn.class_label is not None}
