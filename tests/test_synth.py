from collections import Counter
from itertools import combinations

import numpy as np
import pytest

from binsketch.errors import ConfigError
from binsketch import synth
from binsketch.synth import SynthConfig, class_map, generate


def small_cfg(**over):
    base = dict(
        classes=4,
        programs_per_class=3,
        queries_per_class=2,
        functions_per_program=20,
        d=8,
    )
    base.update(over)
    return SynthConfig(**base)


class TestConfig:
    def test_shared_count_rounds(self):
        assert small_cfg(reuse=0.5).shared_count == 10
        assert small_cfg(reuse=0.0).shared_count == 0
        assert small_cfg(reuse=0.33).shared_count == 7

    @pytest.mark.parametrize(
        "over",
        [
            {"classes": 0},
            {"programs_per_class": 0},
            {"queries_per_class": -1},
            {"functions_per_program": 0},
            {"d": 0},
            {"reuse": -0.1},
            {"reuse": 1.5},
            {"noise": -1.0},
            {"reuse": 1.0},  # leaves no class-specific functions
        ],
    )
    def test_invalid_configs_rejected(self, over):
        with pytest.raises(ConfigError):
            small_cfg(**over)


class TestGenerate:
    def test_shapes_and_ids(self):
        cfg = small_cfg()
        repo, queries = generate(cfg, seed=0)
        assert len(repo) == 12
        assert len(queries) == 8
        assert all(len(p.functions) == 20 for p in repo + queries)
        assert len({p.program_id for p in repo + queries}) == 20
        assert all(fn.d == 8 for p in repo for fn in p.functions)

    def test_deterministic_per_seed(self):
        cfg = small_cfg(noise=0.3, reuse=0.4)
        a = generate(cfg, seed=7)
        b = generate(cfg, seed=7)
        assert a[0] == b[0]
        assert a[1] == b[1]
        c = generate(cfg, seed=8)
        assert c[0] != a[0]

    def test_every_function_carries_ground_truth(self):
        repo, queries = generate(small_cfg(), seed=1)
        for prog in repo + queries:
            assert prog.class_id is not None
            assert all(fn.class_label is not None for fn in prog.functions)

    def test_same_class_programs_share_label_multisets_at_zero_noise(self):
        repo, queries = generate(small_cfg(reuse=0.25), seed=3)
        by_class: dict[str, list] = {}
        for prog in repo + queries:
            by_class.setdefault(prog.class_id, []).append(prog)
        for progs in by_class.values():
            reference = Counter(fn.class_label for fn in progs[0].functions)
            for other in progs[1:]:
                assert Counter(fn.class_label for fn in other.functions) == reference

    def test_zero_noise_instances_are_exact_copies(self):
        repo, _ = generate(small_cfg(), seed=5)
        same_class = [p for p in repo if p.class_id == repo[0].class_id]
        a = {fn.class_label: fn.embedding.tobytes() for fn in same_class[0].functions}
        b = {fn.class_label: fn.embedding.tobytes() for fn in same_class[1].functions}
        assert a == b

    def test_noise_perturbs_but_keeps_labels(self):
        repo, _ = generate(small_cfg(noise=0.2), seed=5)
        same_class = [p for p in repo if p.class_id == repo[0].class_id]
        a = {fn.class_label: fn.embedding for fn in same_class[0].functions}
        b = {fn.class_label: fn.embedding for fn in same_class[1].functions}
        assert set(a) == set(b)
        diffs = [np.linalg.norm(a[k] - b[k]) for k in a]
        assert all(d > 0 for d in diffs)
        assert np.mean(diffs) < 1.0

    def test_disjoint_class_pools_without_reuse(self):
        repo, _ = generate(small_cfg(), seed=2)
        pools: dict[str, set] = {}
        for prog in repo:
            pools.setdefault(prog.class_id, set()).update(fn.class_label for fn in prog.functions)
        for a, b in combinations(pools.values(), 2):
            assert not (a & b)

    def test_reuse_09_inter_class_pool_jaccard(self):
        cfg = SynthConfig(
            classes=6,
            programs_per_class=2,
            queries_per_class=0,
            functions_per_program=150,
            d=4,
            reuse=0.9,
        )
        repo, _ = generate(cfg, seed=0)
        sims = []
        for a, b in combinations(repo, 2):
            if a.class_id == b.class_id:
                continue
            pa, pb = ({fn.class_label for fn in p.functions} for p in (a, b))
            sims.append(len(pa & pb) / len(pa | pb))
        mean_jaccard = float(np.mean(sims))
        assert mean_jaccard >= 0.7
        # exact construction value: shared / (2*class - shared + shared)
        assert mean_jaccard == pytest.approx(135 / 165, abs=1e-12)

    def test_shared_functions_are_small_class_functions_big(self):
        repo, _ = generate(small_cfg(reuse=0.5), seed=4)
        shared_count = small_cfg(reuse=0.5).shared_count
        for prog in repo:
            for fn in prog.functions:
                if fn.class_label < shared_count:
                    assert 1 <= fn.loc <= 16
                    assert 0 <= fn.nos <= 2
                else:
                    assert 100 <= fn.loc <= 1000
                    assert 5 <= fn.nos <= 50

    def test_zero_queries_allowed(self):
        repo, queries = generate(small_cfg(queries_per_class=0), seed=0)
        assert queries == []
        assert len(repo) == 12

    def test_class_map_covers_everything(self):
        repo, queries = generate(small_cfg(), seed=0)
        mapping = class_map(repo + queries)
        assert len(mapping) == 20
        assert mapping["C0001P000"] == "C0001"
        assert mapping["C0001Q001"] == "C0001"


@pytest.mark.parametrize("noise", [0.0, 0.45])
def test_embeddings_match_one_draw_per_function(noise):
    # The reference: each function's noise drawn on its own, in program
    # order after the program's permutation; generate draws a program's
    # noise as one matrix, which must give the same bits.
    cfg = small_cfg(noise=noise, reuse=0.25)
    repo, queries = generate(cfg, seed=9)
    rng = np.random.default_rng(9)
    shared = synth._make_pool(rng, cfg.shared_count, cfg.d, 0, synth._SHARED_LOC,
                              synth._SHARED_NOS)
    size = cfg.functions_per_program - cfg.shared_count
    pools = [synth._make_pool(rng, size, cfg.d, cfg.shared_count + c * size, synth._CLASS_LOC,
                              synth._CLASS_NOS) for c in range(cfg.classes)]
    P, Q = cfg.programs_per_class, cfg.queries_per_class
    for c in range(cfg.classes):  # generate's order: a class's programs, then its queries
        bases = shared + pools[c]
        for program in repo[c * P:(c + 1) * P] + queries[c * Q:(c + 1) * Q]:
            assert program.class_id == f"C{c:04d}"
            for fn, idx in zip(program.functions, rng.permutation(len(bases))):
                expected = bases[idx].vector.copy()
                if noise:
                    expected = expected + noise * rng.standard_normal(cfg.d) / np.sqrt(cfg.d)
                assert fn.embedding.tobytes() == expected.tobytes()
                assert fn.class_label == bases[idx].label
