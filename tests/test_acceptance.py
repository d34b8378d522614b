"""Release gate: one test per advertised guarantee.

Every test here measures a user-visible property end to end (fidelity,
agreement with an oracle, retrieval quality, throughput, determinism) and
records a single pass/fail line that the terminal summary replays, so a
full run always ends with one verdict per criterion. Tolerances are pinned
in the assertions; if the code regresses, the line says by how much.
"""

import math
import time

import numpy as np

from binsketch import contrastive, kmeans, metrics, search, semantic, structural, synth
from binsketch.cli import main as cli_main
from binsketch.corpus import (
    FunctionRecord,
    ProgramRecord,
    SemanticEmbedding,
    StructuralEmbedding,
)


def test_criterion_1_hashing_fidelity(acceptance):
    """Hashed Jaccard tracks exact set Jaccard, better at longer sketches."""
    start = time.time()
    rng = np.random.default_rng(2024)
    lengths = [1 << 10, 1 << 12, 1 << 14, 1 << 16]
    hashers = {m: structural.FeatureHasher(m=m) for m in lengths}
    errors = {m: [] for m in lengths}
    for _ in range(200):
        size_a = int(rng.integers(1, 2001))
        size_b = int(rng.integers(1, 2001))
        overlap = int(round(float(rng.random()) * min(size_a, size_b)))
        need = size_a + size_b - overlap
        pool = np.unique(rng.integers(0, 1 << 20, size=need + 4000))[:need]
        set_a = pool[:size_a]
        set_b = np.concatenate([pool[:overlap], pool[size_a:]])
        exact = overlap / need
        for m in lengths:
            sketch_a = structural.labels_to_bitvector(set_a, hashers[m])
            sketch_b = structural.labels_to_bitvector(set_b, hashers[m])
            errors[m].append(abs(structural.jaccard(sketch_a, sketch_b) - exact))
    mae = {m: float(np.mean(errors[m])) for m in lengths}
    elapsed = time.time() - start
    chain = mae[1 << 10] >= mae[1 << 12] >= mae[1 << 14] >= mae[1 << 16]
    ok = mae[1 << 16] <= 0.02 and chain and elapsed < 10.0
    acceptance(
        1, ok,
        "hashing fidelity over 200 set pairs: mae m=2^16 {:.4f} (need <=0.02), "
        "chain 2^10 {:.4f} >= 2^12 {:.4f} >= 2^14 {:.4f} >= 2^16, {:.1f}s".format(
            mae[1 << 16], mae[1 << 10], mae[1 << 12], mae[1 << 14], elapsed
        ),
    )


def test_criterion_2_classification_oracle(acceptance):
    """classify() agrees with an exhaustive cosine scan on every vector."""
    start = time.time()
    rng = np.random.default_rng(5)
    centroids = rng.standard_normal((1024, 64))
    centroids /= np.linalg.norm(centroids, axis=1, keepdims=True)
    model = kmeans.CentroidModel(centroids=centroids.astype(np.float32))
    X = rng.standard_normal((10000, 64))
    labels = kmeans.classify(model, X)
    Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
    oracle = np.argmax(Xn @ model.centroids.astype(np.float64).T, axis=1)
    agree = int(np.sum(labels == oracle))
    elapsed = time.time() - start
    ok = agree == 10000 and elapsed < 10.0
    acceptance(
        2, ok,
        f"classification vs exhaustive scan: {agree}/10000 labels agree "
        f"(need 10000), {elapsed:.1f}s",
    )


def test_criterion_3_objective_monotonicity(acceptance):
    """The spherical objective never decreases across training iterations."""
    worst = np.inf
    for seed in range(5):
        X = np.random.default_rng(100 + seed).standard_normal((10000, 64))
        model = kmeans.train(X, n_clusters=256, iterations=30, seed=seed)
        trace = np.asarray(model.objective)
        assert trace.shape == (30,)
        worst = min(worst, float(np.diff(trace).min()))
    ok = worst >= -1e-7
    acceptance(
        3, ok,
        f"objective monotone on 5 datasets (10k x 64, k=256, 30 iters): "
        f"smallest per-iteration increment {worst:.2e} (need >= -1e-7)",
    )


def test_criterion_4_weighting_numerics(acceptance):
    """Hand weight values plus a 100-function pool against an fsum oracle."""
    cfg = semantic.WeightConfig()
    w32 = semantic.weight(32, 0, cfg)
    w0 = semantic.weight(0, 0, cfg)
    hand_ok = abs(w32 - 1.8) <= 1e-9 and abs(w0 - 1.0) <= 1e-9

    rng = np.random.default_rng(42)
    d = 24
    functions = []
    for i in range(100):
        functions.append(
            FunctionRecord(
                function_id=f"p.f{i}",
                embedding=rng.standard_normal(d),
                loc=int(rng.integers(0, 2000)),
                nos=int(rng.integers(0, 60)),
            )
        )
    program = ProgramRecord(program_id="p", functions=functions)
    pooled = semantic.hash_program(program, cfg).values.astype(np.float64)

    oracle = []
    for j in range(d):
        terms = []
        for fn in functions:
            norm = math.sqrt(math.fsum(float(e) * float(e) for e in fn.embedding))
            w = fn.loc ** 0.4 / 5.0 + fn.nos ** 0.45 / 1.0 + 1.0
            terms.append(w * float(fn.embedding[j]) / norm)
        oracle.append(math.fsum(terms) / 100.0)
    gap = float(np.max(np.abs(pooled - np.asarray(oracle))))
    ok = hand_ok and gap <= 1e-5
    acceptance(
        4, ok,
        f"weighting numerics: weight(32,0)={w32:.10f} (need 1.8), "
        f"weight(0,0)={w0:.10f} (need 1.0), 100-function pool vs fsum oracle "
        f"max abs gap {gap:.2e} (need <=1e-5)",
    )


def test_criterion_5_retrieval_metric_values(acceptance):
    """Hand-checked metric values, with the dominance delta enumerated."""
    judgment = [metrics.RelevanceJudgment("q", [1, 0, 1])]
    map_val = metrics.map_at_k(judgment, 3)
    mp_val = metrics.mp_at_k(judgment, 3)
    map_ok = abs(map_val - 0.833333) <= 1e-6
    mp_ok = abs(mp_val - 0.666667) <= 1e-6

    a, b = [1, 2], [2, 3]
    wins = sum(x > y for x in a for y in b)
    losses = sum(x < y for x in a for y in b)
    enumerated = (wins - losses) / (len(a) * len(b))
    delta = metrics.cliffs_delta(a, b)
    delta_ok = delta == enumerated == -0.75
    ok = map_ok and mp_ok and delta_ok
    acceptance(
        5, ok,
        f"retrieval metrics: map@3={map_val:.6f} (need 0.833333), "
        f"mp@3={mp_val:.6f} (need 0.666667), cliffs_delta([1,2],[2,3])={delta} "
        f"matching enumeration ({wins} wins, {losses} losses, 1 tie over 4 pairs; "
        f"a -0.5 reading would count the tie as a win and break delta(x,x)=0)",
    )


def test_criterion_6_gradient_check(acceptance):
    """Analytic gradients against central differences computed here."""
    rng = np.random.default_rng(11)
    batch = contrastive.PairedBatch(
        source=rng.standard_normal((8, 16)),
        pseudo=rng.standard_normal((8, 16)),
        temperature=10.0,
    )
    analytic = contrastive.loss_grad(batch)
    step = 1e-5
    worst = 0.0
    for M, dM in ((batch.source, analytic.d_source), (batch.pseudo, analytic.d_pseudo)):
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                saved = M[i, j]
                M[i, j] = saved + step
                up = contrastive.loss(batch)
                M[i, j] = saved - step
                down = contrastive.loss(batch)
                M[i, j] = saved
                numeric = (up - down) / (2 * step)
                err = abs(dM[i, j] - numeric)
                worst = max(worst, err / max(abs(dM[i, j]), abs(numeric), 1e-6))
    batch.temperature = 10.0 + step
    up = contrastive.loss(batch)
    batch.temperature = 10.0 - step
    down = contrastive.loss(batch)
    batch.temperature = 10.0
    numeric = (up - down) / (2 * step)
    err = abs(analytic.d_temperature - numeric)
    worst = max(worst, err / max(abs(analytic.d_temperature), abs(numeric), 1e-6))

    single = contrastive.PairedBatch(
        source=rng.standard_normal((1, 16)),
        pseudo=rng.standard_normal((1, 16)),
        temperature=10.0,
    )
    lone = contrastive.loss(single)
    ok = worst <= 1e-3 and abs(lone) <= 1e-9
    acceptance(
        6, ok,
        f"gradient check (n=8, d=16, t=10): max relative error {worst:.2e} "
        f"(need <=1e-3), single-pair loss {lone:.2e} (need <=1e-9)",
    )


def _map_at_100(repo_entries, query_entries, class_map):
    repo = search.build(repo_entries)
    found = search.batch_search(repo, [emb for _, emb in query_entries], k=100, workers=4)
    results = [
        (pid, [(hit.program_id, hit.score) for hit in res.hits])
        for (pid, _), res in zip(query_entries, found)
    ]
    judgments, _ = metrics.judgments_from_results(
        results, class_map, k=100, repo_ids=[pid for pid, _ in repo_entries]
    )
    return metrics.map_at_k(judgments, 100)


def _clone_search_run(reuse):
    cfg = synth.SynthConfig(
        classes=200,
        programs_per_class=10,
        queries_per_class=1,
        functions_per_program=150,
        d=32,
        reuse=reuse,
        noise=0.45,
    )
    repo_programs, query_programs = synth.generate(cfg, seed=0)
    class_map = synth.class_map(repo_programs)
    class_map.update(synth.class_map(query_programs))

    X = np.stack([fn.embedding for prog in repo_programs for fn in prog.functions])
    sample = X[np.random.default_rng(7).choice(X.shape[0], size=30000, replace=False)]
    model = kmeans.train(sample, n_clusters=512, iterations=30, seed=1)

    hasher = structural.FeatureHasher()
    scores = {}
    stru = {
        side: [(p.program_id, structural.hash_program(p, model, hasher)) for p in progs]
        for side, progs in (("repo", repo_programs), ("query", query_programs))
    }
    scores["stru"] = _map_at_100(stru["repo"], stru["query"], class_map)
    for name, mode in (("sem", "full"), ("mean", "mean_pooling")):
        wcfg = semantic.WeightConfig(mode=mode)
        pooled = {
            side: [(p.program_id, semantic.hash_program(p, wcfg)) for p in progs]
            for side, progs in (("repo", repo_programs), ("query", query_programs))
        }
        scores[name] = _map_at_100(pooled["repo"], pooled["query"], class_map)

    control_rng = np.random.default_rng(99)
    def random_unit(_):
        v = control_rng.standard_normal(32)
        return SemanticEmbedding((v / np.linalg.norm(v)).astype(np.float32))
    scores["control"] = _map_at_100(
        [(p.program_id, random_unit(p)) for p in repo_programs],
        [(p.program_id, random_unit(p)) for p in query_programs],
        class_map,
    )
    return scores


def test_criterion_7_end_to_end_clone_search(acceptance):
    """Synthetic clone search: both sketches work; weighting survives reuse."""
    start = time.time()
    clean = _clone_search_run(reuse=0.0)
    reused = _clone_search_run(reuse=0.8)
    elapsed = time.time() - start
    gap = reused["sem"] - reused["mean"]
    ok = (
        clean["stru"] >= 0.95
        and clean["sem"] >= 0.95
        and clean["control"] <= 0.05
        and gap >= 0.03
        and elapsed < 300.0
    )
    acceptance(
        7, ok,
        "clone search (200 classes x 10, 150 fns, noise 0.45): reuse=0 "
        "stru={stru:.3f} sem={sem:.3f} (need >=0.95) control={control:.3f} "
        "(need <=0.05); reuse=0.8 sem={rsem:.3f} mean={rmean:.3f} "
        "gap={gap:+.3f} (need >=0.03); {secs:.0f}s".format(
            stru=clean["stru"], sem=clean["sem"], control=clean["control"],
            rsem=reused["sem"], rmean=reused["mean"], gap=gap, secs=elapsed,
        ),
    )


def test_criterion_8_scoring_throughput(acceptance):
    """The packed-popcount kernel sustains bulk Jaccard scoring."""
    start = time.time()
    rng = np.random.default_rng(3)
    words = rng.integers(0, 1 << 63, size=(2048, 1024), dtype=np.uint64)
    entries = [
        (f"p{i:05d}", StructuralEmbedding(words[i].copy(), m=1 << 16))
        for i in range(2048)
    ]
    repo = search.build(entries)
    queries = [emb for _, emb in entries[:32]]
    report = search.bench(repo, queries, rounds=3)
    elapsed = time.time() - start
    ok = report.per_second >= 100_000 and elapsed < 60.0
    acceptance(
        8, ok,
        f"throughput at m=2^16: {report.comparisons} comparisons in "
        f"{report.seconds:.2f}s = {report.per_second:,.0f}/s (need >=100,000), "
        f"total {elapsed:.1f}s",
    )


def test_criterion_9_determinism(acceptance, tmp_path):
    """Same seeds, same bytes: every artifact of two CLI runs is identical."""
    def run(base):
        base.mkdir()
        argv = [
            "synth", "--classes", "4", "--programs-per-class", "3",
            "--queries-per-class", "1", "--functions-per-program", "12",
            "--d", "6", "--seed", "0",
            "--out-repo", str(base / "repo.tsv"),
            "--out-query", str(base / "query.tsv"),
        ]
        assert cli_main(argv) == 0
        assert cli_main([
            "kmeans-train", "--corpus", str(base / "repo.tsv"),
            "--n-clusters", "48", "--iterations", "10", "--seed", "1",
            "--out", str(base / "model.km"),
        ]) == 0
        for mode, name in (("stru", "repo.stru"), ("sem", "repo.sem")):
            assert cli_main([
                "hash", "--corpus", str(base / "repo.tsv"), "--mode", mode,
                "--model", str(base / "model.km"), "--m", "1024",
                "--out", str(base / name),
            ]) == 0
        assert cli_main([
            "hash", "--corpus", str(base / "query.tsv"), "--mode", "stru",
            "--model", str(base / "model.km"), "--m", "1024",
            "--out", str(base / "query.stru"),
        ]) == 0
        for workers, name in (("1", "hits.tsv"), ("4", "hits_w4.tsv")):
            assert cli_main([
                "index-search", "--repo-emb", str(base / "repo.stru"),
                "--query-emb", str(base / "query.stru"), "--k", "5",
                "--workers", workers, "--out", str(base / name),
            ]) == 0

    run(tmp_path / "run1")
    run(tmp_path / "run2")
    artifacts = ["repo.tsv", "model.km", "repo.stru", "repo.sem", "hits.tsv"]
    identical = [
        name for name in artifacts
        if (tmp_path / "run1" / name).read_bytes() == (tmp_path / "run2" / name).read_bytes()
    ]
    worker_invariant = (
        (tmp_path / "run1" / "hits.tsv").read_bytes()
        == (tmp_path / "run1" / "hits_w4.tsv").read_bytes()
    )
    ok = len(identical) == len(artifacts) and worker_invariant
    acceptance(
        9, ok,
        f"determinism: {len(identical)}/{len(artifacts)} artifacts byte-identical "
        f"across reruns (corpus, model, both embeddings, results); "
        f"worker count invariance {'holds' if worker_invariant else 'BROKEN'}",
    )
