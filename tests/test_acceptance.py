"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The scale check (criterion 10) builds a HetRec-shaped synthetic
dataset and takes the longest; everything else finishes in seconds.
"""

import io
import json
import math
import random
import subprocess
import sys
import time
from itertools import product

import numpy as np
import pytest

from conftest import write_eight_film_corpus
from knnsum.cli import load_links, main, read_bundle
from knnsum.rdf import (Triple, TripleStore, iri, load_ntriples,
                        term_key, write_ntriples)
from knnsum.similarity import all_pairs_knn, log_likelihood_ratio
from knnsum.summarize import entity_universe, feature_weights
from knnsum.usage import ContingencyTable, UsageMatrix
from oracles import (FILM, KNN, brute_feature_weights, brute_features,
                     g2_oracle, knn_oracle, random_store,
                     random_two_hop_store, brute_two_hop, rater_sets)


def report(n, text):
    print(f"PASS criterion {n}: {text}")


def sweep_tables():
    for t in product(range(7), repeat=4):
        if sum(t) > 0:
            yield t


def test_criterion_1_llr_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for t in sweep_tables():
        got = log_likelihood_ratio(ContingencyTable(*t))
        want = g2_oracle(*t)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9), t
        checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 7 ** 4 - 1
    assert elapsed < 1.0
    report(1, f"{checked} tables match the G2 oracle "
              f"(rel 1e-9) in {elapsed:.2f}s")


def test_criterion_2_independence_zero():
    assert log_likelihood_ratio(ContingencyTable(1, 1, 1, 1)) == 0.0
    rank1 = 0
    for t in sweep_tables():
        k11, k12, k21, k22 = t
        if k11 * k22 == k12 * k21:
            assert log_likelihood_ratio(ContingencyTable(*t)) < 1e-9
            rank1 += 1
    report(2, f"LLR(1,1,1,1) == 0.0 exactly; {rank1} rank-1 tables "
              "all below 1e-9")


def test_criterion_3_symmetry_bit_for_bit():
    rng = random.Random(42)
    for _ in range(10_000):
        t = tuple(rng.randrange(0, 10_000) for _ in range(4))
        if sum(t) == 0:
            continue
        k11, k12, k21, k22 = t
        a = log_likelihood_ratio(ContingencyTable(k11, k12, k21, k22))
        b = log_likelihood_ratio(ContingencyTable(k11, k21, k12, k22))
        assert a == b  # bitwise
    report(3, "10,000 random tables symmetric in (k12, k21) bit-for-bit")


def test_criterion_4_planted_cluster_recovery():
    start = time.perf_counter()
    pairs = []
    for c in (1, 2):
        for u in range(10):
            for i in range(5):
                pairs.append((f"c{c}u{u}", f"c{c}i{i}"))
    m = UsageMatrix(pairs)
    table = all_pairs_knn(m, 20)
    for item in sorted(m.items):
        nl = table[item]
        assert nl.ids()
        assert all(nb[:2] == item[:2] for nb in nl.ids()), item
        assert nl.neighbors == knn_oracle(m, item, 20)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(4, f"all {len(m.items)} items keep neighbors inside their own "
              f"cluster in {elapsed:.2f}s")


def _random_store_cases(seed=101, count=100):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_store(rng, max_entities=50, max_features=20)


def test_criterion_5_weight_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    for store, triples in _random_store_cases():
        universe = entity_universe(store, FILM)
        for e in sorted(universe, key=lambda t: t.lexical):
            got = {wf.feature: (wf.neighbor_support, wf.global_support,
                                wf.weight)
                   for wf in feature_weights(store, e, universe, KNN)}
            want = brute_feature_weights(triples, e, KNN, FILM)
            assert got.keys() == want.keys()
            for f in want:
                assert got[f][:2] == want[f][:2]
                assert abs(got[f][2] - want[f][2]) <= 1e-12
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(5, f"weights match the triple-scan recount for {checked} "
              f"entities over 100 random stores in {elapsed:.2f}s")


def test_criterion_6_downgrading_universal_features():
    seen = 0
    for store, triples in _random_store_cases():
        universe = entity_universe(store, FILM)
        universal = {f for f in brute_features(triples, next(iter(universe)),
                                               KNN)
                     if universe <= store.subjects_with(f.property, f.value)}
        for e in universe:
            for wf in feature_weights(store, e, universe, KNN):
                if wf.feature in universal:
                    assert wf.weight == 0.0
                    seen += 1
    assert seen > 0
    report(6, f"{seen} occurrences of universe-wide features all "
              "weigh exactly 0")


def test_criterion_7_log_base_invariance():
    compared = 0
    for store, triples in _random_store_cases():
        universe = entity_universe(store, FILM)
        for e in sorted(universe, key=lambda t: t.lexical):
            natural = feature_weights(store, e, universe, KNN)
            base2 = sorted(
                natural,
                key=lambda wf: (
                    -(wf.neighbor_support
                      * math.log2(len(universe) / wf.global_support)),
                    -wf.neighbor_support,
                    tuple(term_key(t) for t in wf.feature)))
            assert [wf.feature for wf in base2] == \
                   [wf.feature for wf in natural]
            compared += 1
    report(7, f"base-2 reweighting preserves the feature ordering for "
              f"{compared} entities")


def test_criterion_8_two_hop_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(202)
    checked = 0
    for _ in range(100):
        store, triples, _ = random_two_hop_store(rng)
        assert len(triples) <= 200
        typed = entity_universe(store, FILM)
        for e in sorted(typed, key=lambda t: t.lexical):
            neighbors = (store.objects_of(e, KNN) & typed) - {e}
            assert store.shared_two_hop_paths(e, neighbors, (KNN,)) == \
                brute_two_hop(triples, e, KNN, FILM)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    report(8, f"two-hop query equals the nested-scan oracle for {checked} "
              f"entities over 100 random stores in {elapsed:.2f}s")


def test_criterion_9_end_to_end_fixture_determinism(tmp_path, capsys):
    def one_run(workers):
        root = tmp_path / f"run-w{workers}-{one_run.counter}"
        one_run.counter += 1
        root.mkdir()
        corpus = write_eight_film_corpus(root)
        assert main(["build", "--config", str(corpus.config),
                     "--workers", str(workers)]) == 0
        capsys.readouterr()
        assert main(["summarize", "--config", str(corpus.config),
                     "--format", "structured", "--all"]) == 0
        out = capsys.readouterr().out
        return corpus.bundle.read_bytes(), out.encode()
    one_run.counter = 0

    runs = [one_run(1) for _ in range(5)] + [one_run(4)]
    bundles = {b for b, _ in runs}
    outputs = {o for _, o in runs}
    assert len(bundles) == 1 and len(outputs) == 1

    text = runs[0][1].decode()
    m1_block = [b for b in text.split("\n\n") if "film/M1>" in b][0]
    weights = [float(line.split("weight=")[1].split("\t")[0])
               for line in m1_block.splitlines() if "weight=" in line]
    assert weights[0] == pytest.approx(3 * math.log(2), abs=5e-7)
    assert weights[1] == pytest.approx(math.log(4), abs=5e-7)
    assert weights[2] == 0.0
    assert weights == sorted(weights, reverse=True)
    report(9, "8-film fixture: weights 2.079 / 1.386 / 0 in order, "
              "byte-identical over 5 runs and 1 vs 4 worker threads")


def _hetrec_shaped_corpus(root):
    n_users, n_items, n_events = 2_113, 10_197, 855_000
    rng = np.random.default_rng(7)
    per_user = np.full(n_users, n_events // n_users)
    per_user[:n_events % n_users] += 1
    lines = ["userID\tmovieID\trating"]
    pairs = []
    for u in range(n_users):
        items = rng.choice(n_items, size=per_user[u], replace=False)
        uid = f"u{u:04d}"
        for i in items:
            iid = f"i{i:05d}"
            pairs.append((uid, iid))
            lines.append(f"{uid}\t{iid}\t3.5")
    (root / "ratings.dat").write_text("\n".join(lines) + "\n")
    nt = []
    links = []
    for i in range(n_items):
        e = f"http://example.org/film/F{i:05d}"
        nt.append(f"<{e}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
                  f"<http://example.org/Film> .")
        links.append(f"i{i:05d}\t{e}")
    (root / "graph.nt").write_text("\n".join(nt) + "\n")
    (root / "links.tsv").write_text("\n".join(links) + "\n")
    (root / "pipeline.cfg").write_text(
        f"ratings = {root / 'ratings.dat'}\n"
        f"triples = {root / 'graph.nt'}\n"
        f"links = {root / 'links.tsv'}\n"
        f"bundle = {root / 'bundle.json'}\n"
        "type_filter = http://example.org/Film\n"
        "rating_col = 2\n"
        "workers = 4\n")
    return pairs


@pytest.mark.slow
def test_criterion_10_scale_check(tmp_path, capsys):
    pairs = _hetrec_shaped_corpus(tmp_path)
    start = time.perf_counter()
    assert main(["build", "--config", str(tmp_path / "pipeline.cfg"),
                 "--k", "20"]) == 0
    elapsed = time.perf_counter() - start
    capsys.readouterr()
    assert elapsed < 300.0

    bundle = read_bundle(str(tmp_path / "bundle.json"))
    matrix = UsageMatrix(pairs)
    sets = rater_sets(matrix)
    rng = random.Random(11)
    for item in rng.sample(sorted(matrix.items), 20):
        got = bundle["neighbors"][item]
        assert [(i, s) for i, s in got] == knn_oracle(matrix, item, 20, sets)
    report(10, f"build over 2,113 x 10,197 (~855k events) finished in "
               f"{elapsed:.0f}s; 20 spot-checked neighbor lists match")


def test_criterion_11_ntriples_round_trip(eight_film_store):
    stores = [eight_film_store]
    rng = random.Random(33)
    stores += [random_store(rng)[0] for _ in range(5)]
    stores += [random_two_hop_store(rng)[0] for _ in range(5)]
    for store in stores:
        buf = io.StringIO()
        write_ntriples(store, buf)
        reloaded, diags = load_ntriples(io.StringIO(buf.getvalue()))
        assert not diags
        assert reloaded == store
        assert set(reloaded) == set(store)
    report(11, f"{len(stores)} fixture stores round-trip through "
               "N-Triples unchanged")
