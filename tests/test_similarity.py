import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnsum.similarity import (NeighborList, UndefinedTableError,
                               all_pairs_knn, format_neighbors_tsv,
                               k_nearest_neighbors, log_likelihood_ratio,
                               neighbors_above_threshold, similarity_score)
from knnsum.usage import ContingencyTable, UnknownItemError, UsageMatrix
from oracles import g2_oracle, knn_oracle, rater_sets, threshold_oracle

cells = st.integers(min_value=0, max_value=5000)
tables = st.tuples(cells, cells, cells, cells).filter(lambda t: sum(t) > 0)


def T(*c):
    return ContingencyTable(*c)


# -- log-likelihood ratio -------------------------------------------------------

def test_llr_independence_is_exactly_zero():
    assert log_likelihood_ratio(T(1, 1, 1, 1)) == 0.0


def test_llr_perfect_association():
    assert log_likelihood_ratio(T(10, 0, 0, 10)) == \
        pytest.approx(40 * math.log(2), rel=1e-12)


def test_llr_symmetric_in_off_diagonal():
    assert log_likelihood_ratio(T(3, 5, 2, 90)) == \
        log_likelihood_ratio(T(3, 2, 5, 90))


def test_llr_all_zero_table_rejected():
    with pytest.raises(UndefinedTableError):
        log_likelihood_ratio(T(0, 0, 0, 0))


def test_llr_negative_cell_rejected():
    with pytest.raises(ValueError):
        log_likelihood_ratio(T(-1, 1, 1, 1))


@given(tables)
@settings(max_examples=300)
def test_llr_non_negative_and_symmetric(t):
    k11, k12, k21, k22 = t
    v = log_likelihood_ratio(T(k11, k12, k21, k22))
    assert v >= 0.0
    assert v == log_likelihood_ratio(T(k11, k21, k12, k22))


@given(tables)
@settings(max_examples=300)
def test_llr_matches_g2_oracle(t):
    got = log_likelihood_ratio(T(*t))
    assert got == pytest.approx(g2_oracle(*t), rel=1e-9, abs=1e-9)


def test_llr_rank_one_tables_are_zero():
    # cells proportional to margin products
    for k11, k12, k21, k22 in ((2, 4, 3, 6), (5, 5, 5, 5), (0, 0, 3, 7)):
        assert log_likelihood_ratio(T(k11, k12, k21, k22)) == 0.0


# -- similarity score ------------------------------------------------------------

def test_score_zero_at_independence():
    assert similarity_score(T(1, 1, 1, 1)) == 0.0


def test_score_closed_form():
    expected = 1 - 1 / (1 + 40 * math.log(2))
    assert similarity_score(T(10, 0, 0, 10)) == pytest.approx(expected, rel=1e-12)


# 1 - 1/(1 + G2) maps nearby G2 values onto one double, so in floating
# point the score is monotone in G2 but not strictly monotone.
TIED_TABLES = ((2, 2, 82, 0), (0, 2, 82, 2))


@given(tables, tables)
@example(*TIED_TABLES)
@settings(max_examples=200)
def test_score_monotone_in_llr(t1, t2):
    l1, l2 = log_likelihood_ratio(T(*t1)), log_likelihood_ratio(T(*t2))
    s1, s2 = similarity_score(T(*t1)), similarity_score(T(*t2))
    assert 0.0 <= s1 < 1.0
    if l1 < l2:
        assert s1 <= s2


def test_score_ties_at_distinct_llr():
    t1, t2 = (T(*t) for t in TIED_TABLES)
    assert log_likelihood_ratio(t1) < log_likelihood_ratio(t2)
    assert similarity_score(t1) == similarity_score(t2) == 0.9308089992277382


# -- neighborhoods ----------------------------------------------------------------

def planted_clusters(n_users=10, n_items=5):
    """Two disjoint populations, each rating every item of its own cluster."""
    pairs = []
    for c in (1, 2):
        for u in range(n_users):
            for i in range(n_items):
                pairs.append((f"c{c}u{u}", f"c{c}i{i}"))
    return UsageMatrix(pairs)


def test_knn_recovers_planted_clusters():
    m = planted_clusters()
    for item in sorted(m.items):
        nl = k_nearest_neighbors(m, item, 10)
        cluster = item[:2]
        assert nl.ids(), item
        assert all(nb.startswith(cluster) for nb in nl.ids())
        assert item not in nl.ids()


def test_knn_no_co_raters_means_empty_list():
    m = UsageMatrix([("u1", "x"), ("u2", "a"), ("u2", "b")])
    assert k_nearest_neighbors(m, "x", 5).neighbors == []


def test_knn_k_exceeding_candidates_returns_all_positive():
    m = planted_clusters()
    nl = k_nearest_neighbors(m, "c1i0", 1000)
    assert len(nl) == 4  # its 4 cluster mates only


def test_knn_prefix_property():
    m = planted_clusters()
    small = k_nearest_neighbors(m, "c1i0", 2)
    large = k_nearest_neighbors(m, "c1i0", 4)
    assert large.neighbors[:2] == small.neighbors


def test_knn_unknown_item():
    with pytest.raises(UnknownItemError):
        k_nearest_neighbors(planted_clusters(), "nope", 3)


def test_knn_scores_non_increasing_and_ties_lexicographic():
    m = planted_clusters()
    nl = k_nearest_neighbors(m, "c1i0", 10)
    scores = [s for _, s in nl.neighbors]
    assert scores == sorted(scores, reverse=True)
    # identical rater sets -> all tied -> ascending ids
    assert nl.ids() == sorted(nl.ids())


def test_threshold_zero_keeps_every_positive_item():
    m = planted_clusters()
    assert neighbors_above_threshold(m, "c1i0", 0.0).neighbors == \
        k_nearest_neighbors(m, "c1i0", 1000).neighbors


def test_threshold_above_maximum_is_empty():
    m = planted_clusters()
    top = k_nearest_neighbors(m, "c1i0", 1).neighbors[0][1]
    assert neighbors_above_threshold(m, "c1i0", (1 + top) / 2).neighbors == []


def test_threshold_filters_brute_force_scores():
    rng = random.Random(7)
    pairs = [(f"u{rng.randrange(12)}", f"i{rng.randrange(10)}")
             for _ in range(80)]
    m = UsageMatrix(pairs)
    e = sorted(m.items)[0]
    full = k_nearest_neighbors(m, e, 10_000).neighbors
    tau = 0.5
    assert neighbors_above_threshold(m, e, tau).neighbors == \
        [(i, s) for i, s in full if s > tau]


# -- all-pairs --------------------------------------------------------------------

def test_all_pairs_equals_pointwise_calls():
    m = UsageMatrix([("u1", "a"), ("u1", "b"), ("u2", "a"), ("u2", "c"),
                     ("u3", "b"), ("u3", "c"), ("u4", "a")])
    table = all_pairs_knn(m, 2)
    assert set(table) == set(m.items)
    for item, nl in table.items():
        assert nl.neighbors == knn_oracle(m, item, 2)
        assert k_nearest_neighbors(m, item, 2).neighbors == nl.neighbors


def test_all_pairs_symmetric_twins_pick_each_other():
    pairs = [(f"u{i}", t) for i in range(4) for t in ("a", "b")]
    pairs += [("u9", "c")]
    m = UsageMatrix(pairs)
    table = all_pairs_knn(m, 1)
    assert table["a"].ids() == ["b"]
    assert table["b"].ids() == ["a"]
    assert table["a"].neighbors[0][1] == pytest.approx(
        table["b"].neighbors[0][1], rel=1e-12)


def test_all_pairs_independent_of_blocks_and_workers():
    rng = random.Random(99)
    pairs = [(f"u{rng.randrange(30)}", f"i{rng.randrange(40):02d}")
             for _ in range(400)]
    m = UsageMatrix(pairs)
    base = all_pairs_knn(m, 5, workers=1, block_size=256)
    alt = all_pairs_knn(m, 5, workers=3, block_size=7)
    assert set(base) == set(alt)
    for item in base:
        assert base[item].neighbors == alt[item].neighbors


@pytest.mark.parametrize("argument, value", [
    ("k", 0), ("workers", 0), ("workers", -4), ("block_size", 0),
    ("block_size", -1)])
def test_all_pairs_rejects_non_positive_arguments(argument, value):
    m = UsageMatrix([("u1", "a"), ("u1", "b"), ("u2", "a")])
    with pytest.raises(ValueError, match=f"{argument} must be >= 1"):
        all_pairs_knn(m, **{"k": 3, argument: value})


def test_all_pairs_spot_check_against_scalar_path():
    rng = random.Random(5)
    pairs = [(f"u{rng.randrange(40)}", f"i{rng.randrange(60):02d}")
             for _ in range(600)]
    m = UsageMatrix(pairs)
    table = all_pairs_knn(m, 4)
    for item in rng.sample(sorted(m.items), 20):
        assert table[item].neighbors == knn_oracle(m, item, 4)


@st.composite
def usage_logs(draw):
    """Small binary matrices, with the cases the kernel must not mishandle."""
    n_users = draw(st.integers(1, 9))
    n_items = draw(st.integers(1, 12))
    cells = draw(st.lists(st.booleans(), min_size=n_users * n_items,
                          max_size=n_users * n_items))
    pairs = [(f"u{u}", f"i{i:02d}") for u in range(n_users)
             for i in range(n_items) if cells[u * n_items + i]]
    if draw(st.booleans()):  # rated by every user: its tables have k22 = 0
        pairs += [(f"u{u}", "every") for u in range(n_users)]
    if draw(st.booleans()):  # identical rater sets: their scores all tie
        raters = draw(st.sets(st.integers(0, n_users - 1), min_size=1))
        pairs += [(f"u{u}", f"twin{t}") for t in range(draw(st.integers(2, 4)))
                  for u in sorted(raters)]
    if draw(st.booleans()):  # an item with no co-rater
        pairs += [("loner", "solo")]
    return pairs


@given(usage_logs(), st.integers(1, 5), st.sampled_from([0.0, 0.3, 0.6, 0.9]))
@settings(max_examples=60, deadline=None)
def test_kernel_equals_oracle_bit_for_bit(pairs, k, tau):
    m = UsageMatrix(pairs)
    sets = rater_sets(m)
    want_knn = {e: knn_oracle(m, e, k, sets) for e in m.items}
    want_tau = {e: threshold_oracle(m, e, tau, sets) for e in m.items}
    for block_size, workers in product((1, 7, 256), (1, 3)):
        knn = all_pairs_knn(m, k, workers=workers, block_size=block_size)
        above = all_pairs_knn(m, k, workers=workers, block_size=block_size,
                              tau=tau)
        assert {e: nl.neighbors for e, nl in knn.items()} == want_knn
        assert {e: nl.neighbors for e, nl in above.items()} == want_tau
    for e in m.items:
        assert k_nearest_neighbors(m, e, k).neighbors == want_knn[e]
        assert neighbors_above_threshold(m, e, tau).neighbors == want_tau[e]


def test_kernel_on_empty_matrix_is_empty():
    m = UsageMatrix([])
    assert all_pairs_knn(m, 3) == {}
    assert all_pairs_knn(m, 3, tau=0.5) == {}


def test_kernel_matches_per_table_score_at_large_user_counts():
    # |U| = 9,170 is the smallest count for which numpy's vectorized log
    # and math.log disagree on some CPUs: x ln x must come from the
    # scalar log that log_likelihood_ratio uses.
    pairs = [(f"u{u:05d}", "pad") for u in range(9_170)]
    pairs += [(f"u{u:05d}", "a") for u in range(100)]
    pairs += [(f"u{u:05d}", "b") for u in range(50, 150)]
    pairs += [(f"u{u:05d}", "c") for u in range(120, 9_170)]
    m = UsageMatrix(pairs)
    table = all_pairs_knn(m, 3)
    above = all_pairs_knn(m, 3, tau=0.0)
    for e in m.items:
        assert table[e].neighbors == knn_oracle(m, e, 3)
        assert above[e].neighbors == threshold_oracle(m, e, 0.0)


def test_neighbors_tsv_format():
    nl = NeighborList("a", [("b", 0.9651881944582623), ("c", 0.5)])
    assert format_neighbors_tsv(nl) == "a\tb\t0.965188\na\tc\t0.500000\n"
