import io
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from knnsum.usage import (ContingencyTable, InvalidPairError, RatingsFormat,
                          UnknownItemError, UsageMatrix, cooccurrence,
                          ingest_ratings)
from oracles import brute_contingency, random_usage_log

NO_HEADER = RatingsFormat(header=False)


def test_ingest_collapses_duplicate_pairs():
    src = io.StringIO("u1\ta\nu1\tb\nu2\ta\nu2\ta\n")
    result = ingest_ratings(src, NO_HEADER)
    m = result.matrix
    assert m.users == ["u1", "u2"]
    assert m.items == ["a", "b"]
    assert m.raters_of("a") == {"u1", "u2"}
    assert m.raters_of("b") == {"u1"}
    assert result.rejected == []


def test_ingest_header_only_stream_is_empty():
    result = ingest_ratings(io.StringIO("userID\tmovieID\n"), RatingsFormat())
    assert result.matrix.total_users == 0
    assert result.matrix.items == []


def test_ingest_rejects_line_missing_item_column():
    src = io.StringIO("u1\ta\nu2\tb\nu3\nu4\tc\n")
    result = ingest_ratings(src, NO_HEADER)
    assert len(result.matrix.items) == 3
    assert len(result.rejected) == 1
    assert result.rejected[0].line_no == 3


def test_ingest_validates_rating_column_presence():
    fmt = RatingsFormat(header=False, rating_col=2)
    src = io.StringIO("u1\ta\t5.0\nu2\tb\n")
    result = ingest_ratings(src, fmt)
    # rating value is required on the line but never stored
    assert result.matrix.items == ["a"]
    assert len(result.rejected) == 1


def test_ingest_rejects_empty_ids():
    src = io.StringIO("u1\ta\n\tb\nu2\t\n")
    result = ingest_ratings(src, NO_HEADER)
    assert result.matrix.items == ["a"]
    assert len(result.rejected) == 2


@pytest.mark.parametrize("layout, field", [
    ({"delimiter": ""}, "delimiter"), ({"user_col": -1}, "user_col"),
    ({"item_col": -2}, "item_col"), ({"rating_col": -1}, "rating_col"),
    ({"timestamp_col": -1}, "timestamp_col"),
    ({"user_col": 1, "item_col": 1}, "user_col and item_col")])
def test_unreadable_layout_is_refused(layout, field):
    with pytest.raises(ValueError, match=f"^{field} must"):
        RatingsFormat(**layout)


def test_ingest_comma_delimiter_and_column_mapping():
    fmt = RatingsFormat(delimiter=",", user_col=1, item_col=0, header=False)
    result = ingest_ratings(io.StringIO("a,u1\nb,u1\n"), fmt)
    assert result.matrix.raters_of("a") == {"u1"}


def test_duplicated_log_yields_identical_matrix():
    lines = "u1\ta\nu2\ta\nu2\tb\n"
    once = ingest_ratings(io.StringIO(lines), NO_HEADER).matrix
    twice = ingest_ratings(io.StringIO(lines + lines), NO_HEADER).matrix
    assert once == twice


def test_cooccurrence_hand_example():
    m = UsageMatrix([("u1", "a"), ("u1", "b"), ("u2", "a"),
                     ("u3", "b"), ("u4", "c")])
    assert cooccurrence(m, "a", "b") == ContingencyTable(1, 1, 1, 1)


def test_cooccurrence_identical_rater_sets():
    pairs = [(f"u{i}", item) for i in range(3) for item in ("a", "b")]
    pairs += [("u9", "c")]
    m = UsageMatrix(pairs)
    assert cooccurrence(m, "a", "b") == ContingencyTable(3, 0, 0, 1)


def test_cooccurrence_disjoint_rater_sets():
    pairs = [("u1", "a"), ("u2", "a"), ("u3", "b"), ("u4", "c")]
    m = UsageMatrix(pairs)
    assert cooccurrence(m, "a", "b") == ContingencyTable(0, 2, 1, 1)


def test_cooccurrence_errors():
    m = UsageMatrix([("u1", "a"), ("u1", "b")])
    with pytest.raises(UnknownItemError, match="zzz"):
        cooccurrence(m, "a", "zzz")
    with pytest.raises(InvalidPairError):
        cooccurrence(m, "a", "a")


def test_cooccurrence_matches_brute_force_on_random_logs():
    rng = random.Random(1234)
    for _ in range(25):
        pairs = random_usage_log(rng)
        m = UsageMatrix(pairs)
        items = sorted(m.items)
        if len(items) < 2:
            continue
        for _ in range(20):
            a, b = rng.sample(items, 2)
            got = cooccurrence(m, a, b)
            assert tuple(got) == brute_contingency(pairs, a, b)
            assert sum(got) == m.total_users
            assert min(got) >= 0
            swapped = cooccurrence(m, b, a)
            assert (got.k11, got.k12, got.k21, got.k22) == \
                   (swapped.k11, swapped.k21, swapped.k12, swapped.k22)


# ids where sorted() and a NUL-stripping fixed-width sort disagree
ids = st.text(alphabet="ab\x00\u00e9", max_size=3)


@given(st.lists(st.tuples(ids, ids), max_size=40))
@example([])
@example([("u", "a"), ("u", "b"), ("u", "a")])
@example([("u", "a"), ("u", "a\x00"), ("v\x00", "a")])
@settings(max_examples=200)
def test_matrix_matches_raw_pairs(pairs):
    m = UsageMatrix(pairs)
    items = sorted({i for _, i in pairs})
    assert m.items == items
    assert m.users == sorted({u for u, _ in pairs})
    assert m.total_users == len(m.users)
    assert m.item_index == {item: n for n, item in enumerate(items)}
    want = [{u for u, j in pairs if j == i} for i in items]
    assert [m.raters_of(i) for i in items] == want
    assert m.counts.tolist() == [len(r) for r in want]
    assert m.by_item.shape == (len(items), len(m.users))
    assert m.by_user.shape == (len(m.users), len(items))
    assert m.by_item.indices.dtype == m.by_user.indices.dtype == np.int32
    user_index = {user: n for n, user in enumerate(m.users)}
    assert [csr_row(m.by_item, i) for i in range(len(items))] == \
           [sorted(user_index[u] for u in raters) for raters in want]
    assert [csr_row(m.by_user, u) for u in range(len(m.users))] == \
           [sorted({m.item_index[i] for v, i in pairs if v == user})
            for user in m.users]
    # each by_item entry's pair, found at its position in by_user
    for i in range(len(items)):
        for e in range(m.by_item.indptr[i], m.by_item.indptr[i + 1]):
            u, p = m.by_item.indices[e], m.by_user_pos[e]
            assert m.by_user.indptr[u] <= p < m.by_user.indptr[u + 1]
            assert m.by_user.indices[p] == i
    assert UsageMatrix(reversed(pairs)) == m


def csr_row(csr, r: int) -> list[int]:
    return csr.indices[csr.indptr[r]:csr.indptr[r + 1]].tolist()
