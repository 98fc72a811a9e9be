"""Log-likelihood-ratio item similarity and neighborhood formation.

The pair similarity of two items with no common rater is defined as 0:
a raw G2 of such a table can be large (strong *negative* association),
but co-usage evidence is what neighborhoods are built from.

numpy is imported in the functions that compute with it, as in usage.py.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

from .usage import ContingencyTable, UnknownItemError, UsageMatrix

if TYPE_CHECKING:
    import numpy as np

DEFAULT_K = 20


class UndefinedTableError(ValueError):
    """The all-zero contingency table has no defined likelihood ratio."""


def _xlx(x: float) -> float:
    return x * math.log(x) if x > 0 else 0.0


def _entropy2(a: float, b: float) -> float:
    return _xlx(a + b) - _xlx(a) - _xlx(b)


def log_likelihood_ratio(t: ContingencyTable) -> float:
    """G2 statistic of a 2x2 contingency table, in natural-log units.

    Exactly 0.0 for rank-1 tables (k11*k22 == k12*k21, detected on the
    integer counts so statistical independence is never blurred by
    floating-point cancellation); clamped to 0 otherwise when rounding
    drives the sum negative. Symmetric in (k12, k21) bit-for-bit.
    """
    k11, k12, k21, k22 = t
    if min(k11, k12, k21, k22) < 0:
        raise ValueError(f"negative cell in contingency table: {t}")
    n = k11 + k12 + k21 + k22
    if n == 0:
        raise UndefinedTableError("all-zero contingency table")
    if k11 * k22 == k12 * k21:
        return 0.0
    row = _entropy2(k11 + k12, k21 + k22)
    col = _entropy2(k11 + k21, k12 + k22)
    # cell terms paired symmetrically so swapping k12/k21 is a no-op
    mat = _xlx(n) - ((_xlx(k11) + _xlx(k22)) + (_xlx(k12) + _xlx(k21)))
    llr = 2.0 * (row + col - mat)
    return llr if llr > 0.0 else 0.0


def similarity_score(t: ContingencyTable) -> float:
    """Map the unbounded G2 onto [0, 1): 1 - 1/(1 + G2)."""
    llr = log_likelihood_ratio(t)
    return 1.0 - 1.0 / (1.0 + llr)


@dataclass
class NeighborList:
    """Ordered (item, similarity) pairs for one center item.

    Similarities are non-increasing; ties are broken by ascending item id;
    the center never appears in its own list.
    """

    center: str
    neighbors: list[tuple[str, float]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.neighbors)

    def ids(self) -> list[str]:
        return [item for item, _ in self.neighbors]


@lru_cache(maxsize=8)
def _xlx_table(n: int) -> np.ndarray:
    """T[x] = x ln x for x = 0..n, each entry exactly as _xlx computes it.

    Built with math.log, as log_likelihood_ratio is: numpy's vectorized
    log can differ from it in the last bit (first at x = 9,170 on some
    x86 CPUs).
    """
    import numpy as np

    table = np.array([_xlx(x) for x in range(n + 1)])
    table.setflags(write=False)
    return table


class _Kernel:
    """Blocked G2 neighborhoods over the integer-coded usage matrix.

    For a block of center items it takes the sparse co-rater gram block
    and scores only its nonzeros, so pairs with no common rater are never
    scored. Each score repeats the float operations of
    log_likelihood_ratio and similarity_score in their order, with x ln x
    read from a table and the margin entropy of each item computed once,
    so it equals the per-table score of the pair bit for bit.
    """

    def __init__(self, m: UsageMatrix):
        self.m = m
        self.total = m.total_users
        self.xlx = _xlx_table(self.total)
        counts = m.counts
        self.entropy = ((self.xlx[self.total] - self.xlx[counts])
                        - self.xlx[self.total - counts])

    def block(self, start: int, stop: int, k: int | None,
              tau: float | None) -> list[NeighborList]:
        """Neighbor lists of the items numbered start..stop-1.

        Threshold mode (tau set) keeps every score above tau; fixed-k mode
        keeps the k best. Lists are ordered by (-score, item id).
        """
        import numpy as np

        m, xlx, total = self.m, self.xlx, self.total
        gram = m.by_item[start:stop] @ m.by_user
        rows = np.repeat(np.arange(start, stop), np.diff(gram.indptr))
        cols, k11 = gram.indices, gram.data
        del gram
        # In-place arithmetic bounds the block's temporaries; each float
        # operation is still the one log_likelihood_ratio makes, in order.
        na = m.counts[rows]
        nb = m.counts[cols]
        k22 = total - na - nb + k11
        k12 = np.subtract(na, k11, out=na)
        k21 = np.subtract(nb, k11, out=nb)
        # rank-1 tables score exactly 0
        dependent = (np.multiply(k11, k22, dtype=np.int64)
                     != np.multiply(k12, k21, dtype=np.int64))
        mat = xlx[k11]
        mat += xlx[k22]
        del k22
        cells = xlx[k12]
        cells += xlx[k21]
        del k12, k21
        mat += cells
        del cells
        np.subtract(xlx[total], mat, out=mat)
        score = self.entropy[rows]
        score += self.entropy[cols]
        score -= mat
        del mat
        score *= 2.0  # llr; a negative one gives a score <= 0
        score += 1.0
        np.divide(1.0, score, out=score)
        np.subtract(1.0, score, out=score)
        floor = 0.0 if tau is None else max(tau, 0.0)
        keep = (score > floor) & dependent & (cols != rows)
        local, cols, score = rows[keep] - start, cols[keep], score[keep]
        del rows, k11, dependent, keep

        if k is not None:
            local, cols, score = _top_k_candidates(
                local, cols, score, np.bincount(local, minlength=stop - start),
                k)
        order = np.lexsort((cols, -score, local))
        local, cols, score = local[order], cols[order], score[order]
        per_row = np.bincount(local, minlength=stop - start)
        if k is not None:
            first = np.cumsum(per_row) - per_row
            top = np.arange(len(local)) - first[local] < k
            cols, score = cols[top], score[top]
            per_row = np.minimum(per_row, k)

        items = m.items
        pairs = list(zip([items[j] for j in cols.tolist()], score.tolist()))
        bounds = np.concatenate(([0], np.cumsum(per_row))).tolist()
        return [NeighborList(items[start + i], pairs[bounds[i]:bounds[i + 1]])
                for i in range(stop - start)]

    def one(self, e: str, k: int | None, tau: float | None) -> NeighborList:
        try:
            i = self.m.item_index[e]
        except KeyError:
            raise UnknownItemError(f"unknown item id: {e!r}") from None
        return self.block(i, i + 1, k, tau)[0]


def _top_k_candidates(local: np.ndarray, cols: np.ndarray, score: np.ndarray,
                      per_row: np.ndarray, k: int
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Drop the entries scoring below their row's k-th best score; ties
    with it survive for the exact sort.

    Entries arrive grouped by row. Rows are padded with zeros (every kept
    score is positive) into one block for np.partition.
    """
    import numpy as np

    width = int(per_row.max(initial=0))
    if width <= k:
        return local, cols, score
    first = np.cumsum(per_row) - per_row
    pad = np.zeros(len(per_row) * width)
    pad[local * width + (np.arange(len(local)) - first[local])] = score
    kth = np.partition(pad.reshape(-1, width), width - k, axis=1)[:, width - k]
    del pad
    keep = score >= kth[local]
    return local[keep], cols[keep], score[keep]


def k_nearest_neighbors(m: UsageMatrix, e: str, k: int = DEFAULT_K) -> NeighborList:
    """Up to k most similar items to e, zero-score items excluded."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return _Kernel(m).one(e, k, None)


def neighbors_above_threshold(m: UsageMatrix, e: str, tau: float) -> NeighborList:
    """All items with similarity to e strictly above tau, no cardinality cap."""
    return _Kernel(m).one(e, None, tau)


def all_pairs_knn(m: UsageMatrix, k: int = DEFAULT_K, workers: int = 1,
                  block_size: int = 256, *,
                  tau: float | None = None) -> dict[str, NeighborList]:
    """Neighbor lists for every item of the matrix.

    Without tau, each list holds the k most similar items; with tau, every
    item whose similarity is strictly above tau, uncapped (k is then
    unused). Items are scored against one block of block_size centers at
    a time, only where they share a rater, and blocks run on up to
    `workers` threads. Each score equals similarity_score of the pair's
    contingency table bit for bit, and the lists are the same whatever
    the block size and worker count.
    """
    for name, value in (("k", k), ("workers", workers),
                        ("block_size", block_size)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if not m.items:
        return {}
    kernel = _Kernel(m)
    cap = None if tau is not None else k
    n_items = len(m.items)

    def process_block(start: int) -> list[NeighborList]:
        return kernel.block(start, min(start + block_size, n_items), cap, tau)

    starts = range(0, n_items, block_size)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(process_block, starts))
    else:
        blocks = [process_block(s) for s in starts]
    return {nl.center: nl for block in blocks for nl in block}


def format_neighbors_tsv(nl: NeighborList) -> str:
    """TSV rows `center <TAB> neighbor <TAB> score` with 6-decimal scores."""
    return "".join(f"{nl.center}\t{item}\t{score:.6f}\n"
                   for item, score in nl.neighbors)
