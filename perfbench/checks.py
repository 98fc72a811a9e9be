"""Correctness gate: canonical digests and independent spot checks.

Nothing here imports knnsum. Neighbor lists are checked against a
textbook G2 test computed from the raw generated events; summary rows
are checked against feature weights recounted from the raw generated
triples. Each check returns a list of human-readable problems; an empty
list means the output passed.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy import sparse

from corpus import FILM_TYPE, RDF_TYPE, Corpus

KNN_PREDICATE = "<urn:knnsum:knn>"
SCORE_TOL = 1e-9
Pairs = Sequence[Sequence]          # [(item, score), ...] as in the bundle


def neighbor_digest(neighbors: Mapping[str, Pairs]) -> str:
    """sha256 over every list: center, then (id, exact score) in order."""
    h = hashlib.sha256()
    for center in sorted(neighbors):
        h.update(center.encode())
        for item, score in neighbors[center]:
            h.update(f"\t{item}\t{float(score).hex()}".encode())
        h.update(b"\n")
    return h.hexdigest()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- build ------------------------------------------------------------------

def expected_build_log(c: Corpus, neighbors: Mapping[str, Pairs]) -> dict:
    """The count lines `knnsum build` must print, recomputed from the raw
    corpus and the neighbor lists."""
    items = {i for _, i in c.pairs}
    linked = {i for i in items if i in c.link_map}
    knn_edges = {(c.link_map[center], c.link_map[item])
                 for center, pairs in neighbors.items() if center in linked
                 for item, _ in pairs
                 if item in c.link_map and c.link_map[item] != c.link_map[center]}
    return {
        "users": str(len({u for u, _ in c.pairs})),
        "items": str(len(items)),
        "rejected ratings lines": str(c.rejected_ratings),
        "triples loaded": str(len(c.triples)),
        "malformed triple lines": str(c.malformed_triples),
        "linked items": f"{len(linked)}/{len(items)}",
        "unmatched items": str(len(items) - len(linked)),
        "knn triples added": str(len(knn_edges)),
    }


def check_build_log(stdout: str, expected: Mapping[str, str]) -> list[str]:
    got = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            got[key] = value
    return [f"build log {key!r}: got {got.get(key)!r}, want {want!r}"
            for key, want in expected.items() if got.get(key) != want]


class UsageIndex:
    """Binary users x items matrix rebuilt from the raw (user, item) events."""

    def __init__(self, pairs: Iterable[tuple[str, str]]):
        pairs = list(pairs)
        self.items = sorted({i for _, i in pairs})
        users = sorted({u for u, _ in pairs})
        col = {item: j for j, item in enumerate(self.items)}
        row = {user: j for j, user in enumerate(users)}
        r = np.fromiter((row[u] for u, _ in pairs), dtype=np.int64, count=len(pairs))
        q = np.fromiter((col[i] for _, i in pairs), dtype=np.int64, count=len(pairs))
        m = sparse.csc_matrix((np.ones(len(pairs), dtype=np.int64), (r, q)),
                              shape=(len(users), len(self.items)))
        m.data[:] = 1                     # repeated events count once
        self.m = m
        self.col = col
        self.counts = np.asarray(m.sum(axis=0)).ravel()
        self.total = len(users)

    def corated_pairs(self) -> int:
        """Ordered off-diagonal item pairs with at least one common rater."""
        gram = (self.m.T @ self.m).tocsr()
        return int(gram.nnz - np.count_nonzero(gram.diagonal()))

    def textbook_scores(self, center: str) -> np.ndarray:
        """1 - 1/(1 + G2) of center against every item, G2 = 2 sum O ln(O/E);
        0 for items without a common rater and for the center itself."""
        c = self.col[center]
        k11 = np.asarray((self.m[:, c].T @ self.m).todense()).ravel().astype(float)
        na = float(self.counts[c])
        nb = self.counts.astype(float)
        n = float(self.total)
        cells = ((k11, na, nb), (na - k11, na, n - nb),
                 (nb - k11, n - na, nb), (n - na - nb + k11, n - na, n - nb))
        g2 = np.zeros_like(k11)
        for obs, row, colm in cells:
            expected = row * colm / n
            pos = obs > 0
            g2[pos] += obs[pos] * np.log(obs[pos] / expected[pos])
        score = 1.0 - 1.0 / (1.0 + np.maximum(2.0 * g2, 0.0))
        score[k11 == 0] = 0.0
        score[c] = 0.0
        return score


def check_neighbor_list(idx: UsageIndex, center: str, got: Pairs, k: int,
                        threshold: float | None) -> list[str]:
    """One bundle list against the textbook G2 of every candidate item."""
    ref = idx.textbook_scores(center)
    problems = []
    keys = [(-float(s), i) for i, s in got]
    if keys != sorted(keys):
        problems.append(f"{center}: list not sorted by (-score, id)")
    listed = set()
    for item, score in got:
        j = idx.col.get(item)
        if j is None:
            problems.append(f"{center}: neighbor {item} has no usage data")
            continue
        listed.add(j)
        if abs(float(score) - ref[j]) > SCORE_TOL:
            problems.append(f"{center}->{item}: score {score!r}, "
                            f"textbook {ref[j]!r}")
    others = np.ones(len(ref), dtype=bool)
    others[list(listed)] = False
    others[idx.col[center]] = False
    best_left = float(ref[others].max()) if others.any() else 0.0
    if threshold is not None:
        floor = threshold
        if any(float(s) <= threshold for _, s in got):
            problems.append(f"{center}: score at or below threshold listed")
    elif len(got) == k:
        floor = min(float(s) for _, s in got)
    else:
        floor = 0.0
    if best_left > floor + SCORE_TOL:
        problems.append(f"{center}: an unlisted item scores {best_left!r} "
                        f"above the list's floor {floor!r}")
    return problems


# -- neighbors -----------------------------------------------------------------

def render_neighbors(center: str, pairs: Pairs) -> str:
    return "".join(f"{center}\t{item}\t{float(score):.6f}\n"
                   for item, score in pairs)


# -- summaries -------------------------------------------------------------------

class GraphIndex:
    """One-hop features and two-hop paths of every typed entity, recounted
    from the raw generated triples."""

    def __init__(self, triples: Iterable[tuple[str, str, str]]):
        spo: dict[str, list[tuple[str, str]]] = {}
        for s, p, o in triples:
            spo.setdefault(s, []).append((p, o))
        film = f"<{FILM_TYPE}>"
        self.universe = {s for s, pos in spo.items() if (RDF_TYPE, film) in pos}
        self.features = {s: set(spo[s]) for s in self.universe}
        self.paths = {s: {(p, q, t) for p, o in spo[s] for q, t in spo.get(o, ())}
                      for s in self.universe}
        self.support1 = Counter(f for s in self.universe for f in self.features[s])
        self.support2 = Counter(f for s in self.universe for f in self.paths[s])

    def weights(self, entity: str, neighbors: set[str], two_hop: bool
                ) -> dict[tuple, tuple[int, int, float]]:
        """feature -> (|A|, |B|, |A| ln(|E|/|B|)) for every shared feature."""
        own = self.paths if two_hop else self.features
        support = self.support2 if two_hop else self.support1
        out = {}
        for f in own[entity]:
            a = sum(1 for s in neighbors if f in own[s])
            if a:
                b = support[f]
                out[f] = (a, b, a * math.log(len(self.universe) / b))
        return out


def parse_summaries(text: str, structured: bool) -> list[dict]:
    """Split summarize stdout into blocks: entity, status, rows."""
    blocks = []
    for chunk in text.split("\n\n"):
        lines = chunk.strip("\n").splitlines()
        if not lines:
            continue
        if structured:
            head = dict(line.split(": ", 1) for line in lines[:5])
            block = {"entity": head["entity"], "status": head["status"],
                     "rows": []}
            for line in lines[5:]:
                fields = dict(part.split("=", 1)
                              for part in line.strip().split("\t")[1:])
                block["rows"].append({
                    "feature": tuple(fields["property"].split(" "))
                    + (fields["value"],),
                    "weight": fields["weight"],
                    "a": int(fields["neighbor_support"]),
                    "b": int(fields["global_support"])})
        else:
            head = lines[0][2:].split("\t")
            block = {"entity": head[0], "status": head[1][len("status="):],
                     "rows": []}
            for line in lines[1:]:
                _, weight, prop, value = line.split("\t")
                block["rows"].append({"feature": tuple(prop.split(" "))
                                      + (value,), "weight": weight})
        blocks.append(block)
    return blocks


def check_summaries(text: str, *, structured: bool, two_hop: bool, n: int,
                    targets: Sequence[str], c: Corpus, graph: GraphIndex,
                    neighbors: Mapping[str, Pairs]) -> list[str]:
    """Every block: right entity and status; every row's support and weight
    equal the raw-triple recount; the rows are the recount's top n."""
    blocks = parse_summaries(text, structured)
    if len(blocks) != len(targets):
        return [f"summarize printed {len(blocks)} blocks for "
                f"{len(targets)} targets"]
    usage_of: dict[str, str] = {}
    rated = {i for _, i in c.pairs}
    for item in sorted(c.link_map):
        if item in rated:
            usage_of.setdefault(c.link_map[item], item)
    problems = []
    for target, block in zip(targets, blocks):
        entity = c.link_map.get(target, target)
        item = target if target in c.link_map else usage_of.get(entity)
        if block["entity"] != f"<{entity}>":
            problems.append(f"{target}: block for {block['entity']}")
            continue
        want_status = "ok" if item in rated else "no usage data"
        if block["status"] != want_status:
            problems.append(f"{target}: status {block['status']!r}")
            continue
        if item not in rated:
            if block["rows"]:
                problems.append(f"{target}: rows without usage data")
            continue
        nbrs = {f"<{c.link_map[i]}>" for i, _ in neighbors[item]
                if i in c.link_map} - {f"<{entity}>"}
        nbrs &= graph.universe
        recount = graph.weights(f"<{entity}>", nbrs, two_hop)
        problems += _check_rows(target, block["rows"], recount, structured, n)
    return problems


def _check_rows(target: str, rows: list[dict], recount: dict,
                structured: bool, n: int) -> list[str]:
    problems = []
    if len(rows) != min(n, len(recount)):
        return [f"{target}: {len(rows)} rows, recount has {len(recount)} "
                f"features (n = {n})"]
    shown = set()
    weights = []
    for row in rows:
        f = row["feature"]
        if f not in recount:
            problems.append(f"{target}: feature {f} not shared by a neighbor")
            continue
        shown.add(f)
        a, b, w = recount[f]
        weights.append(w)
        want = f"{w:.6f}" if structured else f"{w:.2f}"
        if row["weight"] != want:
            problems.append(f"{target}: {f} weight {row['weight']}, "
                            f"recount {want}")
        if structured and (row["a"], row["b"]) != (a, b):
            problems.append(f"{target}: {f} supports {row['a']}/{row['b']}, "
                            f"recount {a}/{b}")
    if weights != sorted(weights, reverse=True):
        problems.append(f"{target}: rows not in descending weight")
    left = [w for f, (_, _, w) in recount.items() if f not in shown]
    if weights and left and max(left) > weights[-1] + 1e-12:
        problems.append(f"{target}: a heavier feature was left out")
    return problems
