"""Feature weighting and top-n entity summaries.

A feature shared with at least one nearest neighbor earns weight
|A| * ln(|E| / |B|): neighbor support times inverse global frequency.
|B| counts the summarized entity itself, so a feature held by every
entity in the universe weighs exactly 0, and |B| >= 1 always.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable, Collection, Mapping

from .rdf import (RDF_TYPE, Feature, PathFeature, Term, TripleStore, iri,
                  term_key)
# the two neighbor functions are bound only for perfbench/spans.py to wrap
from .similarity import (DEFAULT_K, NeighborList, k_nearest_neighbors,
                         neighbors_above_threshold)

DEFAULT_N = 10

FIXED_K = "fixed-k"
THRESHOLD = "threshold"

STATUS_OK = "ok"
STATUS_NO_USAGE = "no usage data"


class ResolutionError(LookupError):
    """An id could not be resolved to a summarizable entity."""


class EntityNotInUniverseError(ValueError):
    """feature_weights was asked about an entity outside the universe."""


@dataclass(frozen=True)
class WeightedFeature:
    feature: Feature | PathFeature
    neighbor_support: int
    global_support: int
    weight: float


@dataclass
class Summary:
    entity: Term
    k_used: int
    features: list[WeightedFeature] = field(default_factory=list)
    status: str = STATUS_OK
    mode: str = FIXED_K


def entity_universe(store: TripleStore, type_filter: Term) -> set[Term]:
    """All subjects carrying the rdf:type triple for type_filter."""
    return store.subjects_with(RDF_TYPE, type_filter)


def _feature_sort_key(wf: WeightedFeature) -> tuple:
    return (-wf.weight, -wf.neighbor_support,
            tuple(term_key(t) for t in wf.feature))


def _weigh(store: TripleStore, e: Term, candidates: set[Term | None],
           universe: set[Term], support: Callable[[Feature | PathFeature], int],
           knn_predicate: Term, two_hop: bool) -> list[WeightedFeature]:
    """Weighted features of e shared with at least one neighbor, sorted by
    descending weight (ties: descending support, ascending feature).

    e's neighbors are the candidates in the universe, e itself excluded.
    support gives a feature's global support |B| over the universe (see
    TripleStore.support_counter). knn edges are never a feature, at either
    hop.
    """
    neighbors = (candidates & universe) - {e}
    if two_hop:
        witnesses = store.shared_two_hop_paths(e, neighbors, knn_predicate)
    else:
        witnesses = store.shared_features(e, neighbors, knn_predicate)
    size = len(universe)
    out = []
    for f, ws in witnesses.items():
        a, b = len(ws), support(f)
        out.append(WeightedFeature(f, a, b, a * math.log(size / b)))
    out.sort(key=_feature_sort_key)
    return out


def feature_weights(store: TripleStore, e: Term, universe: set[Term],
                    knn_predicate: Term, *, two_hop: bool = False
                    ) -> list[WeightedFeature]:
    """Weighted features of e from its materialized knn edges, sorted by
    descending weight (ties: descending support, ascending feature); with
    two_hop, over (p, q, t) composites. Edges to entities outside the
    universe, and a knn self-loop, are ignored."""
    if e not in universe:
        raise EntityNotInUniverseError(f"entity not in universe: {e.lexical}")
    return _weigh(store, e, store.objects_of(e, knn_predicate), universe,
                  store.support_counter(universe), knn_predicate, two_hop)


def reverse_links(link: Mapping[str, str],
                  items: Collection[str]) -> dict[str, str]:
    """Entity IRI -> the smallest item among items that links to it."""
    out: dict[str, str] = {}
    for item, target in link.items():
        if item in items and (target not in out or item < out[target]):
            out[target] = item
    return out


class SummaryContext:
    """A summary's five inputs (store, lists: the items with usage data,
    link map, knn predicate, type filter) and what summaries over them
    share, built once: the typed universe, the reverse link index, each
    item's linked entity (resolved on first use) and each feature's global
    support (counted on first use). summarize refuses an argument that is
    neither the context's own input nor equal to it, naming the field."""

    def __init__(self, store: TripleStore, lists: Mapping[str, NeighborList],
                 link: Mapping[str, str], knn_predicate: Term,
                 type_filter: Term):
        self.store, self.lists, self.link = store, lists, link
        self.knn_predicate, self.type_filter = knn_predicate, type_filter
        self.universe = entity_universe(store, type_filter)
        self.linked_item = reverse_links(link, lists)
        self.linked_entity = cache(partial(store.linked_entity, link=link))
        self.support = store.support_counter(self.universe)


def summarize(store: TripleStore, lists: Mapping[str, NeighborList],
              link: Mapping[str, str], e: str, *,
              knn_predicate: Term, type_filter: Term,
              k: int = DEFAULT_K, n: int = DEFAULT_N,
              tau: float | None = None, two_hop: bool = False,
              context: SummaryContext | None = None) -> Summary:
    """End-to-end summary: neighborhood, witness collection, weighting,
    descending sort, truncation to the top n features.

    lists maps each item with usage data to its neighbor list, as
    all_pairs_knn(m, k) or all_pairs_knn(m, tau=tau) computes it; k and tau
    only label the summary. A caller summarizing many entities builds one
    SummaryContext from the same five inputs and passes it to every call,
    which reads them from it: an argument that is neither the context's own
    nor equal to it is a ValueError naming the field. An item whose link
    target (an empty one included) is no store subject is a ResolutionError.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if context is None:
        context = SummaryContext(store, lists, link, knn_predicate,
                                 type_filter)
    for name, value in (("store", store), ("lists", lists), ("link", link),
                        ("knn_predicate", knn_predicate),
                        ("type_filter", type_filter)):
        own = getattr(context, name)
        # identity first: an equal store is compared triple by triple
        if value is not own and value != own:
            raise ValueError(f"{name} differs from the context's")
    if e in context.link:
        entity = context.linked_entity(e)
        if entity is None:
            raise ResolutionError(f"link map: item {e!r} maps to "
                                  f"{context.link[e]!r}, not in the store")
        item_id = e if e in context.lists else None
    elif e and context.store.has_subject(entity := iri(e)):
        # entity iri given directly: its smallest linked item with usage data
        item_id = context.linked_item.get(e)
    else:
        raise ResolutionError(f"link map: unknown item id or entity iri: {e!r}")
    if entity not in context.universe:
        raise ResolutionError(
            f"type filter: entity {entity.lexical!r} lacks rdf:type "
            f"{type_filter.lexical!r}")
    mode = FIXED_K if tau is None else f"{THRESHOLD}({tau:g})"
    if item_id is None:
        return Summary(entity, k, [], STATUS_NO_USAGE, mode)
    linked = {context.linked_entity(item)
              for item, _score in context.lists[item_id].neighbors}
    weighted = _weigh(context.store, entity, linked, context.universe,
                      context.support, knn_predicate, two_hop)
    return Summary(entity, k, weighted[:n], STATUS_OK, mode)
