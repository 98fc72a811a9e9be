"""Usage-data-driven entity summarization.

Pipeline: binary user-item matrix -> log-likelihood-ratio item
neighborhoods -> neighborhood-frequency x inverse-global-frequency
feature weights -> top-n summaries per entity.
"""

from .rdf import (Feature, PathFeature, Term, Triple, TripleStore, blank, iri,
                  literal, load_ntriples, write_ntriples)
from .similarity import (NeighborList, all_pairs_knn, k_nearest_neighbors,
                         log_likelihood_ratio, neighbors_above_threshold,
                         similarity_score)
from .summarize import (Summary, SummaryContext, WeightedFeature,
                        entity_universe, feature_weights, summarize)
from .usage import (ContingencyTable, UsageMatrix, cooccurrence,
                    ingest_ratings)

__all__ = [
    "ContingencyTable", "Feature", "NeighborList", "PathFeature", "Summary",
    "SummaryContext", "Term", "Triple", "TripleStore", "UsageMatrix",
    "WeightedFeature",
    "all_pairs_knn", "blank", "cooccurrence", "entity_universe",
    "feature_weights", "ingest_ratings", "iri", "k_nearest_neighbors",
    "literal", "load_ntriples", "log_likelihood_ratio",
    "neighbors_above_threshold", "similarity_score",
    "summarize", "write_ntriples",
]
