"""Command-line pipeline: build, neighbors, summarize.

Configuration comes from a flat ``key = value`` file; every key can be
overridden by a CLI flag, and flags win. Exit codes: 0 success, 1 input
error, 2 resolution error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, fields
from typing import IO, Mapping, Sequence

from .rdf import (DEFAULT_KNN_PREDICATE, Term, TripleStore, iri,
                  load_ntriples, term_to_ntriples)
from .similarity import (DEFAULT_K, NeighborList, all_pairs_knn,
                         format_neighbors_tsv)
# Bound here, though no command calls it, so that the benchmark's traced
# pass (perfbench/spans.py) can wrap it by name in this module.
from .similarity import neighbors_above_threshold  # noqa: F401
from .summarize import (DEFAULT_N, FIXED_K, THRESHOLD, ResolutionError,
                        Summary, entity_universe, summarize)
from .usage import RatingsFormat, UsageMatrix, ingest_ratings

DEFAULT_TYPE_FILTER = "http://rdf.freebase.com/ns/film.film"

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOLUTION = 2


@dataclass
class PipelineConfig:
    ratings: str = ""
    delimiter: str = "\t"
    user_col: int = 0
    item_col: int = 1
    rating_col: int | None = None
    timestamp_col: int | None = None
    header: bool = True
    triples: str = ""
    links: str = ""
    knn_predicate: str = DEFAULT_KNN_PREDICATE
    type_filter: str = DEFAULT_TYPE_FILTER
    k: int = DEFAULT_K
    n: int = DEFAULT_N
    threshold: float | None = None
    two_hop: bool = False
    format: str = "tsv"
    out: str = "-"
    bundle: str = "bundle.json"
    workers: int = 1

    def validate(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.threshold is not None and not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.format not in ("tsv", "structured"):
            raise ValueError(f"unknown output format: {self.format!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def mode(self) -> str:
        return THRESHOLD if self.threshold is not None else FIXED_K

    def ratings_format(self) -> RatingsFormat:
        return RatingsFormat(self.delimiter, self.user_col, self.item_col,
                             self.rating_col, self.timestamp_col, self.header)


_BOOL_KEYS = {"header", "two_hop"}
_INT_KEYS = {"user_col", "item_col", "rating_col", "timestamp_col",
             "k", "n", "workers"}
_FLOAT_KEYS = {"threshold"}


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; # starts a comment; blank lines ignored."""
    values: dict = {}
    known = {f.name for f in fields(PipelineConfig)}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            if key not in known:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            if key in _BOOL_KEYS:
                values[key] = value.lower() in ("1", "true", "yes", "on")
            elif key in _INT_KEYS:
                values[key] = int(value)
            elif key in _FLOAT_KEYS:
                values[key] = float(value)
            elif key == "delimiter":
                values[key] = value.encode().decode("unicode_escape")
            else:
                values[key] = value
    return values


def load_links(path: str) -> dict[str, str]:
    """Static link map: ``item_id <TAB> entity_iri`` per line."""
    links: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            line = raw.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise ValueError(f"{path}:{line_no}: expected item_id<TAB>iri")
            links[parts[0]] = parts[1]
    return links


def matrix_digest(matrix: UsageMatrix) -> str:
    h = hashlib.sha256()
    for item in sorted(matrix.items):
        h.update(item.encode())
        h.update(b"\x00")
        for user in sorted(matrix.raters[item]):
            h.update(user.encode())
            h.update(b"\x01")
        h.update(b"\n")
    return h.hexdigest()


# -- bundle ------------------------------------------------------------------

def write_bundle(path: str, matrix: UsageMatrix,
                 lists: Mapping[str, NeighborList], cfg: PipelineConfig,
                 knn_added: int, diagnostics: dict) -> None:
    payload = {
        "matrix_digest": matrix_digest(matrix),
        "users": len(matrix.users),
        "items": len(matrix.items),
        "k": cfg.k,
        "mode": cfg.mode,
        "threshold": cfg.threshold,
        "knn_predicate": cfg.knn_predicate,
        "type_filter": cfg.type_filter,
        "knn_triples_added": knn_added,
        "diagnostics": diagnostics,
        "neighbors": {center: [[item, score] for item, score in nl.neighbors]
                      for center, nl in lists.items()},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)
        fh.write("\n")


def read_bundle(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def bundle_neighbor_lists(bundle: dict) -> dict[str, NeighborList]:
    return {center: NeighborList(center, [(i, s) for i, s in pairs])
            for center, pairs in bundle["neighbors"].items()}


# -- rendering ----------------------------------------------------------------

def _render_feature_terms(wf) -> tuple[str, str]:
    terms = [term_to_ntriples(t) for t in wf.feature]
    return " ".join(terms[:-1]), terms[-1]


def render_summary_tsv(summary: Summary) -> str:
    lines = [f"# {term_to_ntriples(summary.entity)}\tstatus={summary.status}"
             f"\tmode={summary.mode}"]
    for rank, wf in enumerate(summary.features, start=1):
        prop, value = _render_feature_terms(wf)
        lines.append(f"{rank}\t{wf.weight:.2f}\t{prop}\t{value}")
    return "\n".join(lines) + "\n"


def render_summary_structured(summary: Summary) -> str:
    lines = [
        f"entity: {term_to_ntriples(summary.entity)}",
        f"status: {summary.status}",
        f"mode: {summary.mode}",
        f"k: {summary.k_used}",
        f"features: {len(summary.features)}",
    ]
    for rank, wf in enumerate(summary.features, start=1):
        prop, value = _render_feature_terms(wf)
        lines.append(f"  {rank}\tweight={wf.weight:.6f}"
                     f"\tneighbor_support={wf.neighbor_support}"
                     f"\tglobal_support={wf.global_support}"
                     f"\tproperty={prop}\tvalue={value}")
    return "\n".join(lines) + "\n"


# -- commands -----------------------------------------------------------------

def _load_inputs(cfg: PipelineConfig, need_ratings: bool = True):
    if need_ratings:
        try:
            with open(cfg.ratings, encoding="utf-8") as fh:
                ingest = ingest_ratings(fh, cfg.ratings_format())
        except OSError as exc:
            raise _InputError(f"cannot read ratings file {cfg.ratings!r}: {exc}")
    else:
        ingest = None
    try:
        with open(cfg.triples, encoding="utf-8") as fh:
            store, triple_diags = load_ntriples(fh)
    except OSError as exc:
        raise _InputError(f"cannot read triples file {cfg.triples!r}: {exc}")
    try:
        links = load_links(cfg.links)
    except OSError as exc:
        raise _InputError(f"cannot read link map {cfg.links!r}: {exc}")
    return ingest, store, triple_diags, links


class _InputError(Exception):
    pass


def cmd_build(cfg: PipelineConfig, log: IO[str]) -> int:
    ingest, store, triple_diags, links = _load_inputs(cfg)
    matrix = ingest.matrix
    lists = all_pairs_knn(matrix, cfg.k, workers=cfg.workers,
                          tau=cfg.threshold)
    result = store.materialize_knn(lists, links, iri(cfg.knn_predicate))
    matched = sum(1 for item in matrix.items
                  if item in links and store.has_subject(iri(links[item])))
    unmatched = sorted(item for item in matrix.items
                       if item not in links
                       or not store.has_subject(iri(links[item])))
    if matched == 0:
        print("error: no usage item could be linked to a store entity",
              file=sys.stderr)
        return EXIT_INPUT
    diagnostics = {
        "rejected_ratings_lines": [[ln, reason] for ln, reason in ingest.rejected],
        "malformed_triple_lines": [[ln, reason] for ln, reason in triple_diags],
        "unmatched_items": unmatched,
        "skipped_links": result.skipped,
    }
    write_bundle(cfg.bundle, matrix, lists, cfg, result.added, diagnostics)
    log.write(f"users: {len(matrix.users)}\n")
    log.write(f"items: {len(matrix.items)}\n")
    log.write(f"rejected ratings lines: {ingest.rejected_count}\n")
    log.write(f"triples loaded: {len(store) - result.added}\n")
    log.write(f"malformed triple lines: {len(triple_diags)}\n")
    log.write(f"linked items: {matched}/{len(matrix.items)}\n")
    log.write(f"unmatched items: {len(unmatched)}\n")
    log.write(f"knn triples added: {result.added}\n")
    log.write(f"bundle: {cfg.bundle}\n")
    return EXIT_OK


def cmd_neighbors(cfg: PipelineConfig, target: str, out: IO[str]) -> int:
    try:
        bundle = read_bundle(cfg.bundle)
    except OSError as exc:
        print(f"error: cannot read bundle {cfg.bundle!r}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    neighbors = bundle["neighbors"]
    item_id = target
    if item_id not in neighbors:
        # maybe an entity iri: resolve back through the link map
        try:
            links = load_links(cfg.links)
        except OSError:
            links = {}
        candidates = sorted(i for i, t in links.items()
                            if t == target and i in neighbors)
        if not candidates:
            print(f"error: unknown item or entity: {target!r}", file=sys.stderr)
            return EXIT_RESOLUTION
        item_id = candidates[0]
    nl = NeighborList(item_id, [(i, s) for i, s in neighbors[item_id]])
    out.write(format_neighbors_tsv(nl))
    return EXIT_OK


def cmd_summarize(cfg: PipelineConfig, targets: Sequence[str],
                  all_entities: bool, out: IO[str]) -> int:
    try:
        ingest, store, _diags, links = _load_inputs(cfg)
        bundle = read_bundle(cfg.bundle)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: cannot read bundle {cfg.bundle!r}: {exc}", file=sys.stderr)
        return EXIT_INPUT
    knn_predicate = iri(cfg.knn_predicate)
    type_filter = iri(cfg.type_filter)
    store.materialize_knn(bundle_neighbor_lists(bundle), links, knn_predicate)
    if all_entities:
        universe = entity_universe(store, type_filter)
        targets = [t.lexical for t in sorted(universe, key=lambda t: t.lexical)]
    render = (render_summary_tsv if cfg.format == "tsv"
              else render_summary_structured)
    failures = 0
    for idx, target in enumerate(targets):
        try:
            summary = summarize(
                store, ingest.matrix, links, target,
                knn_predicate=knn_predicate, type_filter=type_filter,
                k=cfg.k, n=cfg.n, mode=cfg.mode, tau=cfg.threshold,
                two_hop=cfg.two_hop)
        except ResolutionError as exc:
            print(f"error: {target}: {exc}", file=sys.stderr)
            failures += 1
            continue
        if idx > 0:
            out.write("\n")
        out.write(render(summary))
    return EXIT_RESOLUTION if failures else EXIT_OK


# -- argument plumbing ---------------------------------------------------------

def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--ratings", help="ratings log path")
    p.add_argument("--delimiter", help="ratings field delimiter (default tab)")
    p.add_argument("--user-col", dest="user_col", type=int,
                   help="0-based user id column (default 0)")
    p.add_argument("--item-col", dest="item_col", type=int,
                   help="0-based item id column (default 1)")
    p.add_argument("--rating-col", dest="rating_col", type=int,
                   help="rating column, validated but discarded")
    p.add_argument("--timestamp-col", dest="timestamp_col", type=int,
                   help="timestamp column, validated but discarded")
    p.add_argument("--header", dest="header",
                   action=argparse.BooleanOptionalAction, default=None,
                   help="ratings file has a header line (default yes)")
    p.add_argument("--triples", help="N-Triples graph path")
    p.add_argument("--links", help="item id -> entity iri TSV path")
    p.add_argument("--bundle", help="index bundle path (build output)")
    p.add_argument("--k", type=int, help="neighborhood size (default 20)")
    p.add_argument("--n", type=int, help="summary length (default 10)")
    p.add_argument("--threshold", type=float,
                   help="similarity threshold; switches neighborhood mode")
    p.add_argument("--type-filter", dest="type_filter",
                   help="rdf:type IRI restricting the entity universe")
    p.add_argument("--knn-predicate", dest="knn_predicate",
                   help="predicate IRI for materialized knn edges")
    p.add_argument("--format", choices=("tsv", "structured"),
                   help="summary output format")
    p.add_argument("--two-hop", dest="two_hop", action="store_true",
                   default=None, help="rank two-hop composite features")
    p.add_argument("--workers", type=int,
                   help="threads for the build's neighborhood computation, "
                        "fixed-k and threshold mode alike (default 1)")
    p.add_argument("--out", help="output path, or - for stdout")


def build_config(args: argparse.Namespace) -> PipelineConfig:
    values: dict = {}
    if args.config:
        values.update(parse_config_file(args.config))
    for f in fields(PipelineConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg


def _open_out(cfg: PipelineConfig):
    if cfg.out == "-" or not cfg.out:
        return sys.stdout, False
    return open(cfg.out, "w", encoding="utf-8"), True


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="knnsum",
        description="Usage-data-driven entity summarization pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    p_build = sub.add_parser("build", help="ingest inputs and persist the "
                                           "neighbor-list bundle")
    _add_common_flags(p_build)
    p_nb = sub.add_parser("neighbors", help="print one item's neighbor list")
    _add_common_flags(p_nb)
    p_nb.add_argument("target", help="item id or entity iri")
    p_sum = sub.add_parser("summarize", help="print entity summaries")
    _add_common_flags(p_sum)
    p_sum.add_argument("targets", nargs="*", help="item ids or entity iris")
    p_sum.add_argument("--all", action="store_true",
                       help="summarize every entity in the universe")
    args = parser.parse_args(argv)

    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    try:
        if args.command == "build":
            return cmd_build(cfg, sys.stdout)
        if args.command == "neighbors":
            out, close = _open_out(cfg)
            try:
                return cmd_neighbors(cfg, args.target, out)
            finally:
                if close:
                    out.close()
        if args.command == "summarize":
            if not args.all and not args.targets:
                print("error: no entities requested (pass ids or --all)",
                      file=sys.stderr)
                return EXIT_INPUT
            out, close = _open_out(cfg)
            try:
                return cmd_summarize(cfg, args.targets, args.all, out)
            finally:
                if close:
                    out.close()
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    raise AssertionError(f"unhandled command {args.command!r}")
