"""Command-line pipeline: build, neighbors, summarize.

Configuration comes from a flat ``key = value`` file; every key can be
overridden by a CLI flag, and flags win. Exit codes: 0 success, 1 input
error, 2 resolution error.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields
from typing import IO, Mapping, Sequence

from .rdf import (DEFAULT_KNN_PREDICATE, Diagnostic, TripleStore, iri,
                  load_ntriples, term_to_ntriples)
from .similarity import (DEFAULT_K, NeighborList, all_pairs_knn,
                         format_neighbors_tsv)
# Bound here, though no command calls it, so that the benchmark's traced
# pass (perfbench/spans.py) can wrap it by name in this module.
from .similarity import neighbors_above_threshold  # noqa: F401
from .summarize import (DEFAULT_N, FIXED_K, THRESHOLD, ResolutionError,
                        Summary, SummaryContext, reverse_links, summarize)
from .textio import NOT_UTF8, open_text, undecodable
from .usage import IngestResult, RatingsFormat, UsageMatrix, ingest_ratings

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
        if not self.delimiter:
            raise ValueError("delimiter must not be empty")
        for name in ("user_col", "item_col", "rating_col", "timestamp_col"):
            col = getattr(self, name)
            if col is not None and col < 0:
                raise ValueError(f"{name} must be >= 0, got {col}")
        if self.user_col == self.item_col:
            raise ValueError(f"user_col and item_col must differ, both are "
                             f"{self.user_col}")
        for name in ("knn_predicate", "type_filter"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be a non-empty IRI")
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
    with open_text(path) as fh:
        for line_no, raw in enumerate(fh, start=1):
            if undecodable(raw):
                raise ValueError(f"{path}:{line_no}: {NOT_UTF8}")
            line = raw.rstrip("\r\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split("\t")
            if len(parts) < 2 or not parts[0] or not parts[1]:
                raise ValueError(f"{path}:{line_no}: expected item_id<TAB>iri")
            links[parts[0]] = parts[1]
    return links


def matrix_digest(matrix: UsageMatrix) -> str:
    """sha256 of each item, in order, followed by its raters in order."""
    users = [user.encode() + b"\x01" for user in matrix.users]
    indptr = matrix.by_item.indptr.tolist()
    indices = matrix.by_item.indices.tolist()
    h = hashlib.sha256()
    for i, item in enumerate(matrix.items):
        h.update(item.encode() + b"\x00")
        h.update(b"".join([users[j]
                           for j in indices[indptr[i]:indptr[i + 1]]]))
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
    # A temporary file next to the bundle replaces it only once complete
    # and on disk, so a failed write or a crash leaves the previous bundle
    # as it was.
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def read_bundle(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def bundle_neighbor_lists(bundle: dict) -> dict[str, NeighborList]:
    return {center: NeighborList(center, [(i, s) for i, s in pairs])
            for center, pairs in bundle["neighbors"].items()}


def _is_neighbor_list(center: str, pairs: object) -> bool:
    """A list of [item, score] pairs as write_bundle writes them: item ids
    and similarities in [0, 1]."""
    if type(pairs) is not list or undecodable(center):
        return False
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            return False
        item, score = pair
        if not (type(item) is str and not undecodable(item)
                and type(score) in (float, int) and 0 <= score <= 1):
            return False
    return True


def _load_bundle(cfg: PipelineConfig) -> dict:
    """The bundle at cfg.bundle; a file that is no bundle, or holds a
    malformed neighbor list, is an input error."""
    try:
        bundle = read_bundle(cfg.bundle)
    except OSError as exc:
        raise _InputError(f"cannot read bundle {cfg.bundle!r}: {exc}")
    except ValueError as exc:  # truncated, not JSON, not UTF-8
        raise _InputError(f"bundle {cfg.bundle!r} is not valid JSON: {exc}")
    if not isinstance(bundle, dict) or not isinstance(
            bundle.get("neighbors"), dict):
        raise _InputError(f"bundle {cfg.bundle!r} has no neighbor lists")
    for center, pairs in bundle["neighbors"].items():
        if not _is_neighbor_list(center, pairs):
            raise _InputError(
                f"bundle {cfg.bundle!r} has a malformed neighbor list for "
                f"{center!r}: expected a list of [item, score] pairs, with "
                f"scores in [0, 1]")
    return bundle


def _check_bundle_parameters(bundle: dict, cfg: PipelineConfig) -> None:
    """Refuse a bundle built with other neighborhood parameters."""
    wanted = [("mode", cfg.mode)]
    wanted += ([("k", cfg.k)] if cfg.mode == FIXED_K
               else [("threshold", cfg.threshold)])
    for name, value in wanted:
        if bundle.get(name) != value:
            raise _InputError(
                f"bundle {cfg.bundle!r} was built with {name} = "
                f"{bundle.get(name)!r}, but the config has {name} = "
                f"{value!r}; rebuild the bundle")


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

def _load_ratings(cfg: PipelineConfig) -> IngestResult:
    try:
        with open_text(cfg.ratings) as fh:
            return ingest_ratings(fh, cfg.ratings_format())
    except OSError as exc:
        raise _InputError(f"cannot read ratings file {cfg.ratings!r}: {exc}")


def _load_graph(cfg: PipelineConfig) -> tuple[TripleStore, list[Diagnostic]]:
    try:
        with open_text(cfg.triples) as fh:
            return load_ntriples(fh)
    except OSError as exc:
        raise _InputError(f"cannot read triples file {cfg.triples!r}: {exc}")


def _load_links(cfg: PipelineConfig, missing_ok: bool) -> dict[str, str]:
    """The link map; a malformed one is an input error, a missing one too
    unless missing_ok."""
    try:
        return load_links(cfg.links)
    except OSError as exc:
        if missing_ok:
            return {}
        raise _InputError(f"cannot read link map {cfg.links!r}: {exc}")
    except ValueError as exc:
        raise _InputError(str(exc))


class _InputError(Exception):
    pass


def cmd_build(cfg: PipelineConfig, log: IO[str]) -> int:
    ingest = _load_ratings(cfg)
    store, triple_diags = _load_graph(cfg)
    links = _load_links(cfg, missing_ok=False)
    matrix = ingest.matrix
    lists = all_pairs_knn(matrix, cfg.k, workers=cfg.workers,
                          tau=cfg.threshold)
    result = store.materialize_knn(lists, links, iri(cfg.knn_predicate))
    unmatched = [item for item in matrix.items
                 if store.linked_entity(item, links) is None]
    matched = len(matrix.items) - len(unmatched)
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
    try:
        write_bundle(cfg.bundle, matrix, lists, cfg, result.added,
                     diagnostics)
    except OSError as exc:
        raise _InputError(f"cannot write bundle {cfg.bundle!r}: {exc}")
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
    neighbors = _load_bundle(cfg)["neighbors"]
    item_id = target
    if item_id not in neighbors:
        # maybe an entity iri: resolve back through the link map
        links = _load_links(cfg, missing_ok=True)
        item_id = reverse_links(links, neighbors).get(target)
        if item_id is None:
            print(f"error: unknown item or entity: {target!r}", file=sys.stderr)
            return EXIT_RESOLUTION
    nl = NeighborList(item_id, [(i, s) for i, s in neighbors[item_id]])
    out.write(format_neighbors_tsv(nl))
    return EXIT_OK


def cmd_summarize(cfg: PipelineConfig, targets: Sequence[str],
                  all_entities: bool, out: IO[str]) -> int:
    bundle = _load_bundle(cfg)
    _check_bundle_parameters(bundle, cfg)
    store, _diags = _load_graph(cfg)
    links = _load_links(cfg, missing_ok=False)
    lists = bundle_neighbor_lists(bundle)
    knn_predicate = iri(cfg.knn_predicate)
    type_filter = iri(cfg.type_filter)
    context = SummaryContext(store, lists, links, knn_predicate, type_filter)
    if all_entities:
        targets = [t.lexical
                   for t in sorted(context.universe, key=lambda t: t.lexical)]
    render = (render_summary_tsv if cfg.format == "tsv"
              else render_summary_structured)
    failures = 0
    for idx, target in enumerate(targets):
        try:
            summary = summarize(
                store, lists, links, target,
                knn_predicate=knn_predicate, type_filter=type_filter,
                k=cfg.k, n=cfg.n, tau=cfg.threshold, two_hop=cfg.two_hop,
                context=context)
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


def _open_out(cfg: PipelineConfig) -> contextlib.AbstractContextManager:
    if cfg.out == "-" or not cfg.out:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(cfg.out, "w", encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write output {cfg.out!r}: {exc}")


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
        code = _run(args, cfg)
        # flushed here, so that a reader gone early is seen below and not
        # at interpreter exit
        sys.stdout.flush()
        return code
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:
        # stdout's reader has gone (as in `| head`): stop quietly, and send
        # what is still buffered for stdout to devnull at exit
        with contextlib.suppress(OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT


def _run(args: argparse.Namespace, cfg: PipelineConfig) -> int:
    if args.command == "build":
        return cmd_build(cfg, sys.stdout)
    if args.command == "neighbors":
        with _open_out(cfg) as out:
            return cmd_neighbors(cfg, args.target, out)
    if args.command == "summarize":
        if not args.all and not args.targets:
            print("error: no entities requested (pass ids or --all)",
                  file=sys.stderr)
            return EXIT_INPUT
        with _open_out(cfg) as out:
            return cmd_summarize(cfg, args.targets, args.all, out)
    raise AssertionError(f"unhandled command {args.command!r}")
