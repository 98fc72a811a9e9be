"""Command-line pipeline: build, neighbors, summarize.

Configuration comes from a flat ``key = value`` file; every key can be
overridden by a CLI flag, and flags win. Exit codes: 0 success, 1 input
error (a usage error too), 2 resolution error.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import hashlib
import json
import os
import sys
from dataclasses import dataclass, field, fields
from typing import (IO, Callable, Iterable, Mapping, NoReturn, Sequence,
                    TypeVar, get_args, get_type_hints)

from .rdf import (DEFAULT_KNN_PREDICATE, IRI, TripleStore,
                  _no_cycle_collection, iri, load_ntriples, term_to_ntriples)
from .similarity import (DEFAULT_K, NeighborList, all_pairs_knn,
                         format_neighbors_tsv)
# Bound here, though no command calls it, so that the benchmark's traced
# pass (perfbench/spans.py) can wrap it by name in this module.
from .similarity import neighbors_above_threshold  # noqa: F401
from .summarize import (DEFAULT_N, FIXED_K, THRESHOLD, ResolutionError,
                        Summary, SummaryContext, reverse_links, summarize)
from .textio import NOT_UTF8, read_text, undecodable
from .usage import RatingsFormat, UsageMatrix, ingest_ratings

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_RESOLUTION = 2
FORMATS = ("tsv", "structured")


def _setting(default, help: str, **flag):
    """A PipelineConfig field with its flag's help text and argparse extras
    (no type: _config_value converts the flag's text)."""
    return field(default=default, metadata={"help": help, **flag})


@dataclass
class PipelineConfig:
    """Every setting, declared once: a config-file key and a flag (user_col
    is --user-col), typed by its annotation, listed in help in this order."""

    ratings: str = _setting("", "ratings log path")
    delimiter: str = _setting("\t", "ratings field delimiter (default tab)")
    user_col: int = _setting(0, "0-based user id column (default 0)")
    item_col: int = _setting(1, "0-based item id column (default 1)")
    rating_col: int | None = _setting(
        None, "rating column, validated but discarded")
    timestamp_col: int | None = _setting(
        None, "timestamp column, validated but discarded")
    header: bool = _setting(True, "ratings file has a header line (default "
                            "yes)", action=argparse.BooleanOptionalAction)
    triples: str = _setting("", "N-Triples graph path")
    links: str = _setting("", "item id -> entity iri TSV path")
    bundle: str = _setting("bundle.json", "index bundle path (build output)")
    k: int = _setting(DEFAULT_K, f"neighborhood size (default {DEFAULT_K})")
    n: int = _setting(DEFAULT_N, f"summary length (default {DEFAULT_N})")
    threshold: float | None = _setting(
        None, "similarity threshold; switches neighborhood mode")
    type_filter: str = _setting("http://rdf.freebase.com/ns/film.film",
                                "rdf:type IRI restricting the entity universe")
    knn_predicate: str = _setting(
        DEFAULT_KNN_PREDICATE, "predicate IRI for materialized knn edges")
    format: str = _setting("tsv", "summary output format",
                           metavar="{" + ",".join(FORMATS) + "}")
    two_hop: bool = _setting(False, "rank two-hop composite features",
                             action="store_true")
    workers: int = _setting(1, "threads for the build's neighborhood "
                            "computation, fixed-k and threshold mode alike "
                            "(default 1)")
    out: str = _setting("-", "output path, or - for stdout")

    def validate(self) -> None:
        self.ratings_format()  # the ratings layout checks its own columns
        for name in ("knn_predicate", "type_filter"):
            if not getattr(self, name):
                raise ValueError(f"{name} must be a non-empty IRI")
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if self.threshold is not None and not (0.0 < self.threshold < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.threshold}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown output format: {self.format!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def mode(self) -> str:
        return THRESHOLD if self.threshold is not None else FIXED_K

    def ratings_format(self) -> RatingsFormat:
        return RatingsFormat(self.delimiter, self.user_col, self.item_col,
                             self.rating_col, self.timestamp_col, self.header)


# each setting's value type: its annotation, with X | None read as X
_SETTING_TYPES = {name: next((t for t in get_args(hint)
                              if t is not type(None)), hint)
                  for name, hint in get_type_hints(PipelineConfig).items()}
_BOOLS = {"1": True, "true": True, "yes": True, "on": True,
          "0": False, "false": False, "no": False, "off": False}


def _config_value(key: str, value: str):
    """A config-file or flag value converted to its setting's type."""
    kind = _SETTING_TYPES[key]
    if kind is bool:
        if value.lower() not in _BOOLS:
            raise ValueError(f"expected 1/0, true/false, yes/no or on/off, "
                             f"got {value!r}")
        return _BOOLS[value.lower()]
    if key == "delimiter":
        # backslash escapes such as \t; any other character stays itself
        return value.encode("latin-1", "backslashreplace").decode(
            "unicode_escape")
    return kind(value)


def parse_config_file(path: str) -> dict:
    """Flat ``key = value`` lines; # starts a comment; blank lines ignored."""
    values: dict = {}
    _data, text = read_text(path)
    with text as fh:
        for line_no, raw in enumerate(fh, start=1):
            if undecodable(raw):
                raise ValueError(f"{path}:{line_no}: {NOT_UTF8}")
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{line_no}: expected key = value")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _SETTING_TYPES:
                raise ValueError(f"{path}:{line_no}: unknown key {key!r}")
            try:
                values[key] = _config_value(key, value.strip())
            except ValueError as exc:
                raise ValueError(f"{path}:{line_no}: {key}: {exc}") from None
    return values


def load_links(lines: Iterable[str], path: str) -> dict[str, str]:
    """Static link map: ``item_id <TAB> entity_iri`` per line of lines,
    read from the file at path, which diagnostics name. Both fields are
    stripped of whitespace, as the ratings reader strips its ids. A line
    with another number of fields or an empty one, or one that links an
    item already linked to another IRI, is refused: either would leave an
    item's entity a guess."""
    links: dict[str, str] = {}
    for line_no, raw in enumerate(lines, start=1):
        if undecodable(raw):
            raise ValueError(f"{path}:{line_no}: {NOT_UTF8}")
        line = raw.rstrip("\r\n")
        if not line or line.startswith("#"):
            continue
        parts = [part.strip() for part in line.split("\t")]
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise ValueError(f"{path}:{line_no}: expected item_id<TAB>iri")
        item, target = parts
        if links.setdefault(item, target) != target:
            raise ValueError(f"{path}:{line_no}: item {item!r} is already "
                             f"linked to {links[item]!r}")
    return links


# -- bundle ------------------------------------------------------------------

# The bundle layout that build writes and the lookups read: version 3 adds
# the link map's fingerprint to version 2's graph and snapshot ones (and
# the ratings file's, which no lookup reads).
FORMAT_VERSION = 3


def _snapshot_path(bundle: str) -> str:
    """Where the graph snapshot of the bundle at the given path lives."""
    return f"{bundle}.graph"


def _fingerprint(data: bytes) -> dict:
    """The size and sha256 of data."""
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}


_Parsed = TypeVar("_Parsed")


def _parse_input(what: str, path: str, parse: Callable[[IO[str]], _Parsed]
                 ) -> tuple[dict, _Parsed]:
    """The _fingerprint of the file at path, and what parse makes of its
    text, from one read: what is vouched for is what was parsed."""
    with _reading(what, path):
        data, text = read_text(path)
        with text:
            return _fingerprint(data), parse(text)


def write_bundle(path: str, matrix: UsageMatrix,
                 lists: Mapping[str, NeighborList], cfg: PipelineConfig,
                 knn_added: int, diagnostics: dict, store: TripleStore,
                 inputs: Mapping[str, dict]) -> None:
    """Write the bundle at path and the store's snapshot beside it; inputs
    maps ratings, graph and links to the _fingerprint of each input file."""
    # Each file goes to a temporary file beside it, and is synced to disk.
    # Only once both are complete does each replace its previous file, the
    # snapshot first, so a failed write leaves the previous pair as it was,
    # and a crash between the two renames leaves a bundle whose snapshot
    # fingerprint does not match, which the lookups refuse.
    # A directory in either place is refused first: as the bundle, its
    # rename would fail only once the snapshot had replaced the old one.
    for what, target in (("graph snapshot", _snapshot_path(path)),
                         ("bundle", path)):
        if os.path.isdir(target):
            with _writing(what, target):
                raise IsADirectoryError(errno.EISDIR,
                                        os.strerror(errno.EISDIR))
    staged: list[tuple[str, str, str]] = []  # what, path, temporary file

    def stage(what: str, target: str, mode: str, write) -> None:
        tmp = f"{target}.{os.getpid()}.tmp"
        staged.append((what, target, tmp))
        with _writing(what, target), open(
                tmp, mode, encoding=None if "b" in mode else "utf-8") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())

    try:
        data = store.snapshot()
        snapshot = _fingerprint(data)
        stage("graph snapshot", _snapshot_path(path), "wb",
              lambda fh: fh.write(data))
        del data  # not held while the bundle is made and written
        payload = {
            "format_version": FORMAT_VERSION,
            **inputs,
            "snapshot": snapshot,
            "users": len(matrix.users),
            "items": len(matrix.items),
            "k": cfg.k,
            "mode": cfg.mode,
            "threshold": cfg.threshold,
            "knn_predicate": cfg.knn_predicate,
            "type_filter": cfg.type_filter,
            "knn_triples_added": knn_added,
            "diagnostics": diagnostics,
            # (item, score) tuples encode as [item, score] arrays
            "neighbors": {center: nl.neighbors
                          for center, nl in lists.items()},
        }
        # json.dumps runs the C encoder; json.dump to a file streams
        # through the pure-Python one
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        stage("bundle", path, "w", lambda fh: fh.write(text + "\n"))
        for what, target, tmp in staged:
            with _writing(what, target):
                os.replace(tmp, target)
    except BaseException:
        for _what, _target, tmp in staged:
            with contextlib.suppress(OSError):
                os.remove(tmp)
        raise


def read_bundle(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _neighbor_list(center: str, pairs: object) -> NeighborList | None:
    """center's NeighborList over pairs as loaded, if they are [item, score]
    pairs, item ids with similarities in [0, 1]; else None."""
    if type(pairs) is not list:
        return None
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2:
            return None
        item, score = pair
        if not (type(item) is str and type(score) in (float, int)
                and 0 <= score <= 1):
            return None
    # one check for the lot: joining never pairs up two lone surrogates
    if undecodable(center + "".join([pair[0] for pair in pairs])):
        return None
    return NeighborList(center, pairs)


def _load_bundle(cfg: PipelineConfig, settings: Sequence[str] = ()
                 ) -> tuple[dict, dict[str, NeighborList]]:
    """The bundle at cfg.bundle and its neighbor lists. A file that is no
    bundle, has another format_version, holds a malformed neighbor list, or
    was built with other neighborhood parameters than cfg names, or with
    another value of one of the named settings, is an input error."""
    with _reading("bundle", cfg.bundle,
                  f"bundle {cfg.bundle!r} is not valid JSON: "):
        bundle = read_bundle(cfg.bundle)
    if not isinstance(bundle, dict) or not isinstance(
            bundle.get("neighbors"), dict):
        raise _CommandError(f"bundle {cfg.bundle!r} has no neighbor lists")
    if bundle.get("format_version") != FORMAT_VERSION:
        raise _CommandError(
            f"bundle {cfg.bundle!r} has format_version = "
            f"{bundle.get('format_version')!r}, but this knnsum reads "
            f"format_version = {FORMAT_VERSION}; rebuild the bundle")
    lists = {}
    for center, pairs in bundle["neighbors"].items():
        lists[center] = _neighbor_list(center, pairs)
        if lists[center] is None:
            raise _CommandError(
                f"bundle {cfg.bundle!r} has a malformed neighbor list for "
                f"{center!r}: expected a list of [item, score] pairs, with "
                f"scores in [0, 1]")
    wanted = [("mode", cfg.mode)]
    wanted += ([("k", cfg.k)] if cfg.mode == FIXED_K
               else [("threshold", cfg.threshold)])
    wanted += [(name, getattr(cfg, name)) for name in settings]
    for name, value in wanted:
        if bundle.get(name) != value:
            raise _CommandError(
                f"bundle {cfg.bundle!r} was built with {name} = "
                f"{bundle.get(name)!r}, but the config has {name} = "
                f"{value!r}; rebuild the bundle")
    return bundle, lists


def _check_fingerprint(cfg: PipelineConfig, bundle: dict, name: str,
                       path: str, found: dict) -> None:
    """Refuse the bundle unless its fingerprint field name records the
    size and sha256 found for the file at path."""
    recorded = bundle.get(name)
    for key in ("size", "sha256"):
        want = recorded.get(key) if isinstance(recorded, dict) else None
        if want != found[key]:
            raise _CommandError(
                f"bundle {cfg.bundle!r} records {name}.{key} = {want!r}, but "
                f"{path!r} has {key} = {found[key]!r}; rebuild the bundle")


def _load_graph(cfg: PipelineConfig, bundle: dict) -> TripleStore:
    """The store in the bundle's graph snapshot. The graph at cfg.triples
    and the snapshot must match the fingerprints the bundle records; the
    snapshot's is checked before a byte of it is unmarshalled."""
    with _reading("triples file", cfg.triples), open(cfg.triples, "rb") as fh:
        graph = _fingerprint(fh.read())
    _check_fingerprint(cfg, bundle, "graph", cfg.triples, graph)
    path = _snapshot_path(cfg.bundle)
    with _reading("graph snapshot", path), open(path, "rb") as fh:
        data = fh.read()
    _check_fingerprint(cfg, bundle, "snapshot", path, _fingerprint(data))
    try:
        return TripleStore.from_snapshot(data)
    except ValueError as exc:
        raise _CommandError(
            f"graph snapshot {path!r} {exc}; rebuild the bundle") from None


def _read_links(cfg: PipelineConfig) -> tuple[dict, dict[str, str]]:
    """The link map at cfg.links: its _fingerprint and its parse."""
    return _parse_input("link map", cfg.links,
                        lambda fh: load_links(fh, cfg.links))


def _load_checked_links(cfg: PipelineConfig, bundle: dict) -> dict[str, str]:
    """The link map at cfg.links, refused unless the bundle records its
    fingerprint; parsed first, so a malformed line is named by number."""
    found, links = _read_links(cfg)
    _check_fingerprint(cfg, bundle, "links", cfg.links, found)
    return links


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

class _CommandError(Exception):
    """A failed command: main prints ``error: MESSAGE`` and returns code."""

    def __init__(self, message: str, code: int = EXIT_INPUT):
        super().__init__(message)
        self.code = code


@contextlib.contextmanager
def _reading(what: str, path: str, malformed: str = ""):
    """Report the block's failure to read the file at path as a command
    error: one it cannot open or read (OSError) names what and path; one
    it finds malformed (ValueError, or RecursionError for JSON nested too
    deep) gives malformed, then the error's own message."""
    try:
        yield
    except OSError as exc:
        raise _CommandError(f"cannot read {what} {path!r}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise _CommandError(f"{malformed}{exc}") from None


@contextlib.contextmanager
def _writing(what: str, path: str):
    """Report the block's failure to write the file at path as a command
    error naming what and path; not the temporary file it was writing."""
    try:
        yield
    except OSError as exc:
        raise _CommandError(f"cannot write {what} {path!r}: "
                            f"[Errno {exc.errno}] {exc.strerror}") from None


def cmd_build(cfg: PipelineConfig, log: IO[str]) -> int:
    # numpy, first imported below, calls no BLAS here: start no BLAS threads
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    inputs = {}
    inputs["ratings"], ingest = _parse_input(
        "ratings file", cfg.ratings,
        lambda fh: ingest_ratings(fh, cfg.ratings_format()))
    if not ingest.matrix.items:  # not a linking fault: name the lines
        rejected = ingest.rejected
        first = (f"; first: line {rejected[0].line_no}: {rejected[0].reason}"
                 if rejected else "")
        raise _CommandError(f"no ratings line of {cfg.ratings!r} was "
                            f"accepted ({len(rejected)} rejected{first})")
    inputs["graph"], (store, triple_diags) = _parse_input(
        "triples file", cfg.triples, load_ntriples)
    inputs["links"], links = _read_links(cfg)
    matrix = ingest.matrix
    unmatched = [item for item in matrix.items
                 if store.linked_entity(item, links) is None]
    matched = len(matrix.items) - len(unmatched)
    if matched == 0:  # refused before the kernel runs
        raise _CommandError("no usage item could be linked to a store entity")
    lists = all_pairs_knn(matrix, cfg.k, workers=cfg.workers,
                          tau=cfg.threshold)
    # the knn triples that materialize_knn would add to the store, counted
    # and let go: the set is not held while the bundle is written
    edges, skipped = store.knn_edges(lists, links, iri(cfg.knn_predicate))
    knn_added = len(edges)
    del edges
    diagnostics = {
        "rejected_ratings_lines": ingest.rejected,
        "malformed_triple_lines": triple_diags,
        "unmatched_items": unmatched,
        "skipped_links": skipped,
    }
    write_bundle(cfg.bundle, matrix, lists, cfg, knn_added, diagnostics,
                 store, inputs)
    log.write(f"users: {len(matrix.users)}\n")
    log.write(f"items: {len(matrix.items)}\n")
    log.write(f"rejected ratings lines: {len(ingest.rejected)}\n")
    log.write(f"triples loaded: {len(store)}\n")
    log.write(f"malformed triple lines: {len(triple_diags)}\n")
    log.write(f"linked items: {matched}/{len(matrix.items)}\n")
    log.write(f"unmatched items: {len(unmatched)}\n")
    log.write(f"knn triples added: {knn_added}\n")
    log.write(f"bundle: {cfg.bundle}\n")
    return EXIT_OK


def cmd_neighbors(cfg: PipelineConfig, target: str) -> int:
    bundle, lists = _load_bundle(cfg)
    item_id = target
    if item_id not in lists:  # maybe an entity iri: back through the links
        links = _load_checked_links(cfg, bundle)
        item_id = reverse_links(links, lists).get(target)
        if item_id is None:
            raise _CommandError(f"unknown item or entity: {target!r}",
                                EXIT_RESOLUTION)
    with _open_out(cfg) as out:
        out.write(format_neighbors_tsv(lists[item_id]))
    return EXIT_OK


def cmd_summarize(cfg: PipelineConfig, targets: Sequence[str],
                  all_entities: bool) -> int:
    # a summary's features depend on both; a neighbor list on neither
    bundle, lists = _load_bundle(cfg, ("knn_predicate", "type_filter"))
    store = _load_graph(cfg, bundle)
    links = _load_checked_links(cfg, bundle)
    knn_predicate = iri(cfg.knn_predicate)
    type_filter = iri(cfg.type_filter)
    context = SummaryContext(store, lists, links, knn_predicate, type_filter)
    if all_entities:
        # a link map names only IRIs, so no target names a blank node
        targets = sorted(t.lexical for t in context.universe if t.kind == IRI)
    render = (render_summary_tsv if cfg.format == "tsv"
              else render_summary_structured)
    failures = 0
    with contextlib.ExitStack() as stack:
        out = None
        for target in targets:
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
            if out is None:  # opened once a target resolves; see _open_out
                out = stack.enter_context(_open_out(cfg))
            else:  # a blank line between summaries
                out.write("\n")
            out.write(render(summary))
        if out is None and not failures:  # an empty universe: empty output
            stack.enter_context(_open_out(cfg))
    return EXIT_RESOLUTION if failures else EXIT_OK


# -- argument plumbing ---------------------------------------------------------

def _common_flags() -> argparse.ArgumentParser:
    """--config and one flag per PipelineConfig field, for every command."""
    p = argparse.ArgumentParser(add_help=False)
    p.add_argument("--config", help="flat key = value config file")
    for f in fields(PipelineConfig):
        p.add_argument(f"--{f.name.replace('_', '-')}", default=None,
                       **f.metadata)
    return p


def build_config(args: argparse.Namespace) -> PipelineConfig:
    values = parse_config_file(args.config) if args.config else {}
    for f in fields(PipelineConfig):
        value = getattr(args, f.name)
        if isinstance(value, str):  # a switch's value is already a bool
            try:
                value = _config_value(f.name, value)
            except ValueError as exc:
                raise ValueError(
                    f"--{f.name.replace('_', '-')}: {exc}") from None
        if value is not None:
            values[f.name] = value
    cfg = PipelineConfig(**values)
    cfg.validate()
    return cfg


def _open_out(cfg: PipelineConfig) -> contextlib.AbstractContextManager:
    """The output stream; a file is opened, and so truncated, only when a
    command has read its inputs and is about to write. One it cannot open
    raises OSError, which _run reports as it reports a failed write."""
    if cfg.out == "-" or not cfg.out:
        return contextlib.nullcontext(sys.stdout)
    return open(cfg.out, "w", encoding="utf-8")


class _ArgumentParser(argparse.ArgumentParser):
    """argparse's parser, whose usage errors (an unknown flag or command, a
    missing argument) are input errors, exit 1, not its own exit 2."""

    def error(self, message: str) -> NoReturn:
        raise _CommandError(message)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _ArgumentParser(
        prog="knnsum",
        description="Usage-data-driven entity summarization pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    common = [_common_flags()]
    sub.add_parser("build", parents=common, help="ingest inputs and persist "
                                                 "the neighbor-list bundle")
    p_nb = sub.add_parser("neighbors", parents=common,
                          help="print one item's neighbor list")
    p_nb.add_argument("target", help="item id or entity iri")
    p_sum = sub.add_parser("summarize", parents=common,
                           help="print entity summaries")
    p_sum.add_argument("targets", nargs="*", help="item ids or entity iris")
    p_sum.add_argument("--all", action="store_true",
                       help="summarize every entity in the universe")
    try:
        args = parser.parse_args(argv)
        # The command's data (usage matrix, neighbor lists, store indexes,
        # weighed features) forms no reference cycles, so the cycle
        # collector would only rescan it: it is off while the command runs.
        with _no_cycle_collection():
            return _run(args)
    except _CommandError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


def _run(args: argparse.Namespace) -> int:
    # summarize takes targets or --all, checked before any file is read
    if args.command == "summarize" and bool(args.targets) == args.all:
        raise _CommandError("pass entity ids or --all, not both" if args.all
                            else "no entities requested (pass ids or --all)")
    try:
        cfg = build_config(args)
    except (ValueError, OSError) as exc:
        raise _CommandError(str(exc)) from None
    # where the command writes: build logs to stdout, whatever --out says
    out = cfg.out if args.command != "build" and cfg.out else "-"
    try:
        if args.command == "build":
            code = cmd_build(cfg, sys.stdout)
        elif args.command == "neighbors":
            code = cmd_neighbors(cfg, args.target)
        else:
            code = cmd_summarize(cfg, args.targets, args.all)
        # flushed here, so that a failed write is seen below and not at
        # interpreter exit
        sys.stdout.flush()
        return code
    except OSError as exc:  # a write to the output failed
        if out == "-":  # what is still buffered goes to devnull at exit
            with contextlib.suppress(OSError, ValueError):
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            return EXIT_INPUT  # the reader has gone (as in `| head`): quietly
        raise _CommandError(f"cannot write output {out!r}: {exc}") from None
