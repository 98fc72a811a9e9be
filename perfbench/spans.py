"""In-process traced pass: spans around every public knnsum call.

The pass runs the real ``knnsum.cli.main`` for each command, with the
module attributes and ``TripleStore`` methods it calls temporarily
replaced by span-recording wrappers, so the calls happen in exactly the
order ``cmd_build`` / ``cmd_neighbors`` / ``cmd_summarize`` make them.
Spans live in memory; a layer's self time is its span's duration minus
the time its direct child spans cover. The layers are the modules:
usage, similarity, rdf, summarize, cli.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import resource
import time
from dataclasses import dataclass, field

LAYERS = ("usage", "similarity", "rdf", "summarize", "cli")


def rss_hwm_mb() -> float:
    """This process's resident-set high-water mark."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Span:
    name: str
    op: str
    parent: int | None
    start: float
    end: float = 0.0
    rss_mb: float = 0.0
    children: list[int] = field(default_factory=list)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Nested spans recorded from the calling thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = ""

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        self.spans.append(Span(name, self.op, parent, time.perf_counter()))
        if parent is not None:
            self.spans[parent].children.append(idx)
        self._stack.append(idx)
        try:
            yield self.spans[idx]
        finally:
            s = self.spans[idx]
            s.end = time.perf_counter()
            s.rss_mb = rss_hwm_mb()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    def self_time(self, s: Span) -> float:
        return s.duration - sum(self.spans[c].duration for c in s.children)

    def select(self, name: str | tuple[str, ...], op: str | None = None
               ) -> list[Span]:
        names = (name,) if isinstance(name, str) else name
        return [s for s in self.spans
                if s.name in names and (op is None or s.op == op)]


def _patch_points(knnsum_cli, knnsum_summarize, store_cls):
    """(owner, attribute, span name) for every public call the commands make."""
    return [
        (knnsum_cli, "ingest_ratings", "usage.ingest_ratings"),
        (knnsum_cli, "load_ntriples", "rdf.load_ntriples"),
        (knnsum_cli, "load_links", "cli.load_links"),
        (knnsum_cli, "all_pairs_knn", "similarity.all_pairs_knn"),
        (knnsum_cli, "neighbors_above_threshold",
         "similarity.neighbors_above_threshold"),
        (knnsum_cli, "write_bundle", "cli.write_bundle"),
        (knnsum_cli, "read_bundle", "cli.read_bundle"),
        (knnsum_cli, "summarize", "summarize.summarize"),
        (knnsum_cli, "render_summary_tsv", "cli.render_summary"),
        (knnsum_cli, "render_summary_structured", "cli.render_summary"),
        (knnsum_summarize, "k_nearest_neighbors",
         "similarity.k_nearest_neighbors"),
        (knnsum_summarize, "neighbors_above_threshold",
         "similarity.neighbors_above_threshold"),
        (store_cls, "materialize_knn", "rdf.materialize_knn"),
        (store_cls, "shared_features", "rdf.shared_features"),
        (store_cls, "shared_two_hop_paths", "rdf.shared_two_hop_paths"),
    ]


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Replace the patch points by span wrappers; restore them on exit."""
    # knnsum re-exports the function summarize under the module's name,
    # so the modules are looked up by their import path.
    cli = importlib.import_module("knnsum.cli")
    summarize = importlib.import_module("knnsum.summarize")
    rdf = importlib.import_module("knnsum.rdf")
    saved = []
    try:
        for owner, attr, name in _patch_points(cli, summarize,
                                               rdf.TripleStore):
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def run_command(tracer: Tracer, op: str, argv: list[str]
                ) -> tuple[int, str, str, float]:
    """knnsum.cli.main(argv) under a top-level span; (exit, out, err, s)."""
    import knnsum.cli
    out, err = io.StringIO(), io.StringIO()
    tracer.op = op
    with tracer.span(f"cli.{op}") as s, contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = knnsum.cli.main(argv)
    return code, out.getvalue(), err.getvalue(), s.duration
