"""Arbitrary input bytes through every command: an exit code, never a crash.

Each example writes a ratings file, a graph and a link map (each the
8-film fixture's, a byte-edited copy of it, or arbitrary bytes), runs
`build` (with k = 20, a threshold, or a k beyond any item count), then
keeps, damages or replaces the bundle it wrote (a replacement may be
JSON nested past the recursion limit) and the graph snapshot beside it,
and runs `neighbors` and
`summarize`, on fixed targets and on arbitrary text
(the empty string included), then `build` once more over the damaged
pair, which reads the snapshot before it parses. Every command must
return 0, 1 or 2 and raise nothing, and a rebuild of a corpus that built
must write the first build's bytes. Standard output is a strict UTF-8 stream, as a terminal or
pipe is, so text that cannot be printed also counts as a crash.
"""

from __future__ import annotations

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import FILM_TYPE, film_iri, write_eight_film_corpus
from knnsum.cli import FORMAT_VERSION, main

INPUTS = ("ratings", "triples", "links")

edits = st.lists(st.tuples(st.integers(0, 2_000), st.integers(0, 3),
                           st.binary(max_size=4)), min_size=1, max_size=4)
# None keeps a file as it is, a list of edits changes it, bytes replace it
changes = st.one_of(st.none(), edits, st.binary(max_size=300))

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8)
# a bundle that passes the version and parameter checks, with arbitrary
# neighbor lists
json_bundles = st.dictionaries(st.text(max_size=3), json_values,
                               max_size=4).map(
    lambda neighbors: json.dumps({"format_version": FORMAT_VERSION,
                                  "mode": "fixed-k", "k": 20,
                                  "threshold": None,
                                  "neighbors": neighbors}).encode())
# JSON nested past any recursion limit, whole or under "neighbors"
deep_bundles = st.sampled_from([b"", b'{"neighbors": ']).map(
    lambda head: head + b'{"a": [' * 100_000)
# command-line targets: any text, the empty string always among them
targets = st.lists(st.text(max_size=12), max_size=2).map(lambda t: ["", *t])


def changed(data: bytes, change) -> bytes:
    if change is None or isinstance(change, bytes):
        return data if change is None else change
    out = bytearray(data)
    for pos, width, new in change:
        pos = pos % (len(out) + 1)
        out[pos:pos + width] = new
    return bytes(out)


def run(argv: list[str]) -> int:
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8")
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
        out.flush()
    return code


@pytest.fixture(scope="module")
def fixture_bytes(tmp_path_factory) -> dict[str, bytes]:
    corpus = write_eight_film_corpus(tmp_path_factory.mktemp("eight"))
    return {name: getattr(corpus, name).read_bytes() for name in INPUTS}


@given(inputs=st.tuples(changes, changes, changes),
       bundle=st.one_of(changes, json_bundles, deep_bundles),
       snapshot=changes,
       mode=st.sampled_from([[], ["--threshold", "0.5"],
                             ["--k", "100000000000000000000"]]),
       texts=targets)
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_arbitrary_input_bytes_never_crash(fixture_bytes, inputs, bundle,
                                           snapshot, mode, texts):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        flags = []
        for name, change in zip(INPUTS, inputs):
            path = root / name
            path.write_bytes(changed(fixture_bytes[name], change))
            flags += [f"--{name}", str(path)]
        bundle_path = root / "bundle.json"
        flags += ["--bundle", str(bundle_path), "--type-filter", FILM_TYPE,
                  *mode]
        first = run(["build", *flags])
        assert first in (0, 1, 2)
        pair = (bundle_path, root / "bundle.json.graph")
        built = [path.read_bytes() for path in pair] if first == 0 else None
        for path, change in zip(pair, (bundle, snapshot)):
            if path.exists() or isinstance(change, bytes):
                old = path.read_bytes() if path.exists() else b""
                path.write_bytes(changed(old, change))
        for argv in (["neighbors", *flags, "m1"],
                     ["neighbors", *flags, film_iri("m1")],
                     ["neighbors", *flags, "--", texts[-1]],
                     ["summarize", *flags, "m1", film_iri("m2")],
                     ["summarize", *flags, "--", "m1", *texts],
                     ["summarize", *flags, "--all", "--two-hop",
                      "--format", "structured"]):
            assert run(argv) in (0, 1, 2)
        rebuilt = run(["build", *flags])
        assert rebuilt in (0, 1, 2)
        if built is not None and rebuilt == 0:
            assert [path.read_bytes() for path in pair] == built
