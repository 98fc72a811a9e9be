import builtins
import codecs
import errno
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import marshal
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import knnsum

from conftest import (EX, FILM_TYPE, FILMS, KNN_PRED, eight_film_triples,
                      film_iri, write_eight_film_corpus)
from knnsum import cli as knnsum_cli
from knnsum.cli import (PipelineConfig, main, render_summary_structured,
                        write_bundle)
from knnsum.similarity import NeighborList, all_pairs_knn
from knnsum.rdf import RDF_TYPE, SNAPSHOT_HEADER, TripleStore, iri
from knnsum.summarize import summarize
from knnsum.usage import RatingsFormat, UsageMatrix, ingest_ratings
from knnsum.rdf import load_ntriples
from knnsum.cli import load_links
from oracles import reference_neighbor_list

IN_CLUSTER_SCORE = 1 - 1 / (1 + 16 * math.log(2))
EXTRA_TRIPLE = f"<{film_iri('m1')}> <{EX}p/award> <{EX}v/a1> .\n"


def build(corpus, *extra):
    return main(["build", "--config", str(corpus.config), *extra])


def snapshot_of(corpus) -> Path:
    """The graph snapshot that build writes beside the corpus's bundle."""
    return corpus.bundle.with_name(corpus.bundle.name + ".graph")


def read_links(path: Path) -> dict[str, str]:
    """The link map at path, parsed as the commands parse it."""
    with path.open(encoding="utf-8") as fh:
        return load_links(fh, str(path))


def test_build_reports_counts(eight_film_corpus, capsys):
    assert build(eight_film_corpus) == 0
    out = capsys.readouterr().out
    assert "users: 8" in out
    assert "items: 8" in out
    assert "linked items: 8/8" in out
    assert "knn triples added: 24" in out  # 8 films x 3 cluster mates
    bundle = json.loads(eight_film_corpus.bundle.read_text())
    assert bundle["k"] == 20
    assert len(bundle["neighbors"]) == 8


def test_build_missing_triples_file_names_path(eight_film_corpus, capsys):
    eight_film_corpus.triples.unlink()
    assert build(eight_film_corpus) == 1
    assert str(eight_film_corpus.triples) in capsys.readouterr().err


def test_build_reports_unmatched_links(eight_film_corpus, capsys):
    lines = eight_film_corpus.links.read_text().splitlines()
    eight_film_corpus.links.write_text("\n".join(lines[:-1]) + "\n")  # drop m8
    assert build(eight_film_corpus) == 0
    out = capsys.readouterr().out
    assert "unmatched items: 1" in out
    assert "linked items: 7/8" in out


def test_build_counts_knn_triples_by_the_materialize_rule(eight_film_corpus,
                                                         capsys):
    c = eight_film_corpus
    knn = f"<{KNN_PRED}>"
    with c.triples.open("a", encoding="utf-8") as fh:  # two edges already in
        fh.write(f"<{film_iri('m1')}> {knn} <{film_iri('m2')}> .\n"
                 f"<{film_iri('m5')}> {knn} <{film_iri('m6')}> .\n")
    links = {**read_links(c.links), "m4": film_iri("m3")}
    del links["m8"]  # a neighbor of m5, m6 and m7 with no entity
    c.links.write_text("".join(f"{i}\t{e}\n" for i, e in links.items()))
    assert build(c) == 0
    # cluster 1: M1->M3, M2->M1, M2->M3, M3->M1, M3->M2 (m4 adds only
    # repeats and the self-loop M3->M3); cluster 2: M5->M7, M6->M5,
    # M6->M7, M7->M5, M7->M6
    assert "knn triples added: 10" in capsys.readouterr().out
    lists = {center: NeighborList(center, [tuple(pair) for pair in pairs])
             for center, pairs in json.loads(c.bundle.read_text())[
                 "neighbors"].items()}  # the lists build counted
    store, _diags = load_ntriples(c.triples.read_text().splitlines())
    first = store.materialize_knn(lists, links, iri(KNN_PRED))
    assert first.added == 10
    assert any("m8" in message for message in first.skipped)
    assert store.materialize_knn(lists, links, iri(KNN_PRED)).added == 0


# materialize_knn on the corpus at sys.argv[1:] (ratings, graph, links) in a
# fresh interpreter: the triples added, then the snapshot's sha256
_MATERIALIZE_THEN_SNAPSHOT = """
import hashlib, sys
from knnsum.cli import load_links
from knnsum.rdf import iri, load_ntriples
from knnsum.similarity import all_pairs_knn
from knnsum.usage import RatingsFormat, ingest_ratings
ratings, graph, links = sys.argv[1:]
with open(ratings) as fh:
    matrix = ingest_ratings(fh, RatingsFormat(rating_col=2)).matrix
with open(graph) as fh:
    store, _ = load_ntriples(fh)
with open(links) as fh:
    link = load_links(fh, links)
result = store.materialize_knn(all_pairs_knn(matrix, 20), link,
                               iri("urn:knnsum:knn"))
print(result.added, hashlib.sha256(store.snapshot()).hexdigest())
"""


def test_materialize_knn_does_not_depend_on_the_hash_seed(eight_film_corpus):
    # knn_edges returns a set of Term pairs, iterated in string-hash order
    c = eight_film_corpus
    outputs = set()
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-c", _MATERIALIZE_THEN_SNAPSHOT,
             str(c.ratings), str(c.triples), str(c.links)],
            capture_output=True, text=True,
            env={**_child_env(), "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outputs.add(proc.stdout)
    assert len(outputs) == 1
    added = int(outputs.pop().split()[0])
    assert added == 24  # every in-cluster pair of either cluster, both ways


def test_build_k_beyond_item_count_keeps_every_co_rated_item(
        eight_film_corpus, capsys):
    assert build(eight_film_corpus, "--k", "8") == 0  # the item count
    lists = json.loads(eight_film_corpus.bundle.read_text())["neighbors"]
    assert build(eight_film_corpus, "--k", "100000000000000000000") == 0
    bundle = json.loads(eight_film_corpus.bundle.read_text())
    assert bundle["k"] == 10**20
    assert bundle["neighbors"] == lists


def test_build_zero_matched_links_fails(eight_film_corpus, capsys):
    eight_film_corpus.links.write_text("zz\thttp://example.org/nowhere\n")
    assert build(eight_film_corpus) == 1
    assert "link" in capsys.readouterr().err


def test_build_checks_link_coverage_before_the_kernel(eight_film_corpus,
                                                      capsys, monkeypatch):
    # every link names an IRI that is no subject of the graph
    eight_film_corpus.links.write_text("".join(
        f"{m}\t{EX}nowhere/{m}\n" for m in FILMS))

    def kernel(*args, **kwargs):
        raise AssertionError("all_pairs_knn ran for an unlinkable corpus")
    monkeypatch.setattr(knnsum_cli, "all_pairs_knn", kernel)
    assert build(eight_film_corpus) == 1
    assert capsys.readouterr().err == (
        "error: no usage item could be linked to a store entity\n")
    assert not eight_film_corpus.bundle.exists()
    assert not snapshot_of(eight_film_corpus).exists()


@pytest.mark.parametrize("ratings, rejected", [
    ("userID\tmovieID\trating\n", "0 rejected"),
    ("userID;movieID;rating\nu1;m1;4.0\nu2;m2;4.0\n",
     "2 rejected; first: line 2: expected at least 3 columns, got 1"),
], ids=["header only", "wrong delimiter"])
def test_build_without_accepted_ratings_names_the_ratings_file(
        eight_film_corpus, capsys, ratings, rejected):
    # no accepted line is a ratings fault, not a linking one
    eight_film_corpus.ratings.write_text(ratings, encoding="utf-8")
    assert build(eight_film_corpus) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: no ratings line of "
                            f"{str(eight_film_corpus.ratings)!r} was "
                            f"accepted ({rejected})\n")
    assert not eight_film_corpus.bundle.exists()


def test_neighbors_output(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    assert main(["neighbors", "--config", str(eight_film_corpus.config),
                 "m1"]) == 0
    out = capsys.readouterr().out
    lines = out.splitlines()
    assert [l.split("\t")[1] for l in lines] == ["m2", "m3", "m4"]
    for l in lines:
        assert l.split("\t")[2] == f"{IN_CLUSTER_SCORE:.6f}"


def test_neighbors_accepts_entity_iri(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    assert main(["neighbors", "--config", str(eight_film_corpus.config),
                 film_iri("m1")]) == 0
    assert "m2" in capsys.readouterr().out


def test_neighbors_iri_names_an_unreadable_link_map(eight_film_corpus,
                                                    capsys):
    build(eight_film_corpus)
    links = str(eight_film_corpus.links)
    eight_film_corpus.links.unlink()
    capsys.readouterr()
    cfg = ["--config", str(eight_film_corpus.config)]
    assert main(["neighbors", *cfg, film_iri("m1")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read link map {links!r}: [Errno "
                            f"{errno.ENOENT}] No such file or directory: "
                            f"{links!r}\n")
    assert main(["neighbors", *cfg, "m1"]) == 0  # an item id needs no links
    assert "m2" in capsys.readouterr().out


def test_neighbors_isolated_item_prints_nothing(eight_film_corpus, capsys):
    with eight_film_corpus.ratings.open("a") as fh:
        fh.write("u9\tm9\t3.0\n")
    build(eight_film_corpus)
    capsys.readouterr()
    assert main(["neighbors", "--config", str(eight_film_corpus.config),
                 "m9"]) == 0
    assert capsys.readouterr().out == ""


def test_neighbors_unknown_id(eight_film_corpus, capsys):
    build(eight_film_corpus)
    assert main(["neighbors", "--config", str(eight_film_corpus.config),
                 "bogus"]) == 2


def test_summarize_tsv_rows(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "--n", "3", "m1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith(f"# <{film_iri('m1')}>")
    rows = [l.split("\t") for l in lines[1:]]
    assert [r[0] for r in rows] == ["1", "2", "3"]
    assert [r[1] for r in rows] == ["2.08", "1.39", "0.00"]
    assert "genre" in rows[0][2]
    assert "studio" in rows[1][2]
    assert "country" in rows[2][2]


def test_summarize_structured_format(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "--format", "structured", "m1"]) == 0
    out = capsys.readouterr().out
    assert f"entity: <{film_iri('m1')}>" in out
    assert "neighbor_support=3" in out
    assert "global_support=4" in out


def test_summarize_all_iterates_universe_in_iri_order(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "--all"]) == 0
    out = capsys.readouterr().out
    headers = [l for l in out.splitlines() if l.startswith("# ")]
    iris = [h.split("\t")[0][3:-1] for h in headers]
    assert iris == sorted(film_iri(f"m{i}") for i in range(1, 9))
    assert len(headers) == 8


def test_summarize_mixed_valid_and_bogus(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    code = main(["summarize", "--config", str(eight_film_corpus.config),
                 "m1", "http://example.org/nope"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.count("# <") == 1
    assert "nope" in captured.err


def test_summarize_separates_only_written_summaries(eight_film_corpus,
                                                   capsys):
    build(eight_film_corpus)
    cfg = ["--config", str(eight_film_corpus.config), "--n", "1"]
    capsys.readouterr()
    assert main(["summarize", *cfg, "m1", "m2"]) == 0
    expected = capsys.readouterr().out
    assert main(["summarize", *cfg, "bogus", "m1", "nope", "m2"]) == 2
    out = capsys.readouterr().out
    assert out.startswith("# ")
    assert out == expected


def test_summarize_empty_target_is_a_resolution_error(eight_film_corpus,
                                                       capsys):
    build(eight_film_corpus)
    cfg = ["--config", str(eight_film_corpus.config), "--n", "1"]
    capsys.readouterr()
    assert main(["summarize", *cfg, "m1"]) == 0
    expected = capsys.readouterr().out
    assert main(["summarize", *cfg, "m1", ""]) == 2
    captured = capsys.readouterr()
    assert captured.out == expected
    assert captured.err == (
        "error: : link map: unknown item id or entity iri: ''\n")


def test_summarize_without_targets_errors(eight_film_corpus, capsys):
    build(eight_film_corpus)
    assert main(["summarize", "--config", str(eight_film_corpus.config)]) == 1


@pytest.mark.parametrize("argv, message", [
    (["neighbors", "--config", "{config}", "--bogus", "m1"],
     "unrecognized arguments: --bogus"),
    (["neighbors", "--config", "{config}"],
     "the following arguments are required: target"),
    (["frob"], "invalid choice: 'frob'"),
    ([], "the following arguments are required: command"),
], ids=["unknown flag", "missing target", "unknown command", "no command"])
def test_usage_errors_are_input_errors(eight_film_corpus, capsys, argv,
                                       message):
    # argparse's own exit code, 2, is the code of a resolution error
    assert build(eight_film_corpus) == 0
    capsys.readouterr()
    assert main([a.format(config=eight_film_corpus.config)
                 for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1


def test_flags_override_config(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "--n", "1", "m1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # header + single feature row


def test_invalid_threshold_rejected(eight_film_corpus, capsys):
    assert build(eight_film_corpus, "--threshold", "1.5") == 1


@pytest.mark.parametrize("command, key, value", [
    ("build", "delimiter", ""),
    ("build", "delimiter", "\\x"),  # a malformed escape
    ("build", "user_col", "-1"),
    ("build", "item_col", "-1"),
    ("build", "item_col", "0"),  # the user column
    ("build", "rating_col", "-1"),
    ("build", "timestamp_col", "-1"),
    ("build", "knn_predicate", ""),
    ("summarize", "knn_predicate", ""),
    ("summarize", "type_filter", ""),
    # typed settings: a flag's text is converted as a config file's is
    ("neighbors", "k", "abc"),
    ("build", "threshold", "x"),
    ("build", "workers", "2.5"),
    ("summarize", "format", "xml"),
    ("summarize", "n", "ten"),
])
@pytest.mark.parametrize("via", ["flag", "config file"])
def test_invalid_config_value_rejected(eight_film_corpus, capsys, command,
                                       key, value, via):
    if command == "summarize":
        assert build(eight_film_corpus) == 0
    args = [command, "--config", str(eight_film_corpus.config)]
    if via == "flag":
        args += [f"--{key.replace('_', '-')}", value]
    else:
        with eight_film_corpus.config.open("a") as fh:
            fh.write(f"{key} = {value}\n")
    if command != "build":
        args.append("m1")
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_invalid_workers_rejected(eight_film_corpus, capsys, workers):
    assert build(eight_film_corpus, "--workers", workers) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workers" in err
    assert not eight_film_corpus.bundle.exists()


def test_threshold_build_identical_across_worker_counts(tmp_path, capsys):
    # 600 items span ten blocks of 64 rows, so two workers share the work
    rng = random.Random(17)
    lines = ["userID\tmovieID\trating"]
    lines += [f"u{rng.randrange(90):02d}\ti{rng.randrange(600):03d}\t4.0"
              for _ in range(6_000)]
    (tmp_path / "ratings.dat").write_text("\n".join(lines) + "\n")
    films = [f"i{i:03d}" for i in range(600)]
    (tmp_path / "graph.nt").write_text("".join(
        f"<{film_iri(f)}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> "
        f"<{FILM_TYPE}> .\n" for f in films))
    (tmp_path / "links.tsv").write_text(
        "".join(f"{f}\t{film_iri(f)}\n" for f in films))
    outputs = set()  # (bundle, snapshot) of two builds per worker count
    for run in ("a", "b"):
        for workers in ("1", "2"):
            bundle = tmp_path / f"bundle-{run}-w{workers}.json"
            assert main(["build", "--ratings", str(tmp_path / "ratings.dat"),
                         "--rating-col", "2",
                         "--triples", str(tmp_path / "graph.nt"),
                         "--links", str(tmp_path / "links.tsv"),
                         "--type-filter", FILM_TYPE, "--bundle", str(bundle),
                         "--threshold", "0.5", "--workers", workers]) == 0
            outputs.add((bundle.read_bytes(),
                         Path(f"{bundle}.graph").read_bytes()))
    capsys.readouterr()
    assert len(outputs) == 1
    [(bundle, _snapshot)] = outputs
    assert sum(map(len, json.loads(bundle)["neighbors"].values())) > 0


def test_threshold_mode_build_and_summarize(eight_film_corpus, capsys):
    assert build(eight_film_corpus, "--threshold", "0.5") == 0
    capsys.readouterr()
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "--threshold", "0.5", "m1"]) == 0
    out = capsys.readouterr().out
    assert "mode=threshold(0.5)" in out
    assert "2.08" in out


def test_out_flag_writes_file(eight_film_corpus, tmp_path, capsys):
    build(eight_film_corpus)
    target = eight_film_corpus.root / "summary.tsv"
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "--out", str(target), "m1"]) == 0
    assert target.read_text().startswith("# <")


@pytest.mark.parametrize("command", [["neighbors", "m1"], ["summarize", "m1"]])
def test_unwritable_output_is_refused(eight_film_corpus, capsys, command):
    build(eight_film_corpus)
    capsys.readouterr()
    target = eight_film_corpus.root / "no-such-dir" / "out.txt"
    assert main([command[0], "--config", str(eight_film_corpus.config),
                 "--out", str(target), *command[1:]]) == 1
    assert capsys.readouterr().err == (
        f"error: cannot write output {str(target)!r}: [Errno 2] No such file "
        f"or directory: {str(target)!r}\n")


@pytest.mark.parametrize("command, target", [
    ("neighbors", "m1"), ("neighbors", "bogus"), ("summarize", "m1"),
    ("summarize", "bogus")])
def test_failed_command_keeps_previous_output(eight_film_corpus, capsys,
                                              command, target):
    build(eight_film_corpus)
    target_out = eight_film_corpus.root / "out.txt"
    target_out.write_text("previous output\n")
    if target == "m1":  # fails on its input: the bundle is cut short
        text = eight_film_corpus.bundle.read_bytes()
        eight_film_corpus.bundle.write_bytes(text[:len(text) // 2])
    capsys.readouterr()
    code = main([command, "--config", str(eight_film_corpus.config),
                 "--out", str(target_out), target])
    assert code == (1 if target == "m1" else 2)
    assert target_out.read_text() == "previous output\n"


def test_summarize_of_an_empty_universe_empties_output(eight_film_corpus,
                                                       capsys):
    nothing = ["--type-filter", "http://example.org/Nothing"]
    build(eight_film_corpus, *nothing)  # summarize checks the type filter
    target_out = eight_film_corpus.root / "out.txt"
    target_out.write_text("previous output\n")
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 *nothing, "--all", "--out", str(target_out)]) == 0
    assert target_out.read_text() == ""


@pytest.mark.parametrize("key, value", [
    ("k", "abc"), ("n", "2.5"), ("workers", ""), ("user_col", "one"),
    ("threshold", "high"), ("delimiter", "\\x"), ("header", "nope"),
    ("two_hop", "ture")])
def test_bad_config_value_names_file_line_and_key(eight_film_corpus, capsys,
                                                  key, value):
    config = eight_film_corpus.config
    line_no = len(config.read_text().splitlines()) + 1
    with config.open("a") as fh:
        fh.write(f"{key} = {value}\n")
    assert build(eight_film_corpus) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {config}:{line_no}: {key}: ")
    assert err.count("\n") == 1


def test_non_utf8_config_file_is_refused(eight_film_corpus, capsys):
    config = eight_film_corpus.config
    line_no = len(config.read_bytes().splitlines()) + 1
    with config.open("ab") as fh:
        fh.write(b"k = 2\xff\n")
    assert build(eight_film_corpus) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {config}:{line_no}: not valid UTF-8\n"


def _child_env() -> dict[str, str]:
    """The environment for a knnsum child process that imports the same
    knnsum as this process, installed or not."""
    src = str(Path(knnsum.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}


@pytest.mark.parametrize("command", [["summarize", "--all", "--two-hop"],
                                     ["neighbors", "m1"], ["build"]])
def test_closed_stdout_pipe_exits_quietly(eight_film_corpus, capsys, command):
    build(eight_film_corpus)
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader goes away before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "knnsum", command[0],
             "--config", str(eight_film_corpus.config), *command[1:]],
            stdout=write_end, stderr=subprocess.PIPE, text=True,
            env=_child_env())
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""


def test_cli_output_equals_library_summarize(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    main(["summarize", "--config", str(eight_film_corpus.config),
          "--format", "structured", "m1"])
    out = capsys.readouterr().out

    with eight_film_corpus.ratings.open() as fh:
        matrix = ingest_ratings(fh, RatingsFormat(rating_col=2)).matrix
    with eight_film_corpus.triples.open() as fh:
        store, _ = load_ntriples(fh)
    links = read_links(eight_film_corpus.links)
    summary = summarize(store, all_pairs_knn(matrix, 20), links, "m1",
                        knn_predicate=iri(KNN_PRED),
                        type_filter=iri(FILM_TYPE))
    for wf in summary.features:
        assert f"weight={wf.weight:.6f}" in out
        assert f"neighbor_support={wf.neighbor_support}" in out


def test_module_entry_point_runs_end_to_end(eight_film_corpus):
    cmd = [sys.executable, "-m", "knnsum", "build",
           "--config", str(eight_film_corpus.config)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert "knn triples added: 24" in proc.stdout
    bundle = pinned_bundle_text(eight_film_corpus)
    assert hashlib.sha256(bundle.encode()).hexdigest() == (
        EIGHT_FILM_OUTPUTS["bundle.json"])


@pytest.mark.parametrize("argv, code", [
    (["summarize", "--out", "{out}", "m1", "m5"], 0),
    (["neighbors", "m1"], 0),
    (["summarize", "--k", "0", "m1"], 1),
    (["summarize", "--out", "{out}", "m1", "nope"], 2)],
    ids=["summarize --out", "neighbors", "input error", "resolution error"])
def test_module_entry_point_equals_main(eight_film_corpus, capsys, argv,
                                        code):
    # python -m knnsum freezes what main() left alive before it exits
    assert build(eight_film_corpus) == 0
    capsys.readouterr()
    runs = []
    for side in ("main", "module"):
        out = eight_film_corpus.root / f"{side}.txt"
        args = [argv[0], "--config", str(eight_film_corpus.config),
                *(a.format(out=out) for a in argv[1:])]
        if side == "main":
            result = (main(args), *capsys.readouterr())
        else:
            proc = subprocess.run([sys.executable, "-m", "knnsum", *args],
                                  capture_output=True, text=True,
                                  env=_child_env())
            result = (proc.returncode, proc.stdout, proc.stderr)
        runs.append((*result, out.read_bytes() if out.exists() else None))
    assert runs[0][0] == code
    assert runs[0] == runs[1]


def pinned_bundle_text(corpus) -> str:
    """The bundle's text, its snapshot sha256 read as SNAPSHOT_SHA256 once it
    matches the snapshot: the snapshot's header names the Python version."""
    text = corpus.bundle.read_text()
    digest = hashlib.sha256(snapshot_of(corpus).read_bytes()).hexdigest()
    assert json.loads(text)["snapshot"]["sha256"] == digest
    return text.replace(digest, "SNAPSHOT_SHA256")


# knnsum.cli.main(sys.argv[1:]) in a fresh interpreter, which then writes
# the numpy, scipy and concurrent.futures modules it loaded as the last
# line of stderr: only build computes with numpy and a thread pool, and no
# command loads scipy
_MAIN_THEN_HEAVY_MODULES = """
import sys
from knnsum.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --help
    code = exc.code
print(sorted({"numpy", "scipy", "concurrent.futures"} & set(sys.modules)),
      file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command", [
    ["neighbors", "m1"], ["neighbors", film_iri("m6")], ["summarize", "m1"],
    ["summarize", "--two-hop", "--format", "structured", "m1"],
    ["summarize", "--all"], ["--help"]])
def test_lookups_load_neither_numpy_nor_scipy(eight_film_corpus, capsys,
                                              monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")  # --help's layout, in both processes
    assert build(eight_film_corpus) == 0
    argv = (command if command == ["--help"] else
            [command[0], "--config", str(eight_film_corpus.config),
             *command[1:]])
    capsys.readouterr()
    try:
        assert main(argv) == 0
    except SystemExit as exc:
        assert exc.code == 0
    expected = capsys.readouterr().out
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_HEAVY_MODULES, *argv],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == expected
    assert proc.stderr.splitlines()[-1] == "[]"


def test_build_loads_numpy_and_no_scipy(eight_film_corpus):
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_HEAVY_MODULES, "build", "--config",
         str(eight_film_corpus.config)],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "['concurrent.futures', 'numpy']"


# knnsum.cli.main(sys.argv[1:]) in a fresh interpreter, which then writes
# OPENBLAS_NUM_THREADS as it was when numpy was first imported ("no numpy"
# if it never was) and as it is at the end, as the last line of stderr
_MAIN_THEN_BLAS_SETTING = """
import os, sys
from knnsum.cli import main
seen = ["no numpy"]

class AtNumpyImport:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and seen == ["no numpy"]:
            seen[0] = os.environ.get("OPENBLAS_NUM_THREADS")

sys.meta_path.insert(0, AtNumpyImport())
code = main(sys.argv[1:])
print([seen[0], os.environ.get("OPENBLAS_NUM_THREADS")], file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command, caller, seen", [
    # build starts no BLAS threads, unless the caller asked for some
    (["build"], None, ["1", "1"]), (["build"], "2", ["2", "2"]),
    # and the lookups, which load no numpy, leave the environment alone
    (["neighbors", "m1"], None, ["no numpy", None]),
    (["summarize", "--two-hop", "m1"], None, ["no numpy", None])])
def test_build_alone_sets_one_blas_thread(eight_film_corpus, command, caller,
                                          seen):
    assert build(eight_film_corpus) == 0
    env = _child_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_THEN_BLAS_SETTING, command[0],
         "--config", str(eight_film_corpus.config), *command[1:]],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == repr(seen)


# knnsum.cli.main(sys.argv[1:]) in a fresh interpreter with the cycle
# collector on, which then writes the number of collections started while
# the command ran (in cli._run) as the last line of stderr. Not counted:
# the collection that the collector, once restored, may start as main
# returns.
_MAIN_COUNTING_COLLECTIONS = """
import gc, sys
from knnsum import cli
started = []

def count(phase, info):
    frame = sys._getframe()
    while frame is not None and frame.f_code is not cli._run.__code__:
        frame = frame.f_back
    if phase == "start" and frame is not None:
        started.append(info)

gc.callbacks.append(count)
gc.enable()
code = cli.main(sys.argv[1:])
print(len(started), file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("command", [
    ["build"], ["neighbors", "m1"],
    ["summarize", "--two-hop", "--format", "structured", "m1"]])
def test_commands_run_without_cycle_collection(eight_film_corpus, capsys,
                                               command):
    assert build(eight_film_corpus) == 0
    capsys.readouterr()
    proc = subprocess.run(
        [sys.executable, "-c", _MAIN_COUNTING_COLLECTIONS, command[0],
         "--config", str(eight_film_corpus.config), *command[1:]],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0"


@pytest.mark.parametrize("collecting", [True, False],
                         ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("argv, code", [
    (["summarize", "m1"], 0),
    (["summarize", "--k", "0", "m1"], 1),
    (["neighbors", "nope"], 2),
    pytest.param(["summarize", "--out", "/dev/full", "m1"], 1,
                 marks=pytest.mark.skipif(not os.path.exists("/dev/full"),
                                          reason="no /dev/full"))],
    ids=["ok", "bad-config", "unknown-target", "failed-write"])
def test_main_restores_the_callers_collector(eight_film_corpus, capsys,
                                             collecting, argv, code):
    assert build(eight_film_corpus) == 0
    capsys.readouterr()
    frozen = gc.get_freeze_count()
    try:
        (gc.enable if collecting else gc.disable)()
        assert main([argv[0], "--config", str(eight_film_corpus.config),
                     *argv[1:]]) == code
        assert gc.isenabled() is collecting
        assert gc.get_freeze_count() == frozen  # only a process entry freezes
    finally:
        gc.enable()


@pytest.mark.parametrize("flag, value", [
    ("--knn-predicate", "urn:other:knn"), ("--type-filter", f"{EX}Other")])
def test_neighbors_reads_bundle_built_with_other_graph_settings(
        eight_film_corpus, capsys, flag, value):
    assert build(eight_film_corpus) == 0
    cfg = ["--config", str(eight_film_corpus.config)]
    capsys.readouterr()
    assert main(["neighbors", *cfg, "m1"]) == 0
    expected = capsys.readouterr().out
    assert main(["neighbors", *cfg, flag, value, "m1"]) == 0
    assert capsys.readouterr().out == expected


def test_readme_library_example_runs(eight_film_corpus):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    library = readme.read_text(encoding="utf-8").split("\n## Library\n")[1]
    example = library.split("```python\n")[1].split("```")[0]
    # the example's file names, in a fresh interpreter
    eight_film_corpus.triples.rename(eight_film_corpus.root / "films.nt")
    proc = subprocess.run([sys.executable, "-c", example],
                          cwd=eight_film_corpus.root, capture_output=True,
                          text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr

    with eight_film_corpus.ratings.open() as fh:
        matrix = ingest_ratings(fh).matrix
    summary = summarize(knnsum.TripleStore(eight_film_triples()),
                        all_pairs_knn(matrix, 20),
                        read_links(eight_film_corpus.links), "m1",
                        knn_predicate=iri(KNN_PRED),
                        type_filter=iri(FILM_TYPE))
    assert summary.features
    assert proc.stdout == "".join(f"{wf.weight} {wf.feature}\n"
                                  for wf in summary.features)


def test_readme_snapshot_reader_runs(eight_film_corpus, capsys):
    # the README reads a snapshot with marshal and array alone
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split(
        "\n### Bundle v3\n")[1].split("\n## ")[0]
    reader = section.split("```python\n")[1].split("```")[0]
    (eight_film_corpus.root / "out").mkdir()
    assert build(eight_film_corpus, "--bundle",
                 str(eight_film_corpus.root / "out" / "bundle.json")) == 0
    proc = subprocess.run([sys.executable, "-c", reader],
                          cwd=eight_film_corpus.root, capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    store, _ = load_ntriples(eight_film_corpus.triples.read_text()
                             .splitlines())
    assert sorted(proc.stdout.splitlines()) == sorted(
        " ".join(repr(tuple(term)) for term in t) for t in store)


def test_every_exported_name_is_bound():
    assert [name for name in knnsum.__all__ if not hasattr(knnsum, name)] == []


def test_summarize_reads_no_ratings_file(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "m1"]) == 0
    before = capsys.readouterr().out
    eight_film_corpus.ratings.unlink()
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "m1"]) == 0
    assert capsys.readouterr().out == before


@pytest.mark.parametrize("command, built, asked, field", [
    # summarize's cases keep the ids they had before neighbors was checked
    pytest.param(command, built, asked, field,
                 id=f"{prefix}built{i}-asked{i}-{field}")
    for command, prefix in (("summarize", ""), ("neighbors", "neighbors-"))
    for i, (built, asked, field) in enumerate([
        ((), ("--k", "5"), "k"),
        ((), ("--threshold", "0.5"), "mode"),
        (("--threshold", "0.5"), (), "mode"),
        (("--threshold", "0.5"), ("--threshold", "0.7"), "threshold"),
    ])] + [
    # summarize only: a neighbor list depends on neither setting
    pytest.param("summarize", built, asked, field,
                 id=f"built{i}-asked{i}-{field}")
    for i, (built, asked, field) in enumerate([
        ((), ("--knn-predicate", "urn:other:knn"), "knn_predicate"),
        (("--type-filter", f"{EX}Other"), (), "type_filter"),
    ], start=4)])
def test_summarize_refuses_bundle_built_with_other_parameters(
        eight_film_corpus, capsys, command, built, asked, field):
    assert build(eight_film_corpus, *built) == 0
    capsys.readouterr()
    assert main([command, "--config", str(eight_film_corpus.config),
                 *asked, "m1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert f"built with {field} = " in captured.err


@pytest.mark.parametrize("command", ["neighbors", "summarize"])
@pytest.mark.parametrize("damage", ["truncated", "not json", "not utf-8",
                                    "no neighbors", "not an object",
                                    "nested arrays", "nested objects"])
def test_damaged_bundle_is_refused(eight_film_corpus, capsys, command, damage):
    build(eight_film_corpus)
    bundle = eight_film_corpus.bundle
    text = bundle.read_bytes()
    data, reason = {
        "truncated": (text[:len(text) // 2], "is not valid JSON"),
        "not json": (b"neighbors: m1 m2\n", "is not valid JSON"),
        "not utf-8": (b'{"neighbors": {"\xff": []}}', "is not valid JSON"),
        "no neighbors": (json.dumps({"k": 20, "mode": "fixed-k"}).encode(),
                         "has no neighbor lists"),
        "not an object": (b"[1, 2]", "has no neighbor lists"),
        # past any recursion limit, whole or under "neighbors"
        "nested arrays": (b"[" * 200_000, "is not valid JSON"),
        "nested objects": (b'{"neighbors": ' + b'{"a": ' * 200_000,
                           "is not valid JSON"),
    }[damage]
    bundle.write_bytes(data)
    capsys.readouterr()
    assert main([command, "--config", str(eight_film_corpus.config),
                 "m1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: bundle {str(bundle)!r} {reason}")
    assert captured.err.count("\n") == 1


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("command, stdout", [
    (["summarize", "--out", "/dev/full", "m1"], os.devnull),
    (["neighbors", "--out", "/dev/full", "m1"], os.devnull),
    (["summarize", "--all"], "/dev/full")],
    ids=["summarize --out", "neighbors --out", "summarize stdout"])
def test_failed_output_write_is_one_error_line(eight_film_corpus, capsys,
                                               command, stdout):
    build(eight_film_corpus)
    with open(stdout, "w") as out:
        proc = subprocess.run(
            [sys.executable, "-m", "knnsum", command[0],
             "--config", str(eight_film_corpus.config), *command[1:]],
            stdout=out, stderr=subprocess.PIPE, text=True, env=_child_env())
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot write output ")
    assert proc.stderr.count("\n") == 1  # no traceback, no "Exception ignored"


def test_two_hop_never_follows_knn_edges(eight_film_corpus, capsys):
    # film -> film edges: a summary that materialized knn edges would see
    # (sequel, knn, film) paths through the sequel's own neighbors
    sequel = "http://example.org/p/sequel"
    with eight_film_corpus.triples.open("a") as fh:
        for a, b in (("m1", "m2"), ("m3", "m4"), ("m5", "m6")):
            fh.write(f"<{film_iri(a)}> <{sequel}> <{film_iri(b)}> .\n")
    build(eight_film_corpus)
    capsys.readouterr()
    targets = ["m1", "m3", "m5"]
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "--two-hop", "--format", "structured", *targets]) == 0
    out = capsys.readouterr().out

    with eight_film_corpus.ratings.open() as fh:
        matrix = ingest_ratings(fh, RatingsFormat(rating_col=2)).matrix
    with eight_film_corpus.triples.open() as fh:
        store, _ = load_ntriples(fh)
    links = read_links(eight_film_corpus.links)
    lists = all_pairs_knn(matrix, 20)
    store.materialize_knn(lists, links, iri(KNN_PRED))
    summaries = [summarize(store, lists, links, t, two_hop=True,
                           knn_predicate=iri(KNN_PRED),
                           type_filter=iri(FILM_TYPE)) for t in targets]
    assert out == "\n".join(map(render_summary_structured, summaries))
    assert f"<{sequel}> <http://example.org/p/genre>" in out
    assert KNN_PRED not in out


def test_traced_patch_points_are_still_bound(monkeypatch):
    # the benchmark's traced run wraps these attributes by name
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    # knnsum re-exports the function summarize under its module's name
    points = spans._patch_points(importlib.import_module("knnsum.cli"),
                                 importlib.import_module("knnsum.summarize"),
                                 knnsum.TripleStore)
    for owner, attr, _name in points:
        assert attr in vars(owner), (owner, attr)


def test_bundle_records_each_input_file_fingerprint(eight_film_corpus,
                                                    capsys):
    assert build(eight_film_corpus) == 0
    bundle = json.loads(eight_film_corpus.bundle.read_text())
    for field, path in (("ratings", eight_film_corpus.ratings),
                        ("graph", eight_film_corpus.triples),
                        ("links", eight_film_corpus.links)):
        data = path.read_bytes()
        assert bundle[field] == {"sha256": hashlib.sha256(data).hexdigest(),
                                 "size": len(data)}
    assert "matrix_digest" not in bundle


# sha256 of each output on the 8-film fixture; build's last line, which
# names the bundle path, reads "bundle: BUNDLE", and the bundle is read as
# pinned_bundle_text gives it
EIGHT_FILM_OUTPUTS = {
    "build": (
        "f47a0f50bae51c746d727acfc3a9c329986da72670045913053d6336590f4188"),
    "bundle.json": (
        "7875e8f77c7b1ab58b7dbc6537c2e76a3ef5a08d60545e5ea6b973621db60366"),
    "summarize --all": (
        "8b8975aef752599654ffbafb49d7f2f4c6b9a1a1408b7ef448609d1b7255856c"),
    "summarize --all --two-hop --format structured": (
        "a1f3d273e6c9c56efdcffafc4d91729f694ddac8fdf59a40ef4c3211565ce82b"),
    "neighbors m1": (
        "a92c7f9086d687f604f9b3381c176431895adc4212b406695171079085c4365f"),
    "neighbors <m6 iri>": (
        "7a9d621f41070c3ac938e5e2d661ea576ea696e6f15c7498ef3382ddb3b6af00"),
}


# the 8-film graph snapshot's size, which the bundle records
EIGHT_FILM_SNAPSHOT_BYTES = 1452


def test_eight_film_outputs_are_pinned(eight_film_corpus, capsys):
    cfg = ["--config", str(eight_film_corpus.config)]

    def run(*argv):
        assert main([argv[0], *cfg, *argv[1:]]) == 0
        return capsys.readouterr().out

    outputs = {"build": run("build").replace(str(eight_film_corpus.bundle),
                                             "BUNDLE"),
               "bundle.json": pinned_bundle_text(eight_film_corpus)}
    outputs["summarize --all"] = run("summarize", "--all")
    outputs["summarize --all --two-hop --format structured"] = run(
        "summarize", "--all", "--two-hop", "--format", "structured")
    outputs["neighbors m1"] = run("neighbors", "m1")
    outputs["neighbors <m6 iri>"] = run("neighbors", film_iri("m6"))
    digests = {name: hashlib.sha256(text.encode()).hexdigest()
               for name, text in outputs.items()}
    assert digests == EIGHT_FILM_OUTPUTS


# sha256 of `knnsum [COMMAND] --help` at 80 columns, as Python 3.11's
# argparse lays it out
HELP_OUTPUTS = {
    "": "d6627d5e049c20d107040dc883e896136103b7dfc6918c3f31763e49a2904b42",
    "build": (
        "88357725d1eb7f9e2b9422d42627b9d43900426c015b7fa1c9ec24117ebe05b0"),
    "neighbors": (
        "2be0225078d3dc8e57354e60c6bf465570ccd8080f58c36c3033edb0300c4c38"),
    "summarize": (
        "f6532a64adac9075f860806caf19e77e1b8f7a943857df5e05994de4e0e05727"),
}


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse's help layout differs across versions")
def test_help_outputs_are_pinned(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    digests = {}
    for command in HELP_OUTPUTS:
        with pytest.raises(SystemExit) as exit_info:
            main([command, "--help"] if command else ["--help"])
        assert exit_info.value.code == 0
        digests[command] = hashlib.sha256(
            capsys.readouterr().out.encode()).hexdigest()
    assert digests == HELP_OUTPUTS


@pytest.mark.parametrize("spelled, delimiter", [
    ("\\t", "\t"), ("\u00a6", "\u00a6"), ("\u2192", "\u2192")])
@pytest.mark.parametrize("via", ["flag", "config file"])
def test_config_delimiter_is_read_as_written(eight_film_corpus, capsys,
                                             spelled, delimiter, via):
    # a backslash escape is decoded; any other character is taken as is,
    # by the flag as by the config file
    assert build(eight_film_corpus) == 0
    tab_separated = json.loads(eight_film_corpus.bundle.read_text())
    ratings = eight_film_corpus.ratings
    ratings.write_text(ratings.read_text(encoding="utf-8").replace(
        "\t", delimiter), encoding="utf-8")
    if via == "flag":
        assert build(eight_film_corpus, "--delimiter", spelled) == 0
    else:
        with eight_film_corpus.config.open("a", encoding="utf-8") as fh:
            fh.write(f"delimiter = {spelled}\n")
        assert build(eight_film_corpus) == 0
    assert "rejected ratings lines: 0\n" in capsys.readouterr().out
    bundle = json.loads(eight_film_corpus.bundle.read_text())
    for field in ("users", "items", "neighbors"):  # the same usage matrix
        assert bundle[field] == tab_separated[field]


@pytest.mark.parametrize("command", [
    ["build"], ["summarize", "m1"], ["neighbors", film_iri("m1")]])
def test_malformed_link_line_is_refused(eight_film_corpus, capsys, command):
    assert build(eight_film_corpus) == 0
    with eight_film_corpus.links.open("a") as fh:
        fh.write("badline\n")
    capsys.readouterr()
    assert main([command[0], "--config", str(eight_film_corpus.config),
                 *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {eight_film_corpus.links}:9: "
                            "expected item_id<TAB>iri\n")


@pytest.mark.parametrize("command", ["neighbors", "summarize"])
@pytest.mark.parametrize("entry", [
    5, "", {}, [["m2"]], [["m2", 0.5, 0.5]], [[7, 0.5]], [["m2", "high"]],
    [["m2", True]], [["m2", 1e400]], [["m2", -0.5]], ["m2"], ["ab"],
    [{"m2": 0.5, "x": 1}], [["\ud800", 0.5]]])
def test_malformed_neighbor_entry_is_refused(eight_film_corpus, capsys,
                                             command, entry):
    assert build(eight_film_corpus) == 0
    bundle = eight_film_corpus.bundle
    payload = json.loads(bundle.read_text())
    payload["neighbors"]["m1"] = entry
    # 1e400 is written as Infinity; a lone surrogate as an escape
    bundle.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, "--config", str(eight_film_corpus.config),
                 "m1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: bundle {str(bundle)!r} has a malformed neighbor list for "
        "'m1'")


@pytest.mark.parametrize("command", ["neighbors", "summarize"])
@pytest.mark.parametrize("entry", [[["m2", -0.5]], [["\ud800", 0.5]], 5])
def test_malformed_list_of_another_item_is_refused(eight_film_corpus, capsys,
                                                   command, entry):
    # every list of the bundle is checked, not only the target's
    assert build(eight_film_corpus) == 0
    bundle = eight_film_corpus.bundle
    payload = json.loads(bundle.read_text())
    payload["neighbors"]["m3"] = entry
    bundle.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([command, "--config", str(eight_film_corpus.config),
                 "m1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        f"error: bundle {str(bundle)!r} has a malformed neighbor list for "
        "'m3'")


# strings with lone surrogates, which a bundle's JSON escapes can hold
_bundle_texts = st.lists(st.one_of(
    st.characters(), st.sampled_from(["\ud800", "\ud83d", "\ude00",
                                      "\udfff"])), max_size=3).map("".join)
_scores = st.one_of(st.floats(), st.floats(0, 1), st.integers(-1, 2),
                    st.booleans())
_json_values = st.recursive(
    st.none() | _scores | _bundle_texts,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_bundle_texts, inner, max_size=2), max_leaves=6)
# [item, score] pairs, so that many lists fail one check or none
_pairs = st.tuples(_bundle_texts, _scores).map(list)
_lists = st.one_of(st.lists(_pairs, max_size=4),
                   st.lists(_pairs | _json_values, max_size=4), _json_values)


@given(_bundle_texts, _lists)
@settings(max_examples=300)
def test_neighbor_list_check_refuses_what_the_copying_check_did(center,
                                                                pairs):
    got = knnsum_cli._neighbor_list(center, pairs)
    want = reference_neighbor_list(center, pairs)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.neighbors is pairs  # checked in place, not copied
        assert got.center == want.center
        assert [tuple(pair) for pair in got.neighbors] == want.neighbors


def test_non_utf8_ratings_and_graph_lines_are_diagnostics(
        eight_film_corpus, capsys):
    ratings_line = len(eight_film_corpus.ratings.read_bytes().splitlines()) + 1
    triple_line = len(eight_film_corpus.triples.read_bytes().splitlines()) + 1
    with eight_film_corpus.ratings.open("ab") as fh:
        fh.write(b"u9\tm\xff1\t4.0\n")
    with eight_film_corpus.triples.open("ab") as fh:
        fh.write(b"<http://example.org/film/M\xe9> <http://example.org/p/x> "
                 b"<http://example.org/v> .\n")
    assert build(eight_film_corpus) == 0
    out = capsys.readouterr().out
    assert "rejected ratings lines: 1\n" in out
    assert "malformed triple lines: 1\n" in out
    assert "users: 8\n" in out
    diagnostics = json.loads(eight_film_corpus.bundle.read_text())[
        "diagnostics"]
    assert diagnostics["rejected_ratings_lines"] == [
        [ratings_line, "not valid UTF-8"]]
    assert diagnostics["malformed_triple_lines"] == [
        [triple_line, "not valid UTF-8"]]


@pytest.mark.parametrize("name", ["links", "config", "triples", "ratings"])
def test_leading_byte_order_mark_is_skipped(eight_film_corpus, capsys, name):
    corpus = eight_film_corpus
    # ratings without their header line, so that a mark would start a user id
    lines = corpus.ratings.read_text().splitlines(keepends=True)
    corpus.ratings.write_text("".join(lines[1:]))

    def outputs():
        assert build(corpus, "--no-header") == 0
        assert main(["summarize", "--config", str(corpus.config), "--all",
                     "--two-hop"]) == 0
        return capsys.readouterr().out

    want = outputs()
    assert "linked items: 8/8\n" in want
    path = getattr(corpus, name)
    path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
    assert outputs() == want


@pytest.mark.parametrize("command", [["build"], ["summarize", "m1"]])
def test_non_utf8_link_map_is_refused(eight_film_corpus, capsys, command):
    assert build(eight_film_corpus) == 0
    with eight_film_corpus.links.open("ab") as fh:
        fh.write(b"m\xff9\thttp://example.org/film/M9\n")
    capsys.readouterr()
    assert main([command[0], "--config", str(eight_film_corpus.config),
                 *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {eight_film_corpus.links}:9: "
                            "not valid UTF-8\n")


def _failed_write_keeps_previous_pair(corpus, capsys, what: str,
                                      target: Path) -> None:
    """A build whose write of what fails exits 1 with one line naming
    target, and leaves the previous bundle and snapshot and no other file."""
    before = {path: path.read_bytes() for path in (corpus.bundle,
                                                   snapshot_of(corpus))}
    files = sorted(os.listdir(corpus.root))
    capsys.readouterr()
    assert build(corpus, "--k", "2") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot write {what} {str(target)!r}: "
                            f"[Errno {errno.ENOSPC}] No space left on "
                            f"device\n")
    assert {path: path.read_bytes() for path in before} == before
    assert sorted(os.listdir(corpus.root)) == files  # no temporary file left


def test_failed_bundle_write_keeps_previous_bundle(eight_film_corpus, capsys,
                                                   monkeypatch):
    assert build(eight_film_corpus) == 0
    with eight_film_corpus.triples.open("a") as fh:  # another snapshot
        fh.write(EXTRA_TRIPLE)

    synced = []
    fsync = os.fsync

    def fail_second(fd):  # the bundle is synced after the snapshot
        synced.append(fd)
        if len(synced) == 2:
            raise OSError(errno.ENOSPC, "No space left on device")
        fsync(fd)

    monkeypatch.setattr(os, "fsync", fail_second)
    _failed_write_keeps_previous_pair(eight_film_corpus, capsys, "bundle",
                                      eight_film_corpus.bundle)


@pytest.mark.parametrize("directory, previous", [
    ("bundle", None), ("bundle", b"previous snapshot"), ("snapshot", None)])
def test_bundle_or_snapshot_path_that_is_a_directory_is_refused(
        eight_film_corpus, capsys, directory, previous):
    outdir = eight_film_corpus.root / "outdir"
    snapshot = eight_film_corpus.root / "outdir.graph"
    (outdir if directory == "bundle" else snapshot).mkdir()
    if previous is not None:
        snapshot.write_bytes(previous)
    files = sorted(os.listdir(eight_film_corpus.root))
    capsys.readouterr()
    assert build(eight_film_corpus, "--bundle", str(outdir)) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    what, target = (("bundle", outdir) if directory == "bundle"
                    else ("graph snapshot", snapshot))
    assert captured.err == (f"error: cannot write {what} {str(target)!r}: "
                            f"[Errno {errno.EISDIR}] Is a directory\n")
    # nothing written: no snapshot or bundle, no temporary file
    assert sorted(os.listdir(eight_film_corpus.root)) == files
    if previous is not None:
        assert snapshot.read_bytes() == previous


def test_bundle_bytes_equal_the_streamed_json_encoding(tmp_path):
    # json.dump, which streams through the pure-Python encoder, is the
    # oracle for the bytes of the one-shot encoding write_bundle makes
    items = ["caf\u00e9", "\u65e5\u672c", "\U0001f3ac", "plain"]
    matrix = UsageMatrix([(f"u{u}", item) for u in range(3) for item in items])
    lists = {
        "caf\u00e9": NeighborList("caf\u00e9", [
            ("\u65e5\u672c", 1.0), ("\U0001f3ac", 0.1 + 0.2),
            ("plain", 5e-324)]),
        "\u65e5\u672c": NeighborList("\u65e5\u672c", [("caf\u00e9", 0.0)]),
        "\U0001f3ac": NeighborList("\U0001f3ac", []),
        "plain": NeighborList("plain", [("caf\u00e9", 0.5)]),
    }
    cfg = PipelineConfig()
    assert cfg.threshold is None
    bundle = tmp_path / "bundle.json"
    write_bundle(str(bundle), matrix, lists, cfg, 4,
                 {"unmatched_items": ["\U0001f3ac"]},
                 knnsum.TripleStore(eight_film_triples()),
                 {name: {"sha256": str(i) * 64, "size": i} for i, name in
                  enumerate(("ratings", "graph", "links"))})
    written = bundle.read_bytes()
    payload = json.loads(written)
    assert payload["threshold"] is None
    assert payload["neighbors"] == {
        center: [[item, score] for item, score in nl.neighbors]
        for center, nl in lists.items()}
    streamed = io.StringIO()
    json.dump(payload, streamed, sort_keys=True, separators=(",", ":"))
    streamed.write("\n")
    assert written == streamed.getvalue().encode("ascii")


def test_failed_snapshot_write_keeps_previous_bundle(eight_film_corpus,
                                                     capsys, monkeypatch):
    assert build(eight_film_corpus) == 0
    with eight_film_corpus.triples.open("a") as fh:  # another snapshot
        fh.write(EXTRA_TRIPLE)

    def fail(fd):  # the snapshot, written first, is the first file synced
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(os, "fsync", fail)
    _failed_write_keeps_previous_pair(eight_film_corpus, capsys,
                                      "graph snapshot",
                                      snapshot_of(eight_film_corpus))


# -- bundle v2: the graph's and the snapshot's fingerprints -------------------

def _edit(path: Path, edit) -> None:
    path.write_bytes(edit(path.read_bytes()))


def _record_snapshot(corpus, data: bytes) -> None:
    """Write data as the snapshot, with its fingerprint in the bundle, as
    build would: only what data holds can then be refused."""
    snapshot_of(corpus).write_bytes(data)
    payload = json.loads(corpus.bundle.read_text())
    payload["snapshot"] = {"sha256": hashlib.sha256(data).hexdigest(),
                           "size": len(data)}
    corpus.bundle.write_text(json.dumps(payload))


def _other_header(corpus, field: str, value) -> None:
    header, *body = marshal.loads(snapshot_of(corpus).read_bytes())
    header = tuple((name, value if name == field else old)
                   for name, old in header)
    _record_snapshot(corpus, marshal.dumps((header, *body), 2))


def _snapshot_of_another_build(corpus) -> None:
    other = corpus.root / "other"
    other.mkdir()
    (other / "graph.nt").write_text(corpus.triples.read_text() + EXTRA_TRIPLE)
    assert build(corpus, "--triples", str(other / "graph.nt"),
                 "--bundle", str(other / "bundle.json")) == 0
    shutil.copy(other / "bundle.json.graph", snapshot_of(corpus))


def _as_nested_layout(corpus) -> None:
    """The snapshot as the nested-dict layout wrote it, before its header
    named an index_layout: the terms, the subject and predicate-object
    indexes as dicts of sets, and the size."""
    data = snapshot_of(corpus).read_bytes()
    header, terms, *_arrays = marshal.loads(data)
    store = TripleStore.from_snapshot(data)
    spo, pos = {}, {}
    for t in store:
        s, p, o = (store._ids[term] for term in t)
        spo.setdefault(s, {}).setdefault(p, set()).add(o)
        pos.setdefault((p, o), set()).add(s)
    header = tuple(field for field in header if field[0] != "index_layout")
    _record_snapshot(corpus, marshal.dumps(
        (header, terms, spo, pos, len(store)), 2))


def _as_version_1(corpus) -> None:
    payload = json.loads(corpus.bundle.read_text())
    for name in ("format_version", "graph", "links", "ratings", "snapshot"):
        del payload[name]
    corpus.bundle.write_text(json.dumps(payload, sort_keys=True, indent=1))


# damage done to a built 8-film corpus -> a part of the line that refuses it
BUNDLE_PAIR_DAMAGE = {
    "graph edited": (lambda c: _edit(c.triples, lambda b: b + EXTRA_TRIPLE
                                     .encode()), "records graph.size = "),
    "graph byte changed": (
        lambda c: _edit(c.triples, lambda b: b.replace(b"v/c1", b"v/c2", 1)),
        "records graph.sha256 = "),
    "snapshot missing": (lambda c: snapshot_of(c).unlink(),
                         "cannot read graph snapshot "),
    "snapshot truncated": (
        lambda c: _edit(snapshot_of(c), lambda b: b[:len(b) // 2]),
        "records snapshot.size = "),
    "snapshot byte flipped": (
        lambda c: _edit(snapshot_of(c),
                        lambda b: b[:99] + bytes([b[99] ^ 1]) + b[100:]),
        "records snapshot.sha256 = "),
    "snapshot of another build": (_snapshot_of_another_build,
                                  "records snapshot."),
    "other marshal version": (
        lambda c: _other_header(c, "marshal_version", 1),
        "was written with marshal_version = 1, but this process has "
        f"marshal_version = {marshal.version}; "),
    "other python version": (
        lambda c: _other_header(c, "python_version", "2.7"),
        "was written with python_version = '2.7', but this process has "
        f"python_version = '{sys.version_info[0]}.{sys.version_info[1]}'; "),
    "version 1 bundle": (
        _as_version_1, "has format_version = None, but this knnsum reads "
                       "format_version = 3; "),
    "nested-dict snapshot": (
        _as_nested_layout,
        "was written with index_layout = None, but this process has "
        f"index_layout = {dict(SNAPSHOT_HEADER)['index_layout']!r}; "),
}


@pytest.mark.parametrize("command, damage", [
    *(("summarize", damage) for damage in BUNDLE_PAIR_DAMAGE),
    ("neighbors", "version 1 bundle")])
def test_stale_or_damaged_bundle_pair_is_refused(eight_film_corpus, capsys,
                                                 command, damage):
    assert build(eight_film_corpus) == 0
    apply, part = BUNDLE_PAIR_DAMAGE[damage]
    apply(eight_film_corpus)
    capsys.readouterr()
    assert main([command, "--config", str(eight_film_corpus.config),
                 "m1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and part in captured.err
    assert captured.err.count("\n") == 1
    if damage != "snapshot missing":  # a file that cannot be read
        assert captured.err.endswith("; rebuild the bundle\n")


def test_link_map_edited_after_build_is_refused(eight_film_corpus, capsys):
    c = eight_film_corpus
    cfg = ["--config", str(c.config)]
    assert build(c) == 0
    capsys.readouterr()
    assert main(["neighbors", *cfg, "m1"]) == 0
    by_item_id = capsys.readouterr()
    built = hashlib.sha256(c.links.read_bytes()).hexdigest()
    # m1 now names M5: the same size, another entity
    _edit(c.links, lambda b: b.replace(b"/M1\n", b"/M5\n"))
    edited = hashlib.sha256(c.links.read_bytes()).hexdigest()
    refusal = (
        f"error: bundle {str(c.bundle)!r} records links.sha256 = {built!r}, "
        f"but {str(c.links)!r} has sha256 = {edited!r}; rebuild the bundle\n")
    for command, target in (("summarize", "m1"),
                            ("neighbors", film_iri("m5"))):
        assert main([command, *cfg, target]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", refusal)
    # neighbors by item id reads no link map
    assert main(["neighbors", *cfg, "m1"]) == 0
    assert capsys.readouterr() == by_item_id


def test_summarize_all_skips_typed_blank_nodes(eight_film_corpus, capsys):
    # no link map entry can name a blank node, so no target can
    with eight_film_corpus.triples.open("a") as fh:
        fh.write(f"_:b1 <{RDF_TYPE.lexical}> <{FILM_TYPE}> .\n")
    assert build(eight_film_corpus) == 0
    capsys.readouterr()
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "--all"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert [line.split("\t")[0] for line in captured.out.splitlines()
            if line.startswith("#")] == [f"# <{film_iri(m)}>"
                                         for m in sorted(FILMS)]


def test_snapshot_bytes_repeat_across_builds_and_hash_seeds(
        eight_film_corpus, capsys):
    # the snapshot holds sorted id arrays and terms in the graph's order, so
    # neither a second build nor another string hash seed changes a byte
    snapshots = []
    for _ in range(2):
        assert build(eight_film_corpus) == 0
        snapshots.append(snapshot_of(eight_film_corpus).read_bytes())
    for seed in ("0", "1"):
        bundle = eight_film_corpus.root / f"seed{seed}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "knnsum", "build", "--config",
             str(eight_film_corpus.config), "--bundle", str(bundle)],
            capture_output=True, text=True,
            env={**_child_env(), "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        snapshots.append(Path(f"{bundle}.graph").read_bytes())
    assert len(set(snapshots)) == 1


def test_eight_film_snapshot_size_is_pinned(eight_film_corpus, capsys):
    # the same on every Python that CI runs: the header's python_version
    # is always "3.N" with a two-digit N
    assert build(eight_film_corpus) == 0
    assert (snapshot_of(eight_film_corpus).stat().st_size
            == EIGHT_FILM_SNAPSHOT_BYTES)


def test_neighbors_reads_neither_graph_nor_snapshot(eight_film_corpus,
                                                    capsys):
    assert build(eight_film_corpus) == 0
    cfg = ["--config", str(eight_film_corpus.config)]
    capsys.readouterr()
    lookups = [["m1"], [film_iri("m6")]]
    expected = [(main(["neighbors", *cfg, *target]), capsys.readouterr())
                for target in lookups]
    eight_film_corpus.triples.unlink()
    snapshot_of(eight_film_corpus).unlink()
    assert [(main(["neighbors", *cfg, *target]), capsys.readouterr())
            for target in lookups] == expected
    assert [code for code, _ in expected] == [0, 0]


@pytest.mark.parametrize("command, target", [
    ("summarize", "m1"), ("neighbors", film_iri("m5"))])
def test_link_map_swapped_while_it_is_read_is_refused(
        eight_film_corpus, capsys, monkeypatch, command, target):
    # the map is parsed with m1 naming M5, then put back as build read it:
    # the map that was parsed is the one the fingerprint must vouch for
    c = eight_film_corpus
    assert build(c) == 0
    built = c.links.read_bytes()
    swapped = built.replace(b"/M1\n", b"/M5\n")
    c.links.write_bytes(swapped)
    parse = knnsum_cli.load_links

    def parse_then_put_back(*args, **kwargs):
        links = parse(*args, **kwargs)
        c.links.write_bytes(built)
        return links

    monkeypatch.setattr(knnsum_cli, "load_links", parse_then_put_back)
    capsys.readouterr()
    assert main([command, "--config", str(c.config), target]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: bundle {str(c.bundle)!r} records links.sha256 = "
        f"{hashlib.sha256(built).hexdigest()!r}, but {str(c.links)!r} has "
        f"sha256 = {hashlib.sha256(swapped).hexdigest()!r}; rebuild the "
        f"bundle\n")


@pytest.mark.parametrize("command, opened", [
    (["build"], {"ratings": 1, "triples": 1, "links": 1}),
    (["summarize", "m1"], {"ratings": 0, "triples": 1, "links": 1}),
    (["neighbors", film_iri("m1")], {"ratings": 0, "triples": 0,
                                     "links": 1})])
def test_each_input_file_is_opened_once(eight_film_corpus, capsys,
                                        monkeypatch, command, opened):
    c = eight_film_corpus
    assert build(c) == 0
    capsys.readouterr()
    counts = {str(getattr(c, name)): 0 for name in opened}
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file) in counts:
            counts[str(file)] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    assert main([command[0], "--config", str(c.config), *command[1:]]) == 0
    assert counts == {str(getattr(c, name)): n for name, n in opened.items()}


def test_summarize_refuses_targets_with_all(eight_film_corpus, capsys):
    assert build(eight_film_corpus) == 0
    capsys.readouterr()
    # checked before any file is read: a missing config file is not named
    for config in (eight_film_corpus.config, eight_film_corpus.root / "no"):
        assert main(["summarize", "--config", str(config), "--all",
                     "no-such-item"]) == 1
        assert capsys.readouterr() == (
            "", "error: pass entity ids or --all, not both\n")


@pytest.mark.parametrize("command", [
    ["build"], ["summarize", "m1"], ["neighbors", film_iri("m1")]])
@pytest.mark.parametrize("line, fault", [
    (f"m9\t{film_iri('m9')}\tx\n", "expected item_id<TAB>iri"),
    (f"m1\t{film_iri('m5')}\n",
     f"item 'm1' is already linked to {film_iri('m1')!r}"),
    (f"m1 \t{film_iri('m5')}\n",
     f"item 'm1' is already linked to {film_iri('m1')!r}")])
def test_ambiguous_link_line_is_refused(eight_film_corpus, capsys, command,
                                        line, fault):
    assert build(eight_film_corpus) == 0
    with eight_film_corpus.links.open("a") as fh:
        # line 9 repeats line 1, which leaves m1's entity as it was
        fh.write(f"m1\t{film_iri('m1')}\n{line}")
    capsys.readouterr()
    assert main([command[0], "--config", str(eight_film_corpus.config),
                 *command[1:]]) == 1
    assert capsys.readouterr() == (
        "", f"error: {eight_film_corpus.links}:10: {fault}\n")


def test_link_map_fields_are_stripped_as_ratings_ids_are(eight_film_corpus,
                                                        capsys):
    c = eight_film_corpus
    summarize_m1_m2 = ["summarize", "--config", str(c.config), "m1", "m2"]
    assert build(c) == 0
    capsys.readouterr()
    assert main(summarize_m1_m2) == 0
    clean = capsys.readouterr().out
    lines = c.links.read_text().splitlines(keepends=True)
    assert lines[:2] == [f"m1\t{film_iri('m1')}\n", f"m2\t{film_iri('m2')}\n"]
    c.links.write_text(f"m1 \t{film_iri('m1')}\n"
                       f"m2\t {film_iri('m2')} \n" + "".join(lines[2:]))
    assert build(c) == 0
    assert "linked items: 8/8\n" in capsys.readouterr().out
    assert main(summarize_m1_m2) == 0
    assert capsys.readouterr().out == clean
