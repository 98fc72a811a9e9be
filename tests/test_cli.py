import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import knnsum

from conftest import FILM_TYPE, KNN_PRED, film_iri, write_eight_film_corpus
from knnsum.cli import main
from knnsum.rdf import iri
from knnsum.summarize import summarize
from knnsum.usage import RatingsFormat, UsageMatrix, ingest_ratings
from knnsum.rdf import load_ntriples
from knnsum.cli import load_links

IN_CLUSTER_SCORE = 1 - 1 / (1 + 16 * math.log(2))


def build(corpus, *extra):
    return main(["build", "--config", str(corpus.config), *extra])


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


def test_build_zero_matched_links_fails(eight_film_corpus, capsys):
    eight_film_corpus.links.write_text("zz\thttp://example.org/nowhere\n")
    assert build(eight_film_corpus) == 1
    assert "link" in capsys.readouterr().err


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


def test_summarize_without_targets_errors(eight_film_corpus, capsys):
    build(eight_film_corpus)
    assert main(["summarize", "--config", str(eight_film_corpus.config)]) == 1


def test_flags_override_config(eight_film_corpus, capsys):
    build(eight_film_corpus)
    capsys.readouterr()
    assert main(["summarize", "--config", str(eight_film_corpus.config),
                 "--n", "1", "m1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2  # header + single feature row


def test_invalid_threshold_rejected(eight_film_corpus, capsys):
    assert build(eight_film_corpus, "--threshold", "1.5") == 1


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_invalid_workers_rejected(eight_film_corpus, capsys, workers):
    assert build(eight_film_corpus, "--workers", workers) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "workers" in err
    assert not eight_film_corpus.bundle.exists()


def test_threshold_build_identical_across_worker_counts(tmp_path, capsys):
    # 600 items span three 256-item blocks, so two workers share the work
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
    bundles = []
    for workers in ("1", "2"):
        bundle = tmp_path / f"bundle-w{workers}.json"
        assert main(["build", "--ratings", str(tmp_path / "ratings.dat"),
                     "--rating-col", "2",
                     "--triples", str(tmp_path / "graph.nt"),
                     "--links", str(tmp_path / "links.tsv"),
                     "--type-filter", FILM_TYPE, "--bundle", str(bundle),
                     "--threshold", "0.5", "--workers", workers]) == 0
        bundles.append(bundle.read_bytes())
    capsys.readouterr()
    assert bundles[0] == bundles[1]
    assert sum(map(len, json.loads(bundles[0])["neighbors"].values())) > 0


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
    links = load_links(str(eight_film_corpus.links))
    summary = summarize(store, matrix, links, "m1",
                        knn_predicate=iri(KNN_PRED),
                        type_filter=iri(FILM_TYPE))
    for wf in summary.features:
        assert f"weight={wf.weight:.6f}" in out
        assert f"neighbor_support={wf.neighbor_support}" in out


def test_module_entry_point_runs_end_to_end(eight_film_corpus):
    cmd = [sys.executable, "-m", "knnsum", "build",
           "--config", str(eight_film_corpus.config)]
    # the child imports the same knnsum as this process, installed or not
    src = str(Path(knnsum.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert "knn triples added: 24" in proc.stdout
