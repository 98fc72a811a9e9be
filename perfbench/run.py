"""knnsum benchmark: three seeded workloads through the real CLI.

    python3 perfbench/run.py --workload dense-build --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --size smoke --seconds 2

Run from the repository root. Each run generates its workload's inputs
from ``--seed`` (untimed), then:

* ``--trace 0``: runs ``knnsum build`` several times as set-up, then, for
  ``--seconds``, cycles through the request mix (two ``neighbors``
  lookups, one ``summarize`` batch, the same batch ``--two-hop --format
  structured``), one CLI subprocess at a time, each followed by a run of
  calibrate.py. It prints the end-to-end metrics: medians over the
  set-up builds and over the cycles, rescaled to the reference machine
  speed (see Timeline).
* ``--trace 1``: runs the mix once through the CLI, then in-process with
  spans around every public knnsum call (see spans.py) and again without,
  and prints the per-layer metrics and the tracing overhead.

Every operation is checked: exit code, no traceback, canonical digests
(equal across repeats, equal to perfbench/reference.json where the seed
is recorded) and independent recounts (checks.py). The last stdout line
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np
import scipy

import checks
import corpus as corpora
import spans as tracing
from workloads import SIZES, WORKLOADS, Inputs, Workload, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"

SETUP_BUILDS = 3          # set-up builds per run; setup_s is their median
MIN_CYCLES = 3            # request-mix cycles per run, however long they take
SPOT_CENTERS = 8          # neighbor lists checked against textbook G2
OP_TIMEOUT_S = 170.0
N_SUMMARY = 10            # summary length (the CLI default)
# Wall time of calibrate.py at the reference speed: the median on the
# machine the benchmark was defined on (2 vCPU Intel Xeon, Python 3.11.7,
# numpy 2.4.6, scipy 1.17.1). End-to-end times are reported at that speed.
REFERENCE_CAL_S = 0.70

END_TO_END = {            # name -> unit
    "setup_s": "s", "build_peak_rss_mb": "MB", "neighbors_s": "s",
    "summarize_s": "s", "summarize_two_hop_s": "s",
    "summarize_peak_rss_mb": "MB",
}


# -- running the CLI ---------------------------------------------------------

@dataclass
class Op:
    """One CLI invocation: what ran, how long, and what it printed."""

    name: str
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    problems: list[str] = field(default_factory=list)
    scaled_s: float = 0.0         # wall_s at the reference machine speed


def child_env() -> dict[str, str]:
    """Environment of every subprocess: this checkout's sources, no
    bytecode written into it, and one string-hash seed, so that set and
    dict layouts -- and with them the work done -- repeat from run to run."""
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1",
                PYTHONHASHSEED="0")


def run_cli(name: str, args: list[str], cwd: Path) -> Op:
    """Run ``python -m knnsum ARGS`` and measure its wall time and peak RSS."""
    env = child_env()
    out_path, err_path = cwd / f"{name}.out", cwd / f"{name}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "knnsum", *args],
                                stdout=out, stderr=err, cwd=cwd, env=env)
        killer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    op = Op(name, proc.returncode, wall, usage.ru_maxrss / 1024.0,
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"))
    if op.code != 0:
        op.problems.append(f"{name}: exit code {op.code}")
    if "Traceback" in op.stderr:
        op.problems.append(f"{name}: traceback on stderr")
    return op


class Ledger:
    """Attempted and failed operations, with the reasons for failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, name: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += [f"{name}: {p}" for p in problems[:5]]


# -- checks shared by both modes ---------------------------------------------

class Checker:
    """Expected answers for one workload's inputs, computed lazily."""

    def __init__(self, inputs: Inputs, reference: dict | None):
        self.inputs = inputs
        self.reference = reference or {}
        self._usage: checks.UsageIndex | None = None
        self._graph: checks.GraphIndex | None = None
        self._checked: dict[str, list[str]] = {}

    @property
    def usage(self) -> checks.UsageIndex:
        if self._usage is None:
            self._usage = checks.UsageIndex(self.inputs.corpus.pairs)
        return self._usage

    @property
    def graph(self) -> checks.GraphIndex:
        if self._graph is None:
            self._graph = checks.GraphIndex(self.inputs.corpus.triples)
        return self._graph

    def _against_reference(self, key: str, digest: str) -> list[str]:
        want = self.reference.get(key)
        if want is not None and want != digest:
            return [f"{key} digest {digest[:12]} != reference {want[:12]}"]
        return []

    def build(self, stdout: str, neighbors: dict) -> list[str]:
        """Build log counts, the neighbor digest, textbook G2 spot checks."""
        digest = checks.neighbor_digest(neighbors)
        if digest in self._checked:
            return list(self._checked[digest])
        c = self.inputs.corpus
        problems = []
        if self.reference.get("inputs", self.inputs.digests) != self.inputs.digests:
            problems.append("generated inputs differ from the recorded reference")
        problems += checks.check_build_log(
            stdout, checks.expected_build_log(c, neighbors))
        problems += self._against_reference("neighbors", digest)
        w = self.inputs.workload
        rng = np.random.default_rng(len(neighbors))
        items = sorted(neighbors)
        spot = {items[j] for j in rng.choice(len(items),
                                             size=min(SPOT_CENTERS, len(items)),
                                             replace=False)}
        linked_item = {e: i for i, e in sorted(c.link_map.items(), reverse=True)}
        for t in [*self.inputs.targets, *self.inputs.lookups]:
            item = t if t in neighbors else linked_item.get(t)
            if item in neighbors:
                spot.add(item)
        for center in sorted(spot):
            problems += checks.check_neighbor_list(
                self.usage, center, neighbors[center], 20, w.threshold)
        self._checked[digest] = problems
        return list(problems)

    def mix(self, name: str, stdout: str, neighbors: dict) -> list[str]:
        """Check the output of one operation of the request mix."""
        if name == "neighbors_id":
            return self.lookup(name, self.inputs.lookups[0], stdout, neighbors)
        if name == "neighbors_iri":
            return self.lookup(name, self.inputs.lookups[1], stdout, neighbors)
        return self.summaries(name, stdout, neighbors)

    def lookup(self, key: str, target: str, stdout: str,
               neighbors: dict) -> list[str]:
        """One `neighbors` output: the bundle's list for the target's item
        (an IRI resolves to its smallest linked item), 6-decimal scores."""
        problems = self._against_reference(key, checks.sha256(stdout.encode()))
        item = target
        if target not in neighbors:
            item = min(i for i, e in self.inputs.corpus.link_map.items()
                       if e == target and i in neighbors)
        if stdout != checks.render_neighbors(item, neighbors[item]):
            problems.append(f"neighbors {target}: output differs from the "
                            "bundle's list")
        return problems

    def summaries(self, key: str, stdout: str, neighbors: dict) -> list[str]:
        digest = checks.sha256(stdout.encode())
        if digest in self._checked:
            return list(self._checked[digest])
        two_hop = key == "summarize_two_hop"
        problems = self._against_reference(key, digest)
        problems += checks.check_summaries(
            stdout, structured=two_hop, two_hop=two_hop, n=N_SUMMARY,
            targets=self.inputs.targets, c=self.inputs.corpus,
            graph=self.graph, neighbors=neighbors)
        self._checked[digest] = problems
        return list(problems)


def read_neighbors(bundle: Path) -> tuple[dict, list[str]]:
    try:
        with open(bundle, encoding="utf-8") as fh:
            return json.load(fh)["neighbors"], []
    except (OSError, ValueError, KeyError) as exc:
        return {}, [f"cannot read neighbor lists from the bundle: {exc}"]


def mix_args(inputs: Inputs) -> list[tuple[str, list[str]]]:
    """The request mix after set-up: (operation name, CLI arguments)."""
    cfg = ["--config", str(inputs.config)]
    return [
        ("neighbors_id", ["neighbors", *cfg, inputs.lookups[0]]),
        ("neighbors_iri", ["neighbors", *cfg, inputs.lookups[1]]),
        ("summarize", ["summarize", *cfg, *inputs.targets]),
        ("summarize_two_hop", ["summarize", *cfg, "--two-hop",
                               "--format", "structured", *inputs.targets]),
    ]


# -- end-to-end run (--trace 0) -------------------------------------------------

class Timeline:
    """CLI invocations alternated with runs of the calibration job.

    Each invocation's time is rescaled to the reference machine speed:
    wall time x REFERENCE_CAL_S / (mean wall time of the calibration runs
    just before and just after it). See calibrate.py for why.
    """

    def __init__(self, cwd: Path):
        self.cwd = cwd
        self.calibrations = [self._calibrate()]
        self._pending: list[Op] = []

    def _calibrate(self) -> float:
        start = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "calibrate.py")],
                       cwd=self.cwd, env=child_env(), check=True,
                       timeout=OP_TIMEOUT_S)
        return time.perf_counter() - start

    def run(self, name: str, args: list[str]) -> Op:
        op = run_cli(name, args, self.cwd)
        self._pending.append(op)
        return op

    def calibrate(self) -> None:
        """Close the current stretch: rescale the invocations made since
        the previous calibration run."""
        self.calibrations.append(self._calibrate())
        speed = REFERENCE_CAL_S / statistics.mean(self.calibrations[-2:])
        for op in self._pending:
            op.scaled_s = op.wall_s * speed
        self._pending = []


def end_to_end(inputs: Inputs, checker: Checker, seconds: float,
               ledger: Ledger) -> tuple[dict, dict]:
    timeline = Timeline(inputs.root)
    build_args = ["build", "--config", str(inputs.config)]
    builds = []
    neighbors: dict = {}
    for r in range(SETUP_BUILDS):
        op = timeline.run(f"build{r}", build_args)
        timeline.calibrate()
        nb, problems = read_neighbors(inputs.bundle)
        problems = op.problems + problems
        if not problems:
            problems = checker.build(op.stdout, nb)
            neighbors = neighbors or nb
        ledger.record(op.name, problems)
        builds.append(op)

    cycles: list[dict[str, Op]] = []
    start = time.perf_counter()
    while len(cycles) < MIN_CYCLES or time.perf_counter() - start < seconds:
        ops = {}
        for name, args in mix_args(inputs):
            ops[name] = timeline.run(name, args)
            if name != "neighbors_id":       # the two lookups share a stretch
                timeline.calibrate()
        for name, op in ops.items():
            ledger.record(name, op.problems or checker.mix(
                name, op.stdout, neighbors))
        cycles.append(ops)
    loop_s = time.perf_counter() - start

    def times(attr: str) -> dict[str, list[float]]:
        def t(ops: dict[str, Op], *names: str) -> float:
            return sum(getattr(ops[n], attr) for n in names)
        return {
            "setup_s": [getattr(op, attr) for op in builds],
            "neighbors_s": [t(o, "neighbors_id", "neighbors_iri")
                            for o in cycles],
            "summarize_s": [t(o, "summarize") for o in cycles],
            "summarize_two_hop_s": [t(o, "summarize_two_hop") for o in cycles],
        }

    samples = times("scaled_s")
    samples["build_peak_rss_mb"] = [op.peak_rss_mb for op in builds]
    samples["summarize_peak_rss_mb"] = [
        max(o["summarize"].peak_rss_mb, o["summarize_two_hop"].peak_rss_mb)
        for o in cycles]
    raw = times("wall_s")
    metrics = {k: statistics.median(samples[k]) for k in END_TO_END}
    counts = {"setup_builds": len(builds), "cycles": len(cycles),
              "loop_s": round(loop_s, 3),
              "calibration_s_median": round(
                  statistics.median(timeline.calibrations), 4),
              "calibrations": len(timeline.calibrations),
              "wall_s_median": {k: round(statistics.median(v), 4)
                                for k, v in raw.items()}}
    return metrics, counts


# -- traced run (--trace 1) -----------------------------------------------------

def _pct(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def traced(inputs: Inputs, checker: Checker, ledger: Ledger
           ) -> tuple[dict, dict, dict]:
    """One untraced CLI pass, then the same commands traced in-process."""
    cfg = ["--config", str(inputs.config)]
    build = run_cli("build", ["build", *cfg], inputs.root)
    neighbors, problems = read_neighbors(inputs.bundle)
    problems = build.problems + problems
    if not problems:
        problems = checker.build(build.stdout, neighbors)
    ledger.record("build", problems)
    cli_ops = {"build": build}
    cli_out = {}
    for name, args in mix_args(inputs):
        op = run_cli(name, args, inputs.root)
        ledger.record(name, op.problems or checker.mix(
            name, op.stdout, neighbors))
        cli_out[name] = op.stdout
        cli_ops[name] = op
    cli_s = sum(op.wall_s for op in cli_ops.values())

    from knnsum.similarity import all_pairs_knn
    from knnsum.usage import RatingsFormat, ingest_ratings
    traced_bundle = inputs.root / "traced_bundle.json"
    tcfg = [*cfg, "--bundle", str(traced_bundle)]
    runs = [("build", ["build", *tcfg])]
    runs += [(name, [args[0], *tcfg, *args[3:]])
             for name, args in mix_args(inputs)]
    # The commands in-process with spans, then again without: the ratio of
    # the two is the tracing overhead. Traced first, so that the per-layer
    # memory high-water marks are not those of an earlier pass.
    # The benchmark's own objects (the corpus, the check indexes) move to
    # the permanent generation, so that the collector does not rescan them
    # while the program allocates: the CLI process does not have them.
    gc.collect()
    gc.freeze()
    try:
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            traced_s = in_process(tracer, runs, traced_bundle, neighbors,
                                  cli_out, ledger, "traced")
        plain_s = in_process(tracing.Tracer(), runs, traced_bundle, neighbors,
                             cli_out, ledger, "in_process")
    finally:
        gc.unfreeze()

    with open(inputs.root / "ratings.dat", encoding="utf-8") as fh:
        matrix = ingest_ratings(fh, RatingsFormat(
            rating_col=corpora.RATING_COL)).matrix
    probes = {}
    tracer.op = "probe"
    for workers in (1, 2):
        with tracer.span(f"similarity.all_pairs_knn_w{workers}") as s:
            all_pairs_knn(matrix, 20, workers=workers)
        probes[workers] = s.duration

    metrics = layer_metrics(tracer, inputs, neighbors, traced_bundle, probes)
    metrics["trace.overhead_ratio"] = traced_s / plain_s
    data = data_shape(inputs, checker, neighbors, cli_out)
    counts = {"cli_s": round(cli_s, 3), "in_process_s": round(plain_s, 3),
              "traced_s": round(traced_s, 3), "spans": len(tracer.spans),
              "cli_wall_s": {k: round(op.wall_s, 3) for k, op in cli_ops.items()},
              "cli_peak_rss_mb": {k: round(op.peak_rss_mb, 1)
                                  for k, op in cli_ops.items()}}
    return metrics, data, counts


def in_process(tracer: tracing.Tracer, runs: list[tuple[str, list[str]]],
               bundle: Path, neighbors: dict, cli_out: dict[str, str],
               ledger: Ledger, label: str) -> float:
    """Run the commands through knnsum.cli.main in this process; check that
    they print what the CLI printed; return their total wall time."""
    total = 0.0
    for name, argv in runs:
        try:
            code, out, _, dur = tracing.run_command(tracer, name, argv)
            problems = [] if code == 0 else [f"exit code {code}"]
        except Exception as exc:  # a crash is a failed operation
            out, dur, problems = "", 0.0, [f"raised {exc!r}"]
        total += dur
        if name == "build":
            nb, more = read_neighbors(bundle)
            problems += more
            if checks.neighbor_digest(nb) != checks.neighbor_digest(neighbors):
                problems.append("neighbor digest differs from the CLI build")
        elif out != cli_out[name]:
            problems.append("output differs from the CLI")
        ledger.record(f"{label}_{name}", problems)
    return total


def layer_metrics(tracer: tracing.Tracer, inputs: Inputs, neighbors: dict,
                  bundle: Path, probes: dict) -> dict:
    def total(name, op="build"):
        """Seconds in the named spans of one command (default: build)."""
        return sum(s.duration for s in tracer.select(name, op))

    def ms(name, op=None):
        return [1000.0 * s.duration for s in tracer.select(name, op)]

    ratings_lines = inputs.corpus.ratings.count(b"\n")
    m: dict[str, float] = {}
    m["usage.ingest_s"] = total("usage.ingest_ratings")
    m["usage.lines_per_s"] = ratings_lines / m["usage.ingest_s"]
    nbhd = ("similarity.all_pairs_knn", "similarity.neighbors_above_threshold")
    m["similarity.neighborhoods_s"] = total(nbhd)
    m["similarity.items_per_s"] = len(neighbors) / m["similarity.neighborhoods_s"]
    m["similarity.all_pairs_knn_w1_s"] = probes[1]
    m["similarity.all_pairs_knn_w2_s"] = probes[2]
    m["similarity.parallel_efficiency"] = probes[1] / (2.0 * probes[2])
    target = ms(("similarity.k_nearest_neighbors",
                 "similarity.neighbors_above_threshold"), "summarize")
    target += ms(("similarity.k_nearest_neighbors",
                  "similarity.neighbors_above_threshold"), "summarize_two_hop")
    m["similarity.target_neighbors_ms.p50"] = _pct(target, 50)
    m["similarity.target_neighbors_ms.p95"] = _pct(target, 95)
    m["rdf.load_ntriples_s"] = total("rdf.load_ntriples")
    m["rdf.triples_per_s"] = len(inputs.corpus.triples) / m["rdf.load_ntriples_s"]
    m["rdf.materialize_knn_s"] = total("rdf.materialize_knn")
    shared = ms("rdf.shared_features")
    m["rdf.shared_features_ms.p50"] = _pct(shared, 50)
    m["rdf.shared_features_ms.p95"] = _pct(shared, 95)
    two_hop = ms("rdf.shared_two_hop_paths")
    m["rdf.shared_two_hop_ms.p50"] = _pct(two_hop, 50)
    m["rdf.shared_two_hop_ms.p95"] = _pct(two_hop, 95)
    one = ms("summarize.summarize", "summarize")
    two = ms("summarize.summarize", "summarize_two_hop")
    m["summarize.one_hop_ms.p50"] = _pct(one, 50)
    m["summarize.one_hop_ms.p95"] = _pct(one, 95)
    m["summarize.two_hop_ms.p50"] = _pct(two, 50)
    m["summarize.two_hop_ms.p95"] = _pct(two, 95)
    m["summarize.self_ms.p50"] = _pct(
        [1000.0 * tracer.self_time(s)
         for s in tracer.select("summarize.summarize")], 50)
    m["cli.load_links_s"] = total("cli.load_links")
    m["cli.write_bundle_s"] = total("cli.write_bundle")
    m["cli.bundle_bytes"] = float(bundle.stat().st_size) if bundle.exists() else 0.0
    m["cli.read_bundle_s"] = statistics.median(
        [s.duration for s in tracer.select("cli.read_bundle")] or [0.0])
    m["cli.render_ms.p50"] = _pct(ms("cli.render_summary"), 50)
    m["cli.summarize_startup_s"] = (
        total("cli.summarize", "summarize")
        - total("summarize.summarize", "summarize"))
    for layer in tracing.LAYERS:
        spans = [s for s in tracer.spans if s.layer == layer and s.op != "probe"]
        m[f"{layer}.self_s"] = sum(tracer.self_time(s) for s in spans)
        # The high-water mark only rises, so read it where the layer first
        # works: at the end of its spans in the first command that calls it.
        first = [s for s in spans if s.op == spans[0].op]
        m[f"{layer}.rss_hwm_mb"] = max((s.rss_mb for s in first), default=0.0)
    return m


def data_shape(inputs: Inputs, checker: Checker, neighbors: dict,
               cli_out: dict[str, str]) -> dict:
    """Exact counts describing the data; they size the layers' work."""
    sizes = [len(v) for v in neighbors.values()]
    n_items = len(checker.usage.items)
    corated = checker.usage.corated_pairs()
    features = sum(len(block["rows"])
                   for name, text in cli_out.items() if name.startswith("summarize")
                   for block in checks.parse_summaries(text, "two_hop" in name))
    return {
        "usage.rejected_lines": inputs.corpus.rejected_ratings,
        "similarity.pairs_dense": n_items * n_items,
        "similarity.pairs_corated": corated,
        "similarity.corated_ratio": round(corated / max(1, n_items * (n_items - 1)), 4),
        "similarity.edges": sum(sizes),
        "similarity.zero_neighbor_items": sum(1 for s in sizes if s == 0),
        "similarity.neighborhood_p50": float(np.median(sizes)) if sizes else 0.0,
        "similarity.neighborhood_max": max(sizes, default=0),
        "summarize.features_emitted": features,
        "summary_targets": len(inputs.targets),
    }


# -- reporting ---------------------------------------------------------------------

def environment(w: Workload, seed: int, size: str, inputs: Inputs) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            found = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
            if found:
                cpu = found.group(1).strip()
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_digest = checks.sha256(b"".join(
        p.read_bytes() for p in sorted((SRC / "knnsum").glob("*.py"))))
    return {"workload": w.name, "seed": seed, "size": size,
            "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "git_commit": commit,
            "src_sha256": src_digest, "inputs_sha256": inputs.digests}


UNITS = {"per_s": "1/s", "_ms": "ms", "_s": "s", "_mb": "MB",
         "bytes": "bytes", "ratio": "ratio", "efficiency": "ratio"}


def unit_of(name: str) -> str:
    if name in END_TO_END:
        return END_TO_END[name]
    base = name.rsplit(".p", 1)[0] if re.search(r"\.p\d+$", name) else name
    for suffix, unit in UNITS.items():
        if base.endswith(suffix):
            return unit
    return "count"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 size: str) -> tuple[Ledger, dict]:
    root = WORK / f"{w.name}-{size}-{seed}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        inputs = make_inputs(w, seed, size, root)
        refs = load_reference().get(f"{w.name}/{size}/{seed}")
        checker = Checker(inputs, refs)
        ledger = Ledger()
        print("env: " + json.dumps(environment(w, seed, size, inputs)))
        if trace:
            metrics, data, counts = traced(inputs, checker, ledger)
            print("data: " + json.dumps(data))
        else:
            metrics, counts = end_to_end(inputs, checker, seconds, ledger)
        counts["reference_recorded"] = refs is not None
        print("samples: " + json.dumps(counts))
    finally:
        shutil.rmtree(root, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:         # another run's inputs are still there
            pass
    for p in ledger.problems:
        print(f"problem: {p}")
    for name, value in metrics.items():
        print(f"{w.name}\t{name}\t{value:.6g}\t{unit_of(name)}")
    print(f"{w.name}\tfailed_ratio\t{ledger.failed / max(1, ledger.attempted):.6g}"
          f"\t1 ({ledger.failed}/{ledger.attempted} operations)")
    return ledger, metrics


def load_reference() -> dict:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="knnsum benchmark")
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="bench (default), smoke (self-check in seconds) "
                             "or full (the ROADMAP baseline scale)")
    args = parser.parse_args(argv)
    if not (SRC / "knnsum" / "cli.py").is_file():
        print(f"error: no knnsum sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import knnsum
    if Path(knnsum.__file__).resolve().parent != SRC / "knnsum":
        print(f"error: knnsum imported from {knnsum.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    for name in names:
        ledger, values = run_workload(WORKLOADS[name], args.seed,
                                      args.seconds, bool(args.trace), args.size)
        attempted += ledger.attempted
        failed += ledger.failed
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({f"{prefix}{k}": {"value": v, "unit": unit_of(k)}
                        for k, v in values.items()})
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
