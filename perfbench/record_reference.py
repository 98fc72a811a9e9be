"""Record the reference digests that run.py checks every run against.

    python3 perfbench/record_reference.py --seeds 0-20 [--size bench]

For each workload and seed it generates the inputs, runs ``knnsum build``
and the request mix once through the CLI, requires every independent
check in checks.py to pass, and stores the digests of the inputs, the
neighbor lists and each command's stdout in perfbench/reference.json.
Record at a commit whose outputs are known good; a later commit whose
outputs differ at a recorded seed then fails the benchmark's gate.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

sys.dont_write_bytecode = True

import checks
import run
from workloads import SIZES, WORKLOADS, make_inputs


def record(name: str, seed: int, size: str) -> dict:
    root = run.WORK / f"record-{name}-{size}-{seed}"
    shutil.rmtree(root, ignore_errors=True)
    try:
        inputs = make_inputs(WORKLOADS[name], seed, size, root)
        checker = run.Checker(inputs, None)
        build = run.run_cli("build", ["build", "--config", str(inputs.config)],
                            root)
        neighbors, problems = run.read_neighbors(inputs.bundle)
        problems = build.problems + problems
        if not problems:
            problems = checker.build(build.stdout, neighbors)
        entry = {"inputs": inputs.digests,
                 "neighbors": checks.neighbor_digest(neighbors)}
        for op_name, args in run.mix_args(inputs):
            op = run.run_cli(op_name, args, root)
            problems += op.problems or checker.mix(op_name, op.stdout,
                                                   neighbors)
            entry[op_name] = checks.sha256(op.stdout.encode())
    finally:
        shutil.rmtree(root, ignore_errors=True)
    if problems:
        raise SystemExit(f"{name} seed {seed}: not recorded: {problems[:3]}")
    return entry


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-20",
                        help="inclusive range, e.g. 0-20")
    parser.add_argument("--size", choices=SIZES, default="bench")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    reference = run.load_reference()
    for name in WORKLOADS:
        for seed in seeds:
            reference[f"{name}/{args.size}/{seed}"] = record(name, seed,
                                                             args.size)
            print(f"recorded {name}/{args.size}/{seed}", flush=True)
            with open(run.REFERENCE, "w", encoding="utf-8") as fh:
                json.dump(reference, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
