"""segctc benchmark: run one workload in this process and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
`src/segctc` of that checkout and nowhere else, and the run fails with exit
code 2 when it is missing. With `--trace 0` the run measures the end-to-end
metrics through the package's public entry points; with `--trace 1` it also
replays the same steps from the public layer functions under span timers and
prints the per-layer metrics instead. The second-to-last line of stdout is a
JSON report (environment, sample counts, failure base, every metric); the last
line is the result object `{"correct", "attempted", "failed", "metrics"}`.
Workloads, metrics and predictions are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy is imported. The encoder's matrices are
# at most 100 x 40, far below the size where a second BLAS thread pays, and a
# spinning helper thread only adds noise on a shared machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("pretrain_joint", "pretrain_warmup", "finetune", "analyze")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def import_package():
    """Put the checkout's src/ first on the path and import segctc from it."""
    if not (SRC / "segctc" / "__init__.py").is_file():
        sys.exit(f"error: no segctc package under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import segctc

    if Path(segctc.__file__).resolve().parent != (SRC / "segctc").resolve():
        sys.exit(f"error: segctc was imported from {segctc.__file__}, not from {SRC}")


def main(argv=None) -> int:
    args = parse_args(argv)
    import_package()
    import bench

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    detail, result = bench.run(args.workload, args.seed, args.seconds, bool(args.trace))
    computed = result["metrics"]
    result["metrics"] = {}
    for entry in spec["per_layer" if args.trace else "end_to_end"]:
        metric = computed.get(entry["name"])
        if metric is None or metric["unit"] != entry["unit"]:
            sys.exit(f"error: BENCHMARK.json lists {entry}, the run computed {metric}")
        result["metrics"][entry["name"]] = metric
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
