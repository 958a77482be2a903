"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                 [--seconds S] [--out FILE]

Runs `perfbench/run.py` once per (seed, workload), one process at a time,
seeds in the outer loop so that slow drifts of the machine spread over every
workload. For each metric it prints the median and the quartile spread,
(q3 - q1) / median with the quartiles of statistics.quantiles(n=4), next to
the metric's bound from BENCHMARK.json, and exits 1 when a spread other than
setup_s's is wider than a third of its bound. With --out it writes the summary,
every run's values and, for traced runs, each layer's share of the op time
as JSON (the format of the files in perfbench/baselines/).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 180


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr.strip()}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    spread = (q3 - q1) / abs(q2) if q2 else 0.0
    return {"median": q2, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    workloads = args.workloads.split(",")
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    values: dict = {w: {} for w in workloads}
    op_shares: dict = {w: {} for w in workloads}
    units: dict = {}
    env = {}
    for seed in seeds:
        for w in workloads:
            detail, result = run_once(w, seed, args.seconds, args.trace)
            env = env or detail["env"]
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} {detail['errors']}")
            for name, share in ((detail["account"] or {}).get("op_share") or {}).items():
                op_shares[w].setdefault(name, []).append(share)
            for name, metric in result["metrics"].items():
                values[w].setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in list(result["metrics"].items())[:4]),
                flush=True)

    summary = {w: {name: summarise(v) for name, v in ms.items()} for w, ms in values.items()}
    steady = True
    for w, ms in summary.items():
        print(f"\n{w} ({len(seeds)} seeds)")
        for name, s in ms.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] <= bound / 3 else "WIDE"
                steady &= flag == "ok"
            print(f"  {name:36s} {s['median']:14.6g} {units[name]:6s} "
                  f"spread {s['spread']:7.2%}  bound {bound if bound is not None else '-'} {flag}")
        if args.trace:
            shares = {n: statistics.median(v) for n, v in op_shares[w].items()}
            summary[w]["op_share"] = shares
            print("  median share of the traced op: " + ", ".join(
                f"{n} {v:.1%}" for n, v in sorted(shares.items(), key=lambda kv: -kv[1])))
    if args.out:
        args.out.write_text(json.dumps(
            {"seeds": seeds, "seconds": args.seconds, "trace": args.trace, "env": env,
             "units": units, "workloads": summary}, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
