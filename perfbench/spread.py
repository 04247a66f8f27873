#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 perfbench/spread.py --workload kv_write --seeds 1-10 [--trace 0] [--out a.json]
    python3 perfbench/spread.py --compare a.json b.json

For every metric it prints the median, the quartiles (statistics.quantiles,
n=4) and the interquartile distance as a share of the median, next to the
metric's bound from BENCHMARK.json. Runs whose host fingerprint differs are
never pooled or compared: the script stops instead.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def host_of(stdout):
    """The fingerprint, without the source tree hash (runs of one tree differ only by seed)."""
    for line in stdout.splitlines():
        if line.startswith("host: "):
            return " ".join(f for f in line[6:].split() if not f.startswith("tree="))
    return "unrecorded"


def run(workload, seed, seconds, trace, logs):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if logs:
        Path(logs).mkdir(parents=True, exist_ok=True)
        Path(logs, f"{workload}-{seed}-{trace}.log").write_text(proc.stdout + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return host_of(proc.stdout), json.loads(lines[-1])


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=[])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--logs", help="directory for each run's full output")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}

    if args.compare:
        base, new = (json.loads(Path(p).read_text()) for p in args.compare)
        if base["host"] != new["host"]:
            sys.exit(f"different hosts, not compared:\n  {base['host']}\n  {new['host']}")
        for workload, metrics in new["workloads"].items():
            for name, s in metrics.items():
                b = base["workloads"].get(workload, {}).get(name)
                if b and b["median"]:
                    change = (s["median"] - b["median"]) / b["median"]
                    print(f"{workload:9} {name:26} {b['median']:14.6g} -> {s['median']:14.6g}"
                          f"  {change:+7.1%}  (bound {bounds.get(name)})")
        return

    seconds = args.seconds or spec["run_seconds"]
    result = {"host": None, "seconds": seconds, "workloads": {}}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values = {}
        for seed in seeds(args.seeds):
            host, report = run(workload, seed, seconds, args.trace, args.logs)
            if result["host"] not in (None, host):
                sys.exit(f"host changed between runs:\n  {result['host']}\n  {host}")
            result["host"] = host
            for name, metric in report["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: failed {report['failed']}/{report['attempted']} " +
                  " ".join(f"{k}={v['value']:.6g}" for k, v in report["metrics"].items()),
                  flush=True)
        result["workloads"][workload] = {k: summarize(v) for k, v in values.items()}
        for name, s in result["workloads"][workload].items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {workload:9} {name:26} median {s['median']:14.6g}  IQR {s['q1']:.6g}.."
                  f"{s['q3']:.6g}  spread {s['spread']:7.2%}  bound {bound}{flag}")
    print(f"host: {result['host']}")
    if args.out:
        Path(args.out).write_text(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
