"""Run the benchmark once per seed on each workload and report, per
end-to-end metric, the median and the quartile spread (Q3 - Q1) / median
that BENCHMARK.json's bounds are judged against.

    python3 perfbench/spread.py --workloads ladder census --seeds 10 --out spread.json

Runs are sequential and untraced, one process each, seeds 0, 1, ...,
from the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10, help="runs per workload, one seed each")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.seeds))
    report = {"run_seconds": spec["run_seconds"], "seeds": seeds, "provenance": None,
              "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(lines[-1])
            info = next(json.loads(line[2:]) for line in lines if line.startswith("# {"))
            runs.append(result)
            result["metrics"]["ops_per_s (# line)"] = {"value": info["ops_per_s"]}
            for q in ("p50", "p90"):
                result["metrics"][f"query_ms_{q} (# line)"] = {"value": info["query_ms"][q]}
            report["provenance"] = report["provenance"] or {
                key: info.get(key) for key in ("python", "nproc", "commit", "source_sha256")}
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [run["metrics"][name]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median if median else None
            metrics[name] = {"median": median, "q1": q1, "q3": q3, "spread": spread,
                             "bound": bounds.get(name), "values": values}
        report["workloads"][workload] = {
            "all_correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": metrics,
        }
        for name, m in metrics.items():
            flag = ""
            if m["bound"] is not None and m["spread"] is not None:
                flag = "ok" if m["spread"] < m["bound"] / 3 else "WIDE"
            print(f"  {workload:8} {name:16} median {m['median']:.6g} spread "
                  f"{m['spread'] if m['spread'] is None else round(m['spread'], 4)} {flag}", flush=True)
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
