"""Run the benchmark on several seeds per workload and summarise the spread.

    python3 bench/collect.py --seeds 1-10 --out bench/baseline.json
    python3 bench/collect.py --workloads plate_screen --seeds 1-5 --trace 1

Runs ``run.py`` once per (workload, seed), one after another, with the
``run_seconds`` of BENCHMARK.json. For each metric it prints the median,
the quartiles (``statistics.quantiles(values, n=4)``) and the spread: the
distance between the quartiles as a share of the median. With ``--out``
it also writes the summary, every run's result and the environment record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "runs": len(values)}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    # The default seeds have recorded references (make_references.py records
    # 0-15), so every output is compared with recorded hashes.
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))

    runs, environment, summary = [], None, {}
    for workload in args.workloads.split(","):
        results = []
        for seed in range(first, last + 1):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-400:]}",
                      file=sys.stderr)
                return 1
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            environment = json.loads(next(l for l in lines if l.startswith("environment: "))
                                     .split(": ", 1)[1])
            reference = next(l for l in lines if l.startswith("reference: ")).split(": ", 1)[1]
            runs.append({"workload": workload, "seed": seed, "elapsed_s": round(elapsed, 1),
                         "reference": reference, **result})
            results.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} ({elapsed:.0f} s)", flush=True)
        summary[workload] = {name: {"unit": results[0]["metrics"][name]["unit"],
                                    **summarize([r["metrics"][name]["value"] for r in results])}
                             for name in results[0]["metrics"]}
        for name, s in summary[workload].items():
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"  {name:46} median {s['median']:14.6g} {s['unit']:6} spread {spread}")
    if args.out is not None:
        args.out.write_text(json.dumps({
            "run_seconds": spec["run_seconds"], "trace": args.trace, "seeds": args.seeds,
            "environment": environment, "summary": summary, "runs": runs,
        }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
