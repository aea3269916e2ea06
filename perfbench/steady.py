"""Steadiness check: two sets of runs of the same code, each metric's spread next to its bound.

Usage (from the repository root):
  python3 perfbench/steady.py

Each of the two sets runs every workload ten times for the run length in
BENCHMARK.json, each run in its own process with its own seed (set 1 uses
seeds 1..10, set 2 uses 101..110). For each end-to-end metric it prints,
per set, the median and the spread (distance between the first and third
quartile, as a share of the median), and the second set's change against
the first in the worse direction. A metric passes when the change and each
spread are within its bound; setup_s is held to the change alone, because
its spread follows the shared machine's speed over whole runs (see
perfbench/README.md). A spread above a third of its bound, the aim for
every metric, is marked "wide". Results are also written to
.perfbench_out/steady.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def one_run(workload: str, seed: int, seconds: int) -> dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit code {done.returncode}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    results = {}
    steady = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = []
        for index in range(2):
            runs = []
            for i in range(RUNS):
                runs.append(one_run(workload, 100 * index + 1 + i, spec["run_seconds"]))
                print(f"{workload} set {index + 1} run {i + 1}: "
                      + ", ".join(f"{k}={v['value']:.6g}" for k, v in runs[-1]["metrics"].items()), flush=True)
            sets.append(runs)
        results[workload] = sets
        shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets]
        correct = all(r["correct"] for runs in sets for r in runs)
        print(f"{workload}: correct={correct} failed share per set={shares}")
        steady &= correct and len(set(shares)) == 1
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            values = [[r["metrics"][name]["value"] for r in runs] for runs in sets]
            medians = [statistics.median(v) for v in values]
            spreads = [spread(v) for v in values]
            line = f"  {name:<14} bound {bound:.3f}  " + "  ".join(
                f"set{i + 1} median {m:.6g} spread {s:.4f}" for i, (m, s) in enumerate(zip(medians, spreads)))
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            line += f"  change worse-by {worse:+.4f}"
            ok = worse <= bound and (name == "setup_s" or all(s <= bound for s in spreads))
            steady &= ok
            wide = any(s > bound / 3 for s in spreads)
            print(line + ("  wide" if wide else "") + ("" if ok else "  NOT STEADY"), flush=True)
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(results, indent=1) + "\n")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
