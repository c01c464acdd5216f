"""Alternating before/after runs of the benchmark, recorded as one JSON file.

Usage (from the repo root; each directory is a checkout with its own
``bench/`` and ``src/``):

  python scripts/bench_pairs.py --parent ../before --change . --out BENCH_<n>.json

The workloads and the run length are those of the change's
``BENCHMARK.json``.  For each workload, pair i of ``PAIRS`` runs
``bench/run.py --seed i+1`` once in each checkout, parent first on even
pairs and change first on odd ones, so that a slow drift of the machine
favours neither side.  Each run's result is read from the record that
``bench/run.py`` writes under ``.bench_out/``.  The file holds every run
(its result as in its final JSON line, seed, seconds, side and position in
the pair, the probe median, the wall-clock metrics and the source hash),
the machine record of the first run, and per workload and metric each
side's median and quartiles, the number of pairs the change won, and
whether the medians part by more than the parent's interquartile range.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
PAIRS = 10


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout before the change")
    p.add_argument("--change", type=Path, required=True, help="checkout with the change")
    p.add_argument("--out", type=Path, required=True)
    return p.parse_args(argv)


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    subprocess.run(cmd, cwd=root, check=True)
    record_path = root / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(record_path.read_text(encoding="utf-8"))
    result = {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}
    return {"result": result, "probe_ms": record["probe_ms"], "wall": record["wall"],
            "env": record["env"]}


def summarize(runs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, and the change's wins."""
    summary = {}
    for metric, direction in better.items():
        values = {side: [r["result"]["metrics"][metric]["value"] for r in runs if r["side"] == side]
                  for side in SIDES}
        entry = {}
        for side, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
            entry[side] = {"median": med, "q1": q1, "q3": q3}
        sign = 1.0 if direction == "higher" else -1.0
        entry["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
        entry["pairs"] = len(values["change"])
        entry["median_ratio"] = entry["change"]["median"] / entry["parent"]["median"]
        # a gain counts only when the medians part by more than the parent's spread
        parent = entry["parent"]
        entry["gain_beyond_parent_iqr"] = (
            sign * (entry["change"]["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        )
        summary[metric] = entry
    return summary


def main(argv=None) -> int:
    args = parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = float(spec["run_seconds"])
    doc = {"pairs": PAIRS, "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for i in range(PAIRS):
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(roots[side], workload, i + 1, seconds)
                env = run.pop("env")
                doc.setdefault("env", {k: v for k, v in env.items() if k != "source_sha256"})
                run["source_sha256"] = env["source_sha256"]
                runs.append({"pair": i, "seed": i + 1, "seconds": seconds, "side": side,
                             "order": position, **run})
                m = run["result"]["metrics"]
                print(f"{workload} pair {i} {side}: rows_per_s {m['rows_per_s']['value']:.1f} "
                      f"op_ms_p50 {m['op_ms_p50']['value']:.3f} correct {run['result']['correct']}",
                      flush=True)
        doc["workloads"][workload] = {"summary": summarize(runs, better), "runs": runs}
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
