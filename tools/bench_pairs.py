#!/usr/bin/env python3
"""Paired parent/change runs of one benchmark workload, written to BENCH_<workload>.json.

    python3 tools/bench_pairs.py --parent ../parent-checkout --workload eval-acc \\
        --seeds 4,5,6 --pairs 10 --seconds 20 --claim wall_s

Each pair runs ``perfbench/run.py --trace 0`` once in the parent checkout
and once in this one, with the same seed and ``--seconds``, alternating
which side runs first; pair i takes seed ``seeds[i % len(seeds)]``.  The
file records, per end-to-end metric of ``BENCHMARK.json``, each side's
runs, median and quartiles, the change's wins (ties count for neither)
and whether the gain rule holds: at least nine tenths of the pairs won
and medians further apart than the parent's interquartile range.  It
also records the environment ``perfbench`` reports for each side (BLAS
threads, cores, numpy and BLAS versions, commit).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    lines = done.stdout.splitlines()
    env = next(json.loads(l.split(": ", 1)[1]) for l in lines if l.startswith("environment: "))
    result = json.loads(lines[-1])
    return {"seed": seed, "correct": result["correct"], "failed": result["failed"],
            "attempted": result["attempted"], "environment": env,
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, help="comma-separated seeds, used in turn")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--claim", action="append", default=[],
                   help="end-to-end metric of BENCHMARK.json whose gain this change "
                        "claims (repeatable)")
    args = p.parse_args(argv)
    if args.pairs < 2:
        p.error(f"--pairs must be at least 2 (quartiles need two runs a side), got {args.pairs}")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    known = [m["name"] for m in bench["end_to_end"]]
    unknown = [name for name in args.claim if name not in known]
    if unknown:
        p.error(f"--claim {', '.join(unknown)}: not an end-to-end metric "
                f"(one of {', '.join(known)})")
    seeds = [int(s) for s in args.seeds.split(",")]
    sides = {"parent": args.parent.resolve(), "change": ROOT}
    pairs = []
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(sides[side], args.workload, seed, args.seconds)
            print(f"pair {i + 1} seed {seed} {side}: {pair[side]['metrics']}", flush=True)
        pairs.append(pair)
    metrics = {}
    for m in bench["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        values = {s: [pr[s]["metrics"][name] for pr in pairs] for s in sides}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        parent, change = summary(values["parent"]), summary(values["change"])
        gap = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
        metrics[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent": {**parent, "runs": values["parent"]},
            "change": {**change, "runs": values["change"]},
            "change_over_parent": change["median"] / parent["median"],
            "wins": wins, "pairs": len(pairs),
            "gain_rule_holds": wins >= 0.9 * len(pairs) and gap > parent["iqr"],
            "claimed": name in args.claim,
        }
    out = {
        "workload": args.workload, "seconds": args.seconds, "seeds": seeds,
        "rule": "gain: change wins >= 9/10 of the pairs and the medians differ by "
                "more than the parent's interquartile range",
        "correct": all(pr[s]["correct"] for pr in pairs for s in sides),
        "environment": {s: pairs[0][s]["environment"] for s in sides},
        "metrics": metrics,
        "pairs": [{"seed": pr["seed"], "first": pr["first"],
                   **{s: pr[s]["metrics"] for s in sides}} for pr in pairs],
    }
    path = ROOT / f"BENCH_{args.workload}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"-> {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
