"""Record the benchmark's baseline and check that it is steady.

    python3 perfbench/baseline.py                      # every workload, seeds 1..10
    python3 perfbench/baseline.py --workloads week --seeds 1,2,3,4,5 --out b.json
    python3 perfbench/baseline.py --out second.json --against perfbench/baseline.json

Run from the root of a checkout.  For each workload the benchmark runs
once per seed untraced (one process at a time).  Each end-to-end
metric gets its median, quartiles and spread -- the distance between
the quartiles as a share of the median -- which must stay below a
third of the metric's bound in ``BENCHMARK.json``.  The first seed then runs a second time,
and its determinism digest must repeat; every seed's digest must
differ from the others'.  Last comes one traced run on the first seed
for the per-layer split.  With ``--against``, each median must also be
no worse than the same median in an earlier baseline file by more than
the metric's bound.  The result is written as JSON to ``--out``; the
exit code is 1 if any check failed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workloads run.py measures that BENCHMARK.json does not gate (see
#: README.md for why).  They are measured the same way; their spreads
#: and medians are recorded under ``ungated`` instead of ``failures``.
UNGATED = ("broadcast",)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["digest"] = next(l.split()[1] for l in lines if l.startswith("digest "))
    result["env"] = json.loads(next(l[4:] for l in lines if l.startswith("env ")))
    result["report"] = lines[:-1]
    return result


def parse_seeds(text: str) -> List[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def summarize(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def layer_split(metrics: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Share of the traced wall time per layer, largest first."""
    self_s = {
        name[: -len(".self_s")]: entry["value"]
        for name, entry in metrics.items()
        if name.endswith(".self_s")
    }
    wall = sum(self_s.values())
    shares = {layer: round(s / wall, 4) for layer, s in self_s.items() if s > 0}
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))


def hot_spots(metrics: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """Shares of the traced wall time in the known storm hot spots: DRBG
    padding draws, churn repair, and RSA."""
    value = {name: entry["value"] for name, entry in metrics.items()}
    wall = sum(v for name, v in value.items() if name.endswith(".self_s"))
    return {
        "HmacDrbg.generate": round(value["crypto.drbg.self_s"] / wall, 4),
        "ChannelOverlay.remove_peer (inclusive)": round(
            value["p2p.overlay.remove_peer_incl_s"] / wall, 4
        ),
        "crypto.rsa (self, DRBG excluded)": round(value["crypto.rsa.self_s"] / wall, 4),
    }


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    gated = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(gated + list(UNGATED)))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", default=str(HERE / "baseline.json"))
    parser.add_argument("--against", help="an earlier baseline file to compare medians with")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.against).read_text())["workloads"] if args.against else {}

    failures: List[str] = []
    ungated: List[str] = []
    baseline: Dict[str, object] = {"seeds": seeds, "seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        unsteady = failures if workload in gated else ungated
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, trace=0)
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"digest={result['digest']} " + " ".join(
                      f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} seed {seed}: correct={result['correct']}, "
                                f"{result['failed']} failed")
        baseline["env"] = runs[0]["env"]
        metrics = {}
        for name in runs[0]["metrics"]:
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = summary
            if summary["spread"] >= bounds[name] / 3:
                unsteady.append(f"{workload} {name}: spread {summary['spread']:.3f} "
                                f">= a third of its bound {bounds[name]}")
            if workload in earlier:
                before = earlier[workload]["end_to_end"][name]["median"]
                change = summary["median"] / before - 1
                summary["change_vs_against"] = change
                worse = change if better[name] == "lower" else -change
                if worse > bounds[name]:
                    unsteady.append(f"{workload} {name}: median {summary['median']:.4g} is "
                                    f"{worse:.3f} worse than {before:.4g}, beyond its bound "
                                    f"{bounds[name]}")
        repeat = run_once(workload, seeds[0], args.seconds, trace=0)
        digests = {str(r_seed): r["digest"] for r_seed, r in zip(seeds, runs)}
        if repeat["digest"] != runs[0]["digest"]:
            failures.append(f"{workload}: seed {seeds[0]} digest did not repeat")
        if len(set(digests.values())) != len(seeds):
            failures.append(f"{workload}: two seeds gave the same digest")
        traced = run_once(workload, seeds[0], args.seconds, trace=1)
        if not traced["correct"]:
            failures.append(f"{workload}: traced run failed its checks")
        baseline["workloads"][workload] = {
            "end_to_end": metrics,
            "digests": digests,
            "digest_repeats": repeat["digest"] == runs[0]["digest"],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "traced": {
                "seed": seeds[0],
                "correct": traced["correct"],
                "layer_share": layer_split(traced["metrics"]),
                "hot_spots": hot_spots(traced["metrics"]),
                "metrics": {k: v["value"] for k, v in traced["metrics"].items()},
            },
        }
        print(json.dumps(baseline["workloads"][workload]["end_to_end"], indent=1), flush=True)
    baseline["failures"] = failures
    baseline["ungated"] = ungated
    Path(args.out).write_text(json.dumps(baseline, indent=2) + "\n")
    for note in ungated:
        print(f"UNGATED: {note}")
    for failure in failures:
        print(f"FAILED: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
