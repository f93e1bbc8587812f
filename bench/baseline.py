"""Summarize bench/results/ into bench/baseline.json.

    python3 bench/baseline.py

For every workload: the quartiles of each end-to-end metric over the
untraced runs found (one per seed), with the unscaled times alongside, the
failed fraction over those runs, the report digests of seed 0, and the
per-layer table (LOC included) of the seed-0 traced run.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> None:
    paths = sorted((BENCH / "results").glob("*.json"))
    runs = [json.loads(p.read_text()) for p in paths]
    out = {}
    for r in sorted(runs, key=lambda r: (r["workload"], r["seed"])):
        w = out.setdefault(r["workload"], {"why": r["why"], "seeds": [],
                                           "end_to_end": {}, "failed_frac": []})
        if r["trace"]:
            if r["seed"] == 0:
                w["per_layer_seed0"] = r["per_layer"]
                w["hooks_absent"] = r["hooks_absent"]
                w["hooks_not_entered"] = r["hooks_not_entered"]
            continue
        w["seeds"].append(r["seed"])
        w["failed_frac"].append(r["failed_frac"])
        for k, v in r["end_to_end"].items():
            w["end_to_end"].setdefault(k, []).append(v)
        for k, v in r["host_speed"].items():
            w["end_to_end"].setdefault(f"{k} at the host's speed", []).append(v)
        if r["seed"] == 0:
            w["digests_seed0"] = r["digests"]
    for w in out.values():
        for k, vals in w["end_to_end"].items():
            q1, med, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                           else [vals[0]] * 3)
            w["end_to_end"][k] = {"median": med, "q1": q1, "q3": q3,
                                  "iqr_over_median": (q3 - q1) / med,
                                  "values": vals}
        w["failed_frac"] = max(w["failed_frac"], default=0.0)
    (BENCH / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")
    for name, w in out.items():
        print(name, {k: round(v["median"], 4) for k, v in w["end_to_end"].items()},
              {k: round(v["iqr_over_median"], 4) for k, v in w["end_to_end"].items()})


if __name__ == "__main__":
    main()
