"""Benchmark for dworksum: cold per-call wall time, set-up, memory and
failures on four seeded workloads, plus an outside-in traced run per module.

    python3 bench/run.py --workload kl-check --seed 0 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from ``src/``.

How a call is run.  Every job x command call runs in a fresh worker process
(``bench/worker.py``), one at a time, with the command line's default of one
worker.  Fresh processes matter: ``padic`` keeps module-level caches, and a
second call in one process would skip set-up that a command-line user pays.

A pass runs every call of the workload once.  The run first makes one
unmeasured warm-up pass and enough set-up-only passes for SETUP_CALLS calls,
then repeats timed passes while the next one is expected to end within
``--seconds`` of the run's start (at least one).  With ``--trace 1``
untraced and traced passes alternate, at least one of each.

End-to-end metrics (``--trace 0``):

* ``setup_s``     -- worker spawn to a validated job (import of dworksum.cli
  and numpy, one cli.JobConfig), summed over a pass's calls; the median over
  the set-up-only and timed passes;
* ``wall_s``      -- cli.run plus cli.render_report, summed over a pass's
  calls; the median over the timed passes;
* ``peak_rss_mb`` -- the highest ru_maxrss of any worker in a pass; the
  median over the timed passes.

Both times are given at a reference speed.  On a shared host the speed of
pure-Python code swings by a factor of 1.5 within seconds, and its average
drifts from one hour to the next.  So each worker times a fixed integer loop
every 10 ms (worker.SpeedProbe), and each set-up or call time is scaled by
PROBE_REF_S over the loop's median time during it.  The unscaled times are
printed alongside and kept in the results file.

A call fails if it raises or is refused, if ``check`` reports all_pass
false, if ``lfunction`` or ``trace`` reports routes_agree false at the top
level or on any level, if ``sums`` reports agree false on any level, or if
its report bytes differ between passes of the run (traced passes included,
so tracing must not change a report).  ``failed_frac`` is printed on every
run and is a per-layer metric; it is 0 on a healthy program, so it cannot be
a bounded end-to-end metric.  The SHA-256 of every report is written to the
results file, so a change that alters report bytes is visible.

Per-layer metrics (``--trace 1``) come from bench/tracer.py, with times at
the reference speed too.  The traced run also prints the hook-coverage
report: hooks whose target no longer exists (their metrics read -1) and
hooks on the workload's path that were never entered.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Everything the run measured, including
spans of the last traced pass, goes to bench/results/.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src" / "dworksum"
sys.path.insert(0, str(BENCH))

from tracer import HOOK_NAMES, MODULES as LAYERS  # noqa: E402

SETUP_CALLS = 12  # set-up-only calls per run, rounded up to whole passes
RUN_LIMIT_S = 170  # a run must end within 180 s
# the probe loop's time at the reference speed (worker.SpeedProbe); about its
# fastest median on a 2-vCPU 2.0 GHz Xeon VM
PROBE_REF_S = 150e-6

JOBS = {
    "kloosterman_p5": ROOT / "jobs" / "kloosterman_p5.json",
    "twist_p5": ROOT / "jobs" / "twist_p5.json",
    "square_p3": ROOT / "jobs" / "square_p3.json",
    "hyp_twist_p5f2": BENCH / "jobs" / "hyp_twist_p5f2.json",
}


class Workload:
    def __init__(self, calls, why, off_path):
        self.calls = calls  # [(command, job name)]
        self.why = why
        self.off_path = set(off_path)  # hooks this workload never enters


WORKLOADS = {
    "kl-check": Workload(
        [("check", "kloosterman_p5"), ("check", "twist_p5")],
        "series side: dwork.h_series is about 70 % of self time (i_cut 1250 "
        "at m = 3), then both sum oracles; twist_p5 is the only sample job "
        "with gamma != 0",
        ["lfunction.hyp_table", "lfunction.newton_polygon",
         "padic.char_series_division_free"],
    ),
    "square-lfunction": Workload(
        [("lfunction", "square_p3")],
        "torus side: the character oracle with its per-point "
        "finitefield.absolute_trace_int is ~90 % of the time, mostly at "
        "levels m = 3..5 that exist only for recognition",
        ["lfunction.hyp_table", "lfunction.sums_oracle_series", "dwork.trace",
         "polytope.nondegeneracy_check", "padic.char_series_division_free"],
    ),
    "operator": Workload(
        [("trace", "square_p3"), ("charpoly", "square_p3"),
         ("charpoly", "kloosterman_p5"), ("charpoly", "twist_p5")],
        "matrix side: the dwork.DworkMatrix build dominates; both "
        "characteristic-series paths (clow prefix at dim 289, Berkowitz at "
        "dims 31 and 16), no torus enumeration",
        ["lfunction.sums_oracle_characters", "lfunction.sums_oracle_series",
         "lfunction.l_series_from_sums", "lfunction.l_from_charseries",
         "lfunction.rational_recognition", "lfunction.newton_polygon",
         "lfunction.hyp_table", "finitefield.absolute_trace_int",
         "finitefield.multiplicative_generator", "finitefield.embed",
         "padic.ring_embed", "padic.ring_restrict",
         "polytope.nondegeneracy_check"],
    ),
    "hyp-grid": Workload(
        [("hyp", "hyp_twist_p5f2")],
        "625 small character sums of 24 points each over F_25 with a seeded "
        "twist: per-call field and Teichmueller set-up competes with the "
        "point loop; the only workload with f > 1",
        ["lfunction.sums_oracle_series", "lfunction.l_series_from_sums",
         "lfunction.l_from_charseries", "lfunction.rational_recognition",
         "lfunction.newton_polygon", "dwork.h_series", "dwork.precision_cut",
         "dwork.DworkMatrix", "dwork.SeriesOnCone.coeff", "dwork.trace",
         "dwork.char_series", "padic.splitting_coefficients",
         "padic.matmul_mod", "padic.encode_ring_matrix",
         "padic.char_series_division_free", "padic.ring_embed",
         "polytope.enumerate_points", "polytope.nondegeneracy_check"],
    ),
}

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB")]


def _self_s(name):
    return (f"{name}.self_s", "s", "lower")


def _calls(name):
    return (f"{name}.calls", "count", "lower")


# (name, unit, better); the hook a metric reads is the longest hook name that
# prefixes it
PER_LAYER = [
    _self_s("lfunction.sums_oracle_characters"),
    _calls("lfunction.sums_oracle_characters"),
    ("lfunction.sums_oracle_characters.points", "count", "lower"),
    ("lfunction.recognition_points_share", "frac", "lower"),
    _self_s("lfunction.sums_oracle_series"),
    ("lfunction.sums_oracle_series.points", "count", "lower"),
    _self_s("lfunction.l_series_from_sums"),
    _self_s("lfunction.l_from_charseries"),
    _self_s("lfunction.rational_recognition"),
    _self_s("lfunction.newton_polygon"),
    _self_s("lfunction.hyp_table"),
    _self_s("dwork.h_series"),
    _calls("dwork.h_series"),
    ("dwork.h_series.support", "count", "lower"),
    ("dwork.h_series.i_cut", "count", "lower"),
    ("dwork.h_series.useful_ratio", "frac", "higher"),
    _self_s("dwork.DworkMatrix"),
    ("dwork.basis_dim", "count", "lower"),
    _calls("dwork.SeriesOnCone.coeff"),
    _self_s("dwork.trace.matrix_power"),
    _self_s("dwork.trace.level_m_series"),
    _self_s("dwork.char_series"),
    _calls("padic.mul_coords"),
    _self_s("padic.splitting_coefficients"),
    _self_s("padic.teichmueller"),
    _calls("padic.teichmueller"),
    _calls("padic.ring_embed"),
    _self_s("padic.ring_restrict"),
    _self_s("padic.matmul_mod"),
    _calls("padic.matmul_mod"),
    ("padic.matmul_mod.madds", "count", "lower"),
    _self_s("padic.encode_ring_matrix"),
    _self_s("padic.char_series_division_free"),
    _calls("finitefield.absolute_trace_int"),
    _self_s("finitefield.absolute_trace_int"),
    _self_s("finitefield.multiplicative_generator"),
    _self_s("finitefield.min_irreducible_poly"),
    _self_s("finitefield.embed"),
    _calls("polytope.NewtonData.weight"),
    _self_s("polytope.enumerate_points"),
    ("polytope.enumerate_points.points", "count", "lower"),
    _self_s("polytope.nondegeneracy_check"),
    _self_s("polytope.newton_data"),
    _self_s("polytope.normalized_volume"),
    _self_s("cli.JobConfig"),
    _self_s("cli.render_report"),
    _self_s("cli.run"),
    *[(f"{m}.errors", "count", "lower") for m in LAYERS if m != "gkz"],
    *[(f"{m}.loc", "lines", "lower") for m in LAYERS],
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.missing_hooks", "count", "lower"),
    ("failed_frac", "frac", "lower"),
]


# ----------------------------------------------------------------------
# seeded jobs
# ----------------------------------------------------------------------

def make_job(name: str, seed: int) -> dict:
    """Seed 0 gives the committed job; other seeds draw every a_j from F_q^*
    (a zero coefficient would change the Newton polytope), and for the hyp
    job the twist exponent k from 0..q-2 (the cone of [[1, -1]] is the whole
    line, so every k is valid)."""
    raw = json.loads(JOBS[name].read_text())
    if seed == 0:
        return raw
    rng = random.Random(f"{name}:{seed}")
    p, f = raw["p"], raw.get("f", 1)
    if name == "hyp_twist_p5f2":
        raw["gamma_k"] = [rng.randrange(p**f - 1) for _ in raw["gamma_k"]]
        return raw

    def unit():
        while True:
            v = [rng.randrange(p) for _ in range(f)]
            if any(v):
                return v[0] if f == 1 else v

    raw["a"] = [unit() for _ in raw["a"]]
    return raw


# ----------------------------------------------------------------------
# workers and passes
# ----------------------------------------------------------------------

class RunTimeout(Exception):
    pass


def spawn(command, job, mode, trace, deadline) -> dict:
    request = {"root": str(ROOT), "command": command, "job": job,
               "mode": mode, "trace": trace}
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py")],
            input=json.dumps(request), capture_output=True, text=True,
            cwd=ROOT, timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired:
        raise RunTimeout(f"{command} did not finish before the run limit")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"status": "raised", "failures": [proc.stderr.strip()[-2000:]]}
    res = json.loads(lines[-1])
    if "ready" in res:
        res["setup_raw_s"] = res.pop("ready") - start
        res["setup_s"] = res["setup_raw_s"] * PROBE_REF_S / res["setup_probe_s"]
    if "wall_s" in res:
        res["wall_raw_s"] = res["wall_s"]
        res["wall_s"] = res["wall_raw_s"] * PROBE_REF_S / res["call_probe_s"]
    return res


def run_pass(calls, jobs, mode, trace, deadline) -> dict:
    results = [spawn(cmd, jobs[job], mode, trace, deadline) for cmd, job in calls]
    total = {k: sum(r.get(k, 0.0) for r in results)
             for k in ("setup_s", "setup_raw_s", "wall_s", "wall_raw_s")}
    return {
        "mode": mode,
        "trace": trace,
        **total,
        "peak_rss_mb": max((r["peak_rss_mb"] for r in results
                            if "peak_rss_mb" in r), default=0.0),
        "calls": results,
    }


def judge(workload: Workload, passes: list[dict]) -> tuple[int, int, list[str]]:
    """attempted and failed calls over the timed passes, and why."""
    attempted = failed = 0
    reasons = []
    first_digest = {}
    for k, ps in enumerate(passes):
        for (cmd, job), res in zip(workload.calls, ps["calls"]):
            attempted += 1
            why = [] if res["status"] == "ok" else [res["status"]]
            why += res["failures"]
            d = res.get("digest")
            if d is not None:
                ref = first_digest.setdefault((cmd, job), d)
                if d != ref:
                    why.append("report bytes differ from the run's first pass")
            if why:
                failed += 1
                reasons.append(f"pass {k} {cmd} {job}: " + "; ".join(why))
    return attempted, failed, reasons


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------

def loc() -> dict:
    return {f"{m}.loc": len((SRC / f"{m}.py").read_text().splitlines())
            for m in LAYERS}


def layer_values(ps: dict) -> tuple[dict, set, dict]:
    """Per-layer metrics of one traced pass, the hooks it entered, and the
    inclusive seconds of every span name.  Times are at the reference speed,
    like wall_s."""
    calls, self_ns, total_ns, counts, errors = {}, {}, {}, {}, {}
    h_distinct = 0
    for res in ps["calls"]:
        tr = res.get("trace")
        if tr is None:
            continue
        speed = PROBE_REF_S / res["call_probe_s"]
        for src, dst, scale in ((tr["calls"], calls, 1), (tr["errors"], errors, 1),
                                (tr["self_ns"], self_ns, speed),
                                (tr["total_ns"], total_ns, speed)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v * scale
        for k, v in tr["counts"].items():
            if k in ("dwork.h_series.i_cut", "dwork.basis_dim"):
                counts[k] = max(counts.get(k, 0), v)
            else:
                counts[k] = counts.get(k, 0) + v
        h_distinct += tr["h_series_distinct"]
    entered = {h for h in HOOK_NAMES
               if any(v for n, v in calls.items() if n == h or n.startswith(h + "."))}
    vals = {}
    for name, _, _ in PER_LAYER:
        if name.endswith(".self_s"):
            vals[name] = self_ns.get(name[:-7], 0) / 1e9
        elif name.endswith(".calls"):
            vals[name] = calls.get(name[:-6], 0)
        elif name.endswith(".errors"):
            vals[name] = errors.get(name[:-7], 0)
        else:
            vals[name] = counts.get(name, 0)
    pts = counts.get("lfunction.sums_oracle_characters.points", 0)
    vals["lfunction.recognition_points_share"] = (
        counts.get("lfunction.recognition_points", 0) / pts if pts else 0.0
    )
    h_calls = calls.get("dwork.h_series", 0)
    vals["dwork.h_series.useful_ratio"] = h_distinct / h_calls if h_calls else 0.0
    return vals, entered, {k: v / 1e9 for k, v in total_ns.items()}


# derived metrics whose name does not start with the hook they read
DERIVED_FROM = {
    "lfunction.recognition_points_share": "lfunction.sums_oracle_characters",
    "dwork.h_series.i_cut": "dwork.precision_cut",
    "dwork.basis_dim": "dwork.DworkMatrix",
}


def hook_of(metric: str):
    if metric in DERIVED_FROM:
        return DERIVED_FROM[metric]
    best = None
    for h in HOOK_NAMES:
        if metric.startswith(h + ".") and (best is None or len(h) > len(best)):
            best = h
    return best


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------

def median(xs):
    return statistics.median(xs) if xs else 0.0


def measure(workload: Workload, seed: int, seconds: int, trace: bool) -> dict:
    start = time.monotonic()
    hard_deadline = start + RUN_LIMIT_S
    jobs = {job: make_job(job, seed) for _, job in workload.calls}
    run_pass(workload.calls, jobs, "setup", False, hard_deadline)  # warm-up
    n_setup = -(-SETUP_CALLS // len(workload.calls))
    setup_passes = [run_pass(workload.calls, jobs, "setup", False, hard_deadline)
                    for _ in range(n_setup)]
    passes = []
    while True:
        traced = trace and len(passes) % 2 == 1
        t0 = time.monotonic()
        passes.append(run_pass(workload.calls, jobs, "call", traced, hard_deadline))
        last = time.monotonic() - t0
        enough = not trace or len(passes) >= 2
        if enough and time.monotonic() - start + last > seconds:
            break
    return {"jobs": jobs, "setup_passes": setup_passes, "passes": passes}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    missing = [str(p) for p in [SRC / "cli.py", *JOBS.values()] if not p.is_file()]
    if missing:
        print("benchmark inputs missing: " + ", ".join(missing), file=sys.stderr)
        return 1

    workload = WORKLOADS[args.workload]
    try:
        data = measure(workload, args.seed, args.seconds, bool(args.trace))
    except RunTimeout as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup_bad = [f"set-up {r['status']}: " + "; ".join(r["failures"])
                 for ps in data["setup_passes"] for r in ps["calls"]
                 if r["status"] != "ok"]
    passes = data["passes"]
    untraced = [ps for ps in passes if not ps["trace"]]
    traced = [ps for ps in passes if ps["trace"]]
    attempted, failed, reasons = judge(workload, passes)
    reasons = setup_bad + reasons
    failed_frac = failed / attempted

    setup_passes = data["setup_passes"] + passes
    setup_samples = [ps["setup_s"] for ps in setup_passes]
    e2e = {
        "setup_s": median(setup_samples),
        "wall_s": median([ps["wall_s"] for ps in untraced]),
        "peak_rss_mb": median([ps["peak_rss_mb"] for ps in untraced]),
    }
    raw = {
        "setup_s": median([ps["setup_raw_s"] for ps in setup_passes]),
        "wall_s": median([ps["wall_raw_s"] for ps in untraced]),
    }
    print(f"workload {args.workload} seed {args.seed}: {workload.why}")
    for _, job in workload.calls:
        print(f"  job {job}: a = {data['jobs'][job]['a']}, "
              f"gamma_k = {data['jobs'][job]['gamma_k']}")
    print(f"  setup_s     {e2e['setup_s']:.4f} s   "
          f"(median of {len(setup_samples)} passes; {raw['setup_s']:.4f} s "
          f"at the host's speed)")
    print(f"  wall_s      {e2e['wall_s']:.4f} s   "
          f"(median of {len(untraced)} untraced passes; {raw['wall_s']:.4f} s "
          f"at the host's speed)")
    print(f"  peak_rss_mb {e2e['peak_rss_mb']:.1f} MB")
    print(f"  failed_frac {failed_frac:.4f} frac ({failed} of {attempted} calls)")
    for r in reasons:
        print(f"  FAILED {r}")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "why": workload.why, "jobs": data["jobs"],
        "end_to_end": e2e, "host_speed": raw, "failed_frac": failed_frac,
        "failures": reasons,
        "digests": [{"command": c, "job": j, "sha256": r.get("digest")}
                    for (c, j), r in zip(workload.calls, passes[0]["calls"])],
        "setup_samples": setup_samples,
        "wall_samples": [ps["wall_s"] for ps in untraced],
        "wall_raw_samples": [ps["wall_raw_s"] for ps in untraced],
    }
    for d in record["digests"]:
        print(f"  report {d['command']} {d['job']} sha256 {d['sha256']}")

    if args.trace:
        per_pass = [layer_values(ps) for ps in traced]
        entered = set().union(*(e for _, e, _ in per_pass))
        absent = sorted(set().union(*(
            r["trace"]["absent"] for ps in traced for r in ps["calls"]
            if "trace" in r)))
        not_entered = sorted(set(HOOK_NAMES) - entered - workload.off_path
                             - set(absent))
        layers = {name: median([v[name] for v, _, _ in per_pass])
                  for name, _, _ in PER_LAYER}
        for name in layers:
            if hook_of(name) in absent:
                layers[name] = -1
        layers.update(loc())
        t_wall = median([ps["wall_s"] for ps in traced])
        layers["trace.overhead_frac"] = t_wall / e2e["wall_s"] - 1
        layers["trace.missing_hooks"] = len(absent) + len(not_entered)
        layers["failed_frac"] = failed_frac
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
        print(f"  hook coverage: absent {absent or 'none'}; "
              f"on path but never entered {not_entered or 'none'}")
        ranked = sorted(((v, k) for k, v in layers.items()
                         if k.endswith(".self_s")), reverse=True)
        total = sum(v for v, _ in ranked) or 1.0
        inclusive = {k: median([i.get(k, 0.0) for _, _, i in per_pass])
                     for k in set().union(*(i for _, _, i in per_pass))}
        print(f"  traced wall_s {t_wall:.4f} s, overhead "
              f"{layers['trace.overhead_frac']:+.3f}; self time by layer, "
              f"inclusive time alongside:")
        for v, k in ranked:
            if v > 0:
                print(f"    {k:48s} {v:9.4f} s {100 * v / total:5.1f} %"
                      f"   incl {inclusive.get(k[:-7], 0.0):9.4f} s")
        for name, unit, _ in PER_LAYER:
            if not name.endswith(".self_s"):
                print(f"    {name:48s} {layers[name]:g} {unit}")
        record.update(per_layer=layers, hooks_absent=absent,
                      hooks_not_entered=not_entered,
                      spans=[r["trace"]["spans"] for r in traced[-1]["calls"]
                             if "trace" in r])
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END}

    out_dir = BENCH / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": failed == 0 and not setup_bad,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
