"""wittpoint benchmark: four seeded closed-loop workloads, one process each.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from the root of a checkout; the program is imported from its ``src``.
Each run uses fresh worker interpreters (``worker.py``), so every cache
starts cold.  Items come from an endless stream seeded by ``--seed``; none
runs twice in one process.  ``--trace 0`` measures the end-to-end
metrics.  Five fresh processes set the workload up, each making the first
items of its own part of the seeded stream; ``setup_s`` is the median of
their set-up times.  Another process makes the timed items, as many as the
workload runs in about ``--seconds`` / 2 reference seconds, and saves them.
Two passes, each a fresh process, then run the saved items, closed loop;
the first stops early if the items' times reach ``--seconds`` / 2, and the
second runs the items the first ran.  Each item counts at the lesser of
its two times (``summarize``), so a slow spell of the machine during one
pass does not count.  Times are CPU time, of the worker and of the CLI
processes it waits for (``worker.cpu_clock``), in reference seconds: scaled
by how fast the machine ran ``worker.reference_work`` at the time
(``speed_scales``).  ``--trace 1`` runs the workload's fixed number of items once
untraced and once under the span tracer, and reports the per-layer metrics
and the traced/untraced speed ratio.  ``--smoke`` runs the two passes on a
few items, with one set-up, for tests.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``.
``failed`` counts items with a wrong verdict or an unexpected exception.
On ``oracle_heights`` the planted items may be refused with
``FactorBoundExceeded``; those refusals are reported in ``fail_frac`` with
every other failure but are not wrong answers.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))
from worker import OUT, REFERENCE_S, REFERENCE_WINDOW  # noqa: E402

DEFAULT_SEEDS = {  # the acceptance seeds where a criterion runs the same load
    "witness_chains": 20260810,
    "polarization_pairs": 41,
    "oracle_heights": 1,
    "cli_oneshot": 7,
}
PASSES = 2  # fresh processes over the same items; each item counts at its least time
SETUPS = 5  # set-up processes, on parts 0 to 4 of the seeded stream
BUDGET_S = 170  # the whole run, set-ups included, must end well within 180 s

END_TO_END = [
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]


def per_layer_units() -> dict[str, str]:
    from tracer import SPAN_NAMES

    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.total_s"] = "s"
        units[f"{name}.self_s"] = "s"
    units.update({
        "core.factor.repeat_ratio": "ratio",
        "core.factor.fail_count": "count",
        "forms.diagonalize.distinct_ratio": "ratio",
        "witt.equivalent.diagonalize_per_call": "calls/call",
        "cobordism.form_height_ok.accept_ratio": "ratio",
        "hodge.is_polarization.per_compare": "calls/call",
        "cli.import_s": "s",
        "trace.items_per_s_ratio": "ratio",
    })
    return units


class WorkerFailed(RuntimeError):
    pass


def spawn(args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (its set-up time in reference seconds, its result)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)  # the worker puts the checkout's src first
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], stdout=subprocess.PIPE,
                            text=True, env=env, cwd=ROOT)
    timer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline().split()
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if len(line) != 3 or line[0] != "ready" or code != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited {code} (out of time or crashed)")
    lines = rest.strip().splitlines()
    setup_cpu_s, reference_s = float(line[1]), float(line[2])
    return setup_cpu_s * REFERENCE_S / reference_s, json.loads(lines[-1]) if lines else None


def percentile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile (q in (0, 1)): a mean of the
    order statistics weighted by the Beta(q(n+1), (1-q)(n+1)) density at the
    middle of each one's rank interval.  The items mix shapes of very
    different cost, and a single order statistic jumps between them when a
    quantile falls near a boundary; the weighted mean moves smoothly."""
    xs = sorted(values)
    n = len(xs)
    if not xs:
        return 0.0
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logw = [(a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(x - top) for x in logw]
    return sum(wi * x for wi, x in zip(w, xs)) / sum(w)


def speed_scales(reference: list[float]) -> list[float]:
    """For each item, REFERENCE_S over the mean time of the ``reference_work``
    calls made within REFERENCE_WINDOW items of it: how much faster than
    nominal the machine ran while that item ran."""
    n = len(reference)
    sums = list(itertools.accumulate(reference, initial=0.0))
    scales = []
    for i in range(n):
        lo, hi = max(0, i - REFERENCE_WINDOW), min(n, i + REFERENCE_WINDOW + 1)
        scales.append(REFERENCE_S * (hi - lo) / (sums[hi] - sums[lo]))
    return scales


def summarize(results: list[dict]) -> dict:
    """Item figures of passes over the same items, in reference seconds.  In
    each pass an item's time is its CPU seconds times its speed scale; the
    item then counts at the least of its times over the passes, and as
    correct only if every pass gave the correct verdict.  A slow spell of
    the machine only adds time, so it counts only where it hit every pass."""
    runs = [r["attempts"] for r in results]
    if any([a[0] for a in run] != [a[0] for a in runs[0]] for run in runs):
        raise WorkerFailed("the passes ran different items")
    passes = [[sec * k for (_, sec, _), k in zip(run, speed_scales(r["reference"]))]
              for run, r in zip(runs, results)]
    times = [min(ts) for ts in zip(*passes)]
    ok = [t for t, *tries in zip(times, *runs) if all(a[2] == "ok" for a in tries)]
    by_status: dict[str, int] = {}
    first: dict[str, dict] = {}
    for run, r in zip(runs, results):
        for _, _, status in run:
            if status != "ok":
                by_status[status] = by_status.get(status, 0) + 1
        for status, info in r["first"].items():
            first.setdefault(status, info)
    attempted = sum(len(run) for run in runs)
    return {
        "attempted": attempted,
        "correct": attempted - sum(by_status.values()),
        "failed": sum(by_status.values()) - by_status.get("refused", 0),
        "by_status": by_status,
        "first": first,
        "items": len(times),
        "correct_items": len(ok),
        "cpu_s": sum(r["timed_s"] for r in results),
        "timed_s": sum(times),
        "items_per_s": len(ok) / sum(times),
        "p50_ms": 1000 * percentile(ok, 0.5),
        "p90_ms": 1000 * percentile(ok, 0.9),
        "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in results) / 1024,
    }


def failures(s: dict) -> dict:
    """fail_frac counts every item without a correct verdict, refusals too."""
    failing = s["attempted"] - s["correct"]
    print(f"  fail_frac       {failing / s['attempted']:.6f}  ({failing} of {s['attempted']} "
          f"attempted; by type {json.dumps(s['by_status'], sort_keys=True)})")
    for status, info in sorted(s["first"].items()):
        print(f"  first {status}: attempt {info['attempt']}, seed index {info['seed_index']}: "
              f"{info['reason']}")
    return {"fail_frac": failing / s["attempted"], "attempted": s["attempted"],
            "by_type": s["by_status"], "first": s["first"]}


def measure(workload: str, seed: int, seconds: float, smoke: bool, deadline: float):
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    common = [workload, str(seed)]
    flags = ["--smoke"] if smoke else []
    setups = [spawn(common + ["setup", "0", "--part", str(part), *flags], deadline)[0]
              for part in range(1 if smoke else SETUPS)]
    count = w.smoke_items if smoke else math.ceil(seconds / PASSES * w.rate)
    saved = OUT / f"items-{os.getpid()}"
    saved.mkdir(parents=True, exist_ok=True)
    try:
        spawn(common + ["make", str(count), "--items", str(saved), *flags], deadline)
        results = []
        for k in range(PASSES):
            mode = ["pass", str(len(results[0]["attempts"]))] if k else ["time", repr(seconds / PASSES)]
            results.append(spawn(common + mode + ["--items", str(saved), *flags], deadline)[1])
    finally:
        shutil.rmtree(saved, ignore_errors=True)
    s = summarize(results)
    metrics = {
        "items_per_s": s["items_per_s"],
        "item_p50_ms": s["p50_ms"],
        "item_p90_ms": s["p90_ms"],
        "peak_rss_mb": s["peak_rss_mb"],
        "setup_s": statistics.median(setups),
    }
    samples = {
        "items_per_s": f"{s['correct_items']} of {s['items']} items correct in {PASSES} passes; "
                       f"{s['timed_s']:.3f} reference s of least item times "
                       f"({s['cpu_s']:.3f} CPU s in all passes)",
        "item_p50_ms": f"n={s['correct_items']}",
        "item_p90_ms": f"n={s['correct_items']}",
        "peak_rss_mb": ("cli processes" if workload == "cli_oneshot" else "worker process")
                       + f", median of {PASSES} passes",
        "setup_s": "median of " + ", ".join(f"{x:.4f}" for x in setups),
    }
    units = dict(END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:<15} {value:.6g} {units[name]}  ({samples[name]})")
    detail = failures(s)
    detail["samples"] = samples
    out = {"correct": s["failed"] == 0, "attempted": s["attempted"], "failed": s["failed"],
           "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    return out, detail


def measure_traced(workload: str, seed: int, smoke: bool, deadline: float):
    flags = ["--smoke"] if smoke else []
    _, plain = spawn([workload, str(seed), "pass", "0", *flags], deadline)
    _, traced = spawn([workload, str(seed), "pass", "0", "--trace", *flags], deadline)
    p, t = summarize([plain]), summarize([traced])
    per_layer = dict(traced["per_layer"])
    per_layer["trace.items_per_s_ratio"] = t["items_per_s"] / p["items_per_s"] if p["items_per_s"] else 0.0
    units = per_layer_units()
    print(f"  untraced pass   {p['items_per_s']:.6g} 1/s, traced pass {t['items_per_s']:.6g} 1/s "
          f"({p['attempted']} items each)")
    for name in units:
        print(f"  {name:<45} {per_layer[name]:.6g} {units[name]}")
    detail = failures(t)
    failed = p["failed"] + t["failed"]
    out = {"correct": failed == 0, "attempted": p["attempted"] + t["attempted"], "failed": failed,
           "metrics": {k: {"value": per_layer[k], "unit": u} for k, u in units.items()}}
    return out, detail


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "wittpoint" / "__init__.py").is_file():
        print(f"error: no wittpoint sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    seed = DEFAULT_SEEDS[args.workload] if args.seed is None else args.seed
    deadline = time.monotonic() + BUDGET_S
    print(f"workload {args.workload} seed {seed} seconds {args.seconds:g} trace {args.trace}"
          f"{' smoke' if args.smoke else ''}")
    try:
        if args.trace:
            out, detail = measure_traced(args.workload, seed, args.smoke, deadline)
        else:
            out, detail = measure(args.workload, seed, args.seconds, args.smoke, deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"detail": dict(detail, workload=args.workload, seed=seed)}))
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
