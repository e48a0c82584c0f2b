"""One benchmark process: set up a workload from its seed, then run its items.

    python3 perfbench/worker.py WORKLOAD SEED MODE ARG [--part K] [--items DIR] [--trace] [--smoke]

Set-up imports the program and makes the first items of part K (default 0)
of the workload's seeded stream, or, with ``--items``, loads the items saved
in DIR.  The worker then prints ``ready``, the CPU seconds it has used since
it started (its set-up time), and the mean time of the ``reference_work``
calls it made after each item, which are left out of that time.

MODE ``setup`` exits there, and ``make`` makes ARG items instead and saves
them, with the files they name, in DIR.  ``time`` runs the saved items in a
closed loop until they run out or their times, in reference seconds, add up
to ARG seconds.  ``pass`` runs the first ARG items (0: the workload's fixed
pass size), so counts repeat exactly; without ``--items`` it makes them
from the seeded stream between timed items, with the clock stopped, so that
a traced pass also sees the generators.

Times are CPU seconds of this process and of the processes it waited for
(``cpu_clock``): the program is single-threaded and never waits, so on an
idle machine that equals wall time, and on a shared host it leaves out the
time other tenants held the core.  After each item, also with the item
clock stopped, the worker times one ``reference_work`` call; the parent
scales each time by the machine's speed measured so.  The last stdout line
is a JSON result.  With ``--trace`` the span tracer is installed before
set-up and the per-layer metrics are included.
"""

from __future__ import annotations

import json
import os
import pickle
import resource
import shutil
import statistics
import sys
import time
from collections import deque
from fractions import Fraction
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
ITEMS_FILE = "items.pickle"


def cpu_clock() -> float:
    """CPU seconds used by this process and by its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


REFERENCE_S = 0.0021  # nominal CPU seconds of reference_work(); 1.6-2.8 ms on the machine of README.md
REFERENCE_WINDOW = 10  # an item is scaled by the reference calls within this many items of it

_REF_A = [[Fraction((3 * i + 5 * j) % 7 - 3, 1 + (i + 2 * j) % 4) for j in range(6)] for i in range(6)]
_REF_B = [[Fraction((2 * i + j) % 5 - 2, 1 + (i * j) % 3) for j in range(6)] for i in range(6)]


def reference_work() -> int:
    """A fixed pure-Python load with the program's own instruction mix: a
    product and a Gauss-Jordan elimination of small-entry Fraction matrices,
    then trial division by 6k +- 1 up to 10^4.  It never calls wittpoint, so
    only the machine changes its time, never a change to the program."""
    a = [[sum(x * y for x, y in zip(row, col)) for col in zip(*_REF_B)] for row in _REF_A]
    r = 0
    for c in range(6):
        pivot = next((i for i in range(r, 6) if a[i][c]), None)
        if pivot is None:
            continue
        a[r], a[pivot] = a[pivot], a[r]
        inv = a[r][c]
        a[r] = [x / inv for x in a[r]]
        for i in range(6):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    n, d, found = 10007 * 10009, 5, 0
    while d * d <= n:
        for p in (d, d + 2):
            while n % p == 0:
                n //= p
                found += 1
        d += 6
    return r + found


def main(argv: list[str]) -> int:
    workload, seed, mode, arg = argv[0], int(argv[1]), argv[2], float(argv[3])
    trace, smoke = "--trace" in argv, "--smoke" in argv
    part = int(argv[argv.index("--part") + 1]) if "--part" in argv else 0
    saved = Path(argv[argv.index("--items") + 1]) if "--items" in argv else None
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    w = WORKLOADS[workload]
    prefill = w.smoke_items if smoke else w.setup_items
    pass_items = w.smoke_items if smoke else w.pass_items
    tracer = None
    import_times = []
    if trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        import_times.append(tracer.install())
    workdir = saved or OUT / f"work-{os.getpid()}"
    try:
        if mode == "make":
            make_items(w.stream(seed, workdir, part), int(arg), saved / ITEMS_FILE)
            items, prefill = iter(()), 0
        elif saved is not None:
            items, prefill = load_items(saved / ITEMS_FILE), 0
        else:
            items = w.stream(seed, workdir, part)
        pool, reference = deque(), []
        for item in islice(items, prefill):
            pool.append(item)
            t0 = cpu_clock()
            reference_work()
            reference.append(cpu_clock() - t0)
        setup_s = cpu_clock() - sum(reference)
        while len(reference) < REFERENCE_WINDOW:  # too few items to measure the machine by
            t0 = cpu_clock()
            reference_work()
            reference.append(cpu_clock() - t0)
        print(f"ready {setup_s:.6f} {statistics.fmean(reference):.9f}", flush=True)
        if mode in ("setup", "make"):
            return 0
        if mode == "pass":
            limit, seconds = int(arg) or pass_items, None
        else:
            limit, seconds = None, arg
        result = run_items(workload, w.run, pool, items, limit, seconds, tracer, import_times)
    finally:
        if saved is None:
            shutil.rmtree(workdir, ignore_errors=True)
    child_spans = result.pop("child_spans")
    if tracer is not None:
        tracer.uninstall()
        spans = tracing.merge([tracer.spans] + child_spans)
        per_layer = tracing.aggregate(spans)
        per_layer["cli.import_s"] = statistics.median(import_times)
        result["per_layer"] = per_layer
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{workload}-{seed}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "item", "note"],
                        "spans": spans}, separators=(",", ":")))
    who = resource.RUSAGE_CHILDREN if workload == "cli_oneshot" else resource.RUSAGE_SELF
    result["peak_rss_kb"] = resource.getrusage(who).ru_maxrss
    print(json.dumps(result))
    return 0


def make_items(items, count: int, path: Path) -> None:
    """Save the first ``count`` items, one pickle each, as they are made."""
    with open(path, "wb") as f:
        for item in islice(items, count):
            pickle.dump(item, f, pickle.HIGHEST_PROTOCOL)


def load_items(path: Path):
    """The saved items, loaded one at a time, so the worker holds no more
    of them than a worker that makes its items."""
    with open(path, "rb") as f:
        while True:
            try:
                yield pickle.load(f)
            except EOFError:
                return


def run_items(workload, run, pool, items, limit, seconds, tracer, import_times) -> dict:
    """Run items until ``limit`` of them have run, or, without a limit, until
    they run out or their run times, in reference seconds, add up to
    ``seconds``."""
    from wittpoint.core import FactorBoundExceeded

    attempts = []  # [seed index, seconds, status]
    reference = []  # seconds of each reference_work() call
    first = {}  # status -> first failing item of that kind
    child_spans = []
    clock = cpu_clock
    timed = 0.0
    scaled = 0.0  # timed, in reference seconds by the last REFERENCE_WINDOW calls
    k = 0
    while True:
        if not pool:
            if tracer is not None:
                tracer.item = -1
            pool.extend(islice(items, 1))
            if not pool:
                break
        item = pool.popleft()
        trace_out = None
        if tracer is not None:
            tracer.item = k
            if workload == "cli_oneshot":
                trace_out = str(OUT / f"spans-{os.getpid()}.json")
        t0 = clock()
        try:
            reason = run(item, trace_out) if trace_out else run(item)
            status = "ok" if reason is None else "wrong_verdict"
        except FactorBoundExceeded as exc:
            reason = str(exc)
            status = "refused" if item.planted else type(exc).__name__
        except Exception as exc:  # every raised verdict is counted and reported
            reason = f"{type(exc).__name__}: {exc}"
            status = type(exc).__name__
        t1 = clock()
        reference_work()
        reference.append(clock() - t1)
        timed += t1 - t0
        recent = reference[-REFERENCE_WINDOW:]
        scaled += (t1 - t0) * REFERENCE_S * len(recent) / sum(recent)
        attempts.append([item.index, t1 - t0, status])
        if status != "ok" and status not in first:
            first[status] = {"attempt": k, "seed_index": item.index, "reason": reason[:500]}
        if trace_out and os.path.exists(trace_out):
            doc = json.loads(Path(trace_out).read_text())
            os.unlink(trace_out)
            import_times.append(doc["import_s"])
            for span in doc["spans"]:
                span[4] = k
            child_spans.append(doc["spans"])
        k += 1
        if k == limit or (limit is None and scaled >= seconds):
            break
    return {"timed_s": timed, "attempts": attempts, "first": first, "child_spans": child_spans,
            "reference": reference}


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
