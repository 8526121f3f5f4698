"""What the garbage collector costs one engine run, in fresh interpreters.

    python3 tools/collector.py v2 --p 2 --max-degree 100000 --repeats 3
    python3 tools/collector.py v0 --p 2 --n 3 --max-degree 1000 --gc on

A case is named as `bockstein run` names it (kind, --p, --n, --m,
--max-degree, --localized, --variant, --page-cap), but it is not held to
the CLI's size limit (engine.MAX_COST), so that runs far above it can be
measured.  Each repeat starts two fresh interpreters on the case, one with
the collector on and one under gc.disable(), alternating which goes first.
Each builds the case's algebra and schedule, collects until nothing more is
untracked, then times engine.run alone, and reports:

- run_s, the run's seconds, and gc_s, the seconds of its collections, timed
  from their start and stop callbacks (gc.callbacks);
- collections, the run's collections by generation;
- tracked, the objects the pages the run returns hold tracked after one
  full collection, and settled, after full collections repeated until the
  count stops falling; both per kept A-degree too.  CPython untracks a
  tuple of untracked items only when a collection sees it, and a
  collection sees a container before what it holds, so each one untracks
  one more level of nested tuples.  The tower profile is dropped before the
  count: it is the run's answer, not its state;
- peak_rss_mb, the interpreter's own peak resident set (ru_maxrss).

With --gc on or off the script is one such interpreter and prints its own
record.  Otherwise it prints one JSON line: the case, the medians of the
repeats for each side, the ratio of their run medians and every record.
It measures only the processes it starts.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

SRC = Path(__file__).resolve().parents[1] / "src"
# full collections, at most, until the tracked count stops falling: a run's
# state nests tuples five deep (bars, bar, cell, reps, row)
SETTLE = 10


def _settled() -> int:
    """The objects tracked once full collections untrack no more."""
    count = None
    for _ in range(SETTLE):
        gc.collect()
        now = len(gc.get_objects())
        if now == count:
            break
        count = now
    return count


def _case_args(args) -> list:
    out = [args.kind, "--p", str(args.p), "--max-degree", str(args.max_degree)]
    for flag, value in (("--n", args.n), ("--m", args.m), ("--variant", args.variant),
                        ("--page-cap", args.page_cap)):
        if value is not None:
            out += [flag, str(value)]
    return out + (["--localized"] if args.localized else [])


def measure(args) -> dict:
    """One run of the case in this interpreter, the collector on or off."""
    sys.path.insert(0, str(SRC))
    from bockstein import closedform, engine
    from bockstein.cases import KINDS, Case

    case = Case(args.kind, args.p, args.max_degree, n=args.n, m=args.m,
                localized=args.localized, variant=args.variant, page_cap=args.page_cap)
    w = engine.Window(case.D)
    sched = KINDS[case.kind].schedule(case, w)
    A = closedform.thh_mod_p_algebra(case.p, case.height)

    collections = [0, 0, 0]
    spent = [0.0, 0.0]  # start of the current collection, seconds so far

    def on_gc(phase: str, info: dict) -> None:
        if phase == "start":
            collections[info["generation"]] += 1
            spent[0] = perf_counter()
        else:
            spent[1] += perf_counter() - spent[0]

    before = _settled()
    if args.gc == "off":
        gc.disable()
    gc.callbacks.append(on_gc)
    t0 = perf_counter()
    pages = engine.run(A, sched, w, localized=case.localized, page_cap=case.page_cap)[0]
    run_s = perf_counter() - t0
    gc.callbacks.remove(on_gc)
    gc.enable()
    gc.collect()
    tracked = len(gc.get_objects()) - before
    settled = _settled() - before
    kept = len(pages[-1].degrees)
    return {"gc": args.gc, "run_s": run_s, "gc_s": spent[1], "collections": collections,
            "tracked": tracked, "settled": settled, "kept": kept,
            "tracked_per_kept": tracked / kept if kept else None,
            "settled_per_kept": settled / kept if kept else None,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def _median(records: list, key: str):
    values = [rec[key] for rec in records]
    if isinstance(values[0], list):
        return [statistics.median(col) for col in zip(*values)]
    return None if None in values else statistics.median(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("kind", choices=["v0", "v1", "v2", "conj"])
    ap.add_argument("--p", required=True, type=int)
    ap.add_argument("--n", type=int)
    ap.add_argument("--m", type=int)
    ap.add_argument("--max-degree", required=True, type=int, dest="max_degree")
    ap.add_argument("--localized", action="store_true")
    ap.add_argument("--variant", choices=["A", "B"])
    ap.add_argument("--page-cap", type=int, dest="page_cap")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--gc", choices=["on", "off"],
                    help="measure one run in this interpreter and print its record")
    args = ap.parse_args(argv)
    if args.gc is not None:
        print(json.dumps(measure(args)))
        return 0
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    records = {"on": [], "off": []}
    for i in range(args.repeats):
        for mode in (("on", "off") if i % 2 == 0 else ("off", "on")):
            done = subprocess.run([sys.executable, __file__, *_case_args(args), "--gc", mode],
                                  capture_output=True, text=True, check=True)
            records[mode].append(json.loads(done.stdout.splitlines()[-1]))
    summary = {side: {key: _median(recs, key) for key in recs[0] if key != "gc"}
               for side, recs in records.items()}
    print(json.dumps({"case": _case_args(args), "repeats": args.repeats, **summary,
                      "run_on_over_off": summary["on"]["run_s"] / summary["off"]["run_s"],
                      "records": records["on"] + records["off"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
