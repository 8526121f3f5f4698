"""Certification benchmark of the `bockstein` engine.

    python3 perfbench/run.py --workload ladders --seed 1 --seconds 30 --trace 0

One process, one client, closed loop: the cases of the workload run one
after another, each starting when the previous one has finished, in an
order permuted by the seed.  A pass certifies every case (schedule, run,
oracle, compare, which is `bockstein verify`) and then renders its
documents (JSON and SVG, which `bockstein run --json --svg` adds).  Passes
repeat while another one is expected to fit in --seconds; at least one
pass runs.  Each case starts from a collected heap, as in a fresh process.

--trace 0 reports the end-to-end metrics, in seconds scaled to a machine
of reference speed (see speed.py).  --trace 1 first runs one untraced
certification pass as the reference for the tracing overhead, then traced
passes, and reports the per-layer metrics in raw seconds (see tracing.py).

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  The full record
(environment, every sample raw and scaled, per-case counts and, when
traced, the spans) is written to perfbench/out/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

from speed import SpeedProbe, Stopwatch, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9

# A fresh interpreter that imports bockstein and builds the workload's
# algebras and schedules: argv is [SRC, HERE, workload].
SETUP_CODE = ("import sys; sys.path[:0] = sys.argv[1:3]; import cases; "
              "cases.setup(sys.argv[3])")

END_TO_END_UNITS = {"certify_s": "s", "document_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def environment(args, passes: int) -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "platform": platform.platform(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "passes": passes}


def measure_setup(workload: str) -> list:
    """Raw seconds of fresh interpreters doing the set-up."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE), workload],
                       check=True)
        times.append(perf_counter() - t0)
    return times


def one_pass(cases_mod, order, clock, tracer=None, documents=True) -> list:
    """Certify (and render) every case once; failures are counted, not raised.
    Returns one record per case with raw and scaled seconds per phase."""
    def span(name, case=None):
        return tracer.span(name, case) if tracer else nullcontext()

    records = []
    with clock:
        for case in order:
            gc.collect()
            rec = {"case": case.id, "ok": False}
            clock.start()
            try:
                with span("bench.certify", case.id):
                    got = cases_mod.certify(case)
                rec["certify_raw"], rec["certify_s"] = clock.lap()
                if documents:
                    with span("bench.documents"):
                        doc, chart = cases_mod.documents(case, got)
                    rec["document_raw"], rec["document_s"] = clock.lap()
                    if tracer and not case.localized:
                        tracer.counts[case.id]["json_sha256"] = hashlib.sha256(
                            doc.encode()).hexdigest()
                rec["ok"] = got.ok
            except Exception:  # a failing case is counted; the benchmark goes on
                traceback.print_exc()
                if "certify_s" not in rec:
                    rec["certify_raw"], rec["certify_s"] = clock.lap()
            got = doc = chart = None
            records.append(rec)
    return records


def run_passes(run_one, seconds: float) -> list:
    """Repeat run_one while one more pass is expected to fit in `seconds`."""
    start = perf_counter()
    passes = []
    while True:
        passes.append(run_one())
        elapsed = perf_counter() - start
        if elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def pass_seconds(passes: list, key: str) -> float:
    """One pass's seconds: the sum over cases of each case's median over passes."""
    by_case = {}
    for records in passes:
        for rec in records:
            by_case.setdefault(rec["case"], []).append(rec.get(key, 0.0))
    return sum(statistics.median(v) for v in by_case.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "bockstein" / "__init__.py").is_file():
        print(f"error: no bockstein sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bockstein
    import cases as cases_mod

    if Path(bockstein.__file__).resolve().parent != SRC / "bockstein":
        print(f"error: bockstein imported from {bockstein.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in cases_mod.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(cases_mod.WORKLOADS)}", file=sys.stderr)
        return 2
    case_list = cases_mod.WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    def shuffled():
        order = list(case_list)
        rng.shuffle(order)
        return order

    record = {}
    if args.trace == 0:
        setup = measure_setup(args.workload)
        clock = SpeedProbe()
        passes = run_passes(lambda: one_pass(cases_mod, shuffled(), clock), args.seconds)
        metrics = {
            "certify_s": pass_seconds(passes, "certify_s"),
            "document_s": pass_seconds(passes, "document_s"),
            # no probe runs beside a child process: scale by the run's mean speed
            "setup_s": scaled(statistics.median(setup), clock.history),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        totals = [sum(rec["certify_s"] for rec in p) for p in passes]
        # a tail percentile needs at least ten samples beyond it
        record.update(setup_raw=setup, certify_raw=pass_seconds(passes, "certify_raw"),
                      document_raw=pass_seconds(passes, "document_raw"),
                      certify_p90=statistics.quantiles(totals, n=10)[-1]
                      if len(totals) >= 100 else None)
        samples = len(passes)
    else:
        from tracing import PER_LAYER_UNITS, Tracer, deterministic_counts, layer_metrics

        start = perf_counter()
        reference = one_pass(cases_mod, shuffled(), Stopwatch(), documents=False)
        tracer = Tracer()
        traced = []

        def traced_pass():
            tracer.reset()
            tracer.install()
            try:
                records = one_pass(cases_mod, shuffled(), Stopwatch(), tracer)
            finally:
                tracer.uninstall()
            wall = sum(rec.get("certify_raw", 0.0) + rec.get("document_raw", 0.0)
                       for rec in records)
            traced.append({"wall_s": wall, "layers": layer_metrics(tracer, wall),
                           "counts": deterministic_counts(tracer),
                           "spans": tracer.span_records(), "leaves": tracer.leaf_records()})
            return records

        passes = run_passes(traced_pass, args.seconds - (perf_counter() - start))
        samples = len(passes)
        units = PER_LAYER_UNITS
        metrics = {k: 0.0 for k in units}  # a layer whose hooks are absent reads 0
        metrics.update({k: statistics.median(t["layers"].get(k, 0) for t in traced)
                        for k in traced[0]["layers"]})
        metrics["trace.certify_s"] = pass_seconds(passes, "certify_s")
        metrics["trace.overhead_s"] = metrics["trace.certify_s"] - pass_seconds([reference],
                                                                              "certify_s")
        record.update(absent_hooks=tracer.absent, counts=traced[0]["counts"],
                      counts_repeat=all(t["counts"] == traced[0]["counts"] for t in traced),
                      traced=traced, reference=reference)
        if tracer.absent:
            print(f"absent hooks: {', '.join(tracer.absent)}", file=sys.stderr)
        passes = [reference] + passes  # failures of the reference pass count too

    attempted = sum(len(p) for p in passes)
    failed = sum(not rec["ok"] for p in passes for rec in p)
    bad = sorted({rec["case"] for p in passes for rec in p if not rec["ok"]})
    record.update(environment=environment(args, samples), attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, failed_cases=bad, metrics=metrics,
                  samples=samples, passes=passes)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {samples} measured passes, failed {failed} of "
          f"{attempted} ({failed / attempted:.3f}){' in ' + ', '.join(bad) if bad else ''}; "
          f"medians over passes (a tail percentile needs 100); record in {path}")
    if args.trace == 0:
        print(f"raw seconds: certify {record['certify_raw']:.3f}, "
              f"document {record['document_raw']:.3f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": metrics[k], "unit": u}
                                  for k, u in units.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
