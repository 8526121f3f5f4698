"""Tests of the benchmark itself; run with `python3 -m pytest perfbench -q`.

They run the benchmark from the repository root, as its command line does, so
each takes a pass of the `page_caps` workload (a few seconds untraced).
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    return out


def check_metrics(out, section):
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())


def test_untraced_run_reports_end_to_end_metrics():
    out = result(bench("--workload", "page_caps", "--seed", "3", "--seconds", "1",
                       "--trace", "0"))
    check_metrics(out, "end_to_end")
    assert (out["attempted"], out["failed"], out["correct"]) == (5, 0, True)
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_counts_repeat_exactly_across_runs_and_orders():
    counts = []
    for seed in (1, 2):
        out = result(bench("--workload", "page_caps", "--seed", str(seed), "--seconds", "1",
                           "--trace", "1"))
        check_metrics(out, "per_layer")
        record = json.loads((ROOT / "perfbench" / "out" /
                             f"page_caps-seed{seed}-trace1.json").read_text(encoding="utf-8"))
        assert record["absent_hooks"] == [] and record["counts_repeat"]
        spans = record["traced"][0]["spans"]
        assert {"engine.run", "engine.build_e1", "engine.apply_page"} <= {s["name"] for s in spans}
        assert all(s["self"] >= 0 for s in spans)
        counts.append(record["counts"])
    assert counts[0] == counts[1]
    assert all(len(c["json_sha256"]) == 64 for c in counts[0].values())


def test_a_failing_case_is_counted_and_the_pass_goes_on(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from types import SimpleNamespace

    import run

    def certify(case):
        if case.id == "raises":
            raise ValueError(case.id)
        return SimpleNamespace(ok=case.id == "passes")

    fake = SimpleNamespace(certify=certify, documents=lambda case, got: ("", ""))
    order = [SimpleNamespace(id=i, localized=False) for i in ("raises", "wrong", "passes")]
    records = run.one_pass(fake, order, run.Stopwatch())
    assert [(r["case"], r["ok"]) for r in records] == [
        ("raises", False), ("wrong", False), ("passes", True)]
    assert all(r["certify_s"] >= 0 for r in records)


def test_fails_without_result_when_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "ladders", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_absent_hook_is_listed_and_hooks_are_undone(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import tracing
    from bockstein import engine, linalg

    monkeypatch.setattr(tracing, "SPANS",
                        tracing.SPANS + [("engine.gone", "engine", "no_such_function", None)])
    run, reduce_row = engine.run, linalg.reduce_row
    tracer = tracing.Tracer()
    tracer.install()
    assert engine.run is not run and linalg.reduce_row is not reduce_row
    tracer.uninstall()
    assert tracer.absent == ["engine.no_such_function"]
    assert engine.run is run and linalg.reduce_row is reduce_row
