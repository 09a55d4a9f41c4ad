"""ifcmcp benchmark: one seeded workload, checked, with every metric printed.

    python3 bench/run.py --workload author|browse|revise --seed N --seconds S --trace 0|1

The program is imported from the ``src`` of the checkout this file sits
in. With ``--trace 0`` the workload process runs untraced and the
end-to-end metrics are reported; with ``--trace 1`` it runs once untraced
and once with per-layer spans, and the per-layer metrics are reported.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
are a human-readable report. The full result, with sample counts, output
hashes and the line counts of ``src/ifcmcp/*.py``, is written to
``bench/results/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import client
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
WORK = BENCH / ".work"
CHILD_TIMEOUT_S = 170

# every end-to-end metric the report prints, with its unit
END_TO_END_UNITS = {
    "setup_s": "s", "calls_per_s": "1/s", "call_ms.p50": "ms", "call_ms.p90": "ms",
    "call_ms.p99": "ms", "create_ms.p50": "ms", "create_ms.p90": "ms", "edit_ms.p50": "ms",
    "edit_ms.p90": "ms", "query_ms.p50": "ms", "query_ms.p90": "ms", "snapshot_ms.p50": "ms",
    "knowledge_ms.p50": "ms", "open_s": "s", "save_s": "s", "peak_rss_mb": "MB",
    "failed_ratio": "ratio",
}
TAIL_SAMPLES = 10   # a tail percentile needs this many samples beyond it


def percentile(samples: list[float], p: float) -> float | None:
    """Nearest-rank percentile; ``None`` when too few samples lie beyond a tail one."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    if p > 50 and len(ordered) - rank < TAIL_SAMPLES:
        return None
    return ordered[rank - 1]


def end_to_end(raw: dict) -> dict:
    """name -> (value or None, samples behind it), from a workload's raw result."""
    latency = raw["latency_ms"]
    setup = raw["setup_s"]
    every = [ms for group in latency.values() for ms in group]
    groups = {"create": latency.get("create", []), "query": latency.get("query", []),
              "edit": latency.get("edit", []), "snapshot": latency.get("snapshot", []),
              "knowledge": latency.get("knowledge", [])}
    metrics = {
        "setup_s": (statistics.median(setup), len(setup)),
        "calls_per_s": (calls_per_s(raw), len(every)),
        "call_ms.p50": (percentile(every, 50), len(every)),
        "call_ms.p90": (percentile(every, 90), len(every)),
        "call_ms.p99": (percentile(every, 99), len(every)),
    }
    for group, tails in (("create", (50, 90)), ("edit", (50, 90)), ("query", (50, 90)),
                         ("snapshot", (50,)), ("knowledge", (50,))):
        for p in tails:
            metrics[f"{group}_ms.p{p}"] = (percentile(groups[group], p), len(groups[group]))
    metrics["open_s"] = (statistics.median(raw["open_s"]) if raw["open_s"] else None,
                         len(raw["open_s"]))
    metrics["save_s"] = (statistics.median(raw["save_s"]), len(raw["save_s"]))
    metrics["peak_rss_mb"] = (raw["peak_rss_mb"], 1)
    metrics["failed_ratio"] = (raw["failed"] / raw["attempted"], raw["attempted"])
    return metrics


def calls_per_s(raw: dict) -> float | None:
    every = [ms for group in raw["latency_ms"].values() for ms in group]
    return len(every) / (sum(every) / 1000.0) if every else None


def per_layer(traced: dict, untraced: dict) -> dict:
    """name -> (value or None, unit) for every layer the traced run saw."""
    layers, counts = traced["layers"]["layers"], traced["layers"]["counts"]
    metrics: dict[str, tuple] = {}
    for name, entry in layers.items():
        metrics[f"{name}.self_ms"] = (entry["self_ms"], "ms")
        metrics[f"{name}.calls"] = (entry["calls"], "count")
    for name, value in counts.items():
        metrics[name] = (value, "count")

    def ratio(numerator, denominator):
        return numerator / denominator if numerator is not None and denominator else None

    def self_us(name):
        entry = layers.get(name)
        return entry["self_ms"] * 1000.0 if entry else None

    metrics["step.parse_step.us_per_entity"] = (
        ratio(self_us("step.parse_step"), counts.get("step.parse_step.entities")), "us")
    metrics["step.write_step.us_per_entity"] = (
        ratio(self_us("step.write_step"), counts.get("step.write_step.entities")), "us")
    metrics["model.delete_element.refs_walked_per_removed"] = (
        ratio(counts.get("model.delete_element.refs_walked"),
              counts.get("model.delete_element.removed")), "ratio")
    metrics["snapshot.resolve_placement_per_product"] = (
        ratio(counts.get("snapshot.resolve_placement"), counts.get("snapshot.products")), "ratio")
    metrics["snapshot.body_of_per_product"] = (
        ratio(counts.get("snapshot.body_of"), counts.get("snapshot.products")), "ratio")
    metrics["python.gc.pause_ms"] = metrics.pop("python.gc.self_ms", (0.0, "ms"))
    metrics["python.gc.collections"] = metrics.pop("python.gc.calls", (0, "count"))
    metrics["service.response_bytes"] = (traced["response_bytes"], "bytes")
    metrics["snapshot.svg_bytes"] = (traced["svg_bytes"], "bytes")
    metrics["trace.overhead_ratio"] = (ratio(calls_per_s(traced), calls_per_s(untraced)), "ratio")
    metrics["trace.spans"] = (traced["layers"]["spans"], "count")
    return metrics


def source_lines() -> dict:
    """``wc -l src/ifcmcp/*.py``: metadata stored beside every result set."""
    files = sorted((ROOT / "src" / "ifcmcp").glob("*.py"))
    per_file = {f.name: len(f.read_bytes().splitlines()) for f in files}
    return {"total": sum(per_file.values()), "files": per_file}


def prepare(workload: str, seed: int, scale: workloads.Scale, workdir: Path) -> Path:
    """Write the workload's start file and its call plan."""
    client.use_source_tree()
    recipe = workloads.start_file(workload, seed, scale)
    catalog = client.build_start_file(recipe, workdir / "start.ifc")
    path = workdir / "plan.json"
    path.write_text(json.dumps(workloads.generate(workload, seed, scale, catalog)))
    return path


def child(args: list[str]) -> subprocess.CompletedProcess:
    """Run ``client.py`` in a fresh interpreter and wait for it."""
    return subprocess.run([sys.executable, str(BENCH / "client.py")] + args,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True)


def workload_process(plan: Path, seconds: float, reopen: bool, trace: bool = False) -> dict:
    out = plan.with_suffix(".traced.json" if trace else ".result.json")
    args = ["--plan", str(plan), "--out", str(out), "--seconds", str(seconds),
            "--reopen", str(int(reopen))]
    if trace:
        args += ["--trace", str(plan.with_name("spans.jsonl.gz"))]
    child(args)
    return json.loads(out.read_text())


def measure_workload(plan: Path, seconds: float, trace: bool, setup_repeats: int) -> dict:
    """Run the workload process between ``setup_repeats`` set-up-only processes.

    With ``trace`` the workload runs twice instead, untraced and then
    traced, so the two give the tracing overhead; a looping plan then makes
    exactly one pass, so layer counts repeat. The untraced run of a traced
    pair skips the final reopen, which only the traced run measures.
    """
    def set_up_only() -> float:
        return json.loads(child(["--plan", str(plan), "--setup-only"]).stdout)["setup_s"]

    repeats = 0 if trace else setup_repeats
    # set-ups before and after the workload process, so they sample more
    # of the run than one stretch of it
    setup = [set_up_only() for _ in range(repeats // 2)]
    untraced = workload_process(plan, 0.0 if trace else seconds, reopen=not trace)
    setup += [untraced["setup_s"]] + [set_up_only() for _ in range(repeats - repeats // 2)]
    untraced["setup_s"] = setup
    run = {"untraced": untraced}
    if trace:
        run["traced"] = workload_process(plan, 0.0, reopen=True, trace=True)
    return run


def fmt(value) -> str:
    if value is None:
        return "absent"
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="ifcmcp benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: a one-storey smoke run that checks the harness")
    args = parser.parse_args(argv)
    scale = workloads.FULL if args.scale == "full" else workloads.TINY
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    workdir = WORK / f"{args.workload}-{args.seed}-t{args.trace}-{args.scale}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    started = time.perf_counter()
    try:
        plan = prepare(args.workload, args.seed, scale, workdir)
        run = measure_workload(plan, args.seconds, bool(args.trace), scale.setup_repeats)
    except subprocess.CalledProcessError as exc:
        sys.stderr.write(exc.stderr or "")
        raise SystemExit(f"bench: workload process failed with exit code {exc.returncode}")
    finally:
        spans = workdir / "spans.jsonl.gz"
        RESULTS.mkdir(exist_ok=True)
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.scale}"
        if spans.exists():
            spans.replace(RESULTS / f"{stem}.spans.jsonl.gz")
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = run["untraced"]
    outcomes = [untraced] + ([run["traced"]] if args.trace else [])
    attempted = sum(r["attempted"] for r in outcomes)
    failed = sum(r["failed"] for r in outcomes)
    failures = [f for r in outcomes for f in r["failures"]]
    e2e = end_to_end(untraced)
    print(f"workload {args.workload} seed {args.seed} scale {args.scale}: "
          f"{attempted} checked outcomes, {failed} failed, "
          f"{untraced['passes']} pass(es), saved {untraced['entities']} entities")
    for failure in failures:
        print(f"  FAILED {failure}")
    for name, (value, samples) in e2e.items():
        print(f"  {name:<18} {fmt(value):>12} {END_TO_END_UNITS[name]:<6} n={samples}")
    layers = {}
    if args.trace:
        layers = per_layer(run["traced"], untraced)
        print("  per layer (traced run):")
        for name, (value, unit) in sorted(layers.items()):
            print(f"    {name:<52} {fmt(value):>12} {unit}")

    result = {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "wall_s": time.perf_counter() - started,
        "end_to_end": {k: {"value": v, "unit": END_TO_END_UNITS[k], "samples": n}
                       for k, (v, n) in e2e.items()},
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in layers.items()},
        "step_sha256": untraced["step_sha256"], "svg_sha256": untraced["svg_sha256"],
        "failures": failures, "src_lines": source_lines(),
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps(result, indent=1))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    available = {k: v for k, (v, _u) in (layers if args.trace else e2e).items()}
    metrics, missing = {}, []
    for entry in wanted:
        value = available.get(entry["name"])
        if value is None:
            missing.append(entry["name"])
        else:
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
    if missing and args.scale == "full":
        raise SystemExit(f"bench: no value for {', '.join(missing)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
