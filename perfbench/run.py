"""triseal benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload search-scan --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workloads (see workloads.py and
README.md) drive triseal's public API from one process and one thread as a
closed loop with a single client, on the ``curve`` backend.  Every output
is checked against the generator's ground truth.

With ``--trace 0`` the workload is set up several times (the median is
``setup_s``) and then runs operations for ``--seconds``; the last line
printed holds the end-to-end metrics listed in BENCHMARK.json.  With
``--trace 1`` it runs a fixed number of cycles, each untraced and then
again traced, so operation counts repeat exactly for a seed; the last line
holds the per-layer metrics, and the spans are written under
``.perfbench-out/``.

The line before the last is a report: the environment, every metric under
its descriptive name, the tail percentile and sample count, and in traced
runs the operation counts.  The exit code is 0 only if every output was
correct.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
PAIRING_FNS = (
    "pair", "hash_to_group", "group_exp", "gt_exp", "element_from_bytes", "gt_from_bytes",
)
MEAN_MS_SPANS = (
    "sse.sse_encrypt", "sse.consent_search_token", "abe.abe_policy_encrypt",
    "abe.issue_credential", "abe.blind_identity", "recovery.recover_key",
    "recovery.wrap_key", "recovery.issue_decrypt_token", "payload.encrypt_payload",
    "payload.decrypt_payload", "server.record_from_wire", "wire.canonical_json",
    "server.search_request_to_wire", "server.search_request_from_wire",
    "server.search_response_to_wire", "server.search_response_from_wire",
    "server.update_request_to_wire", "server.update_request_from_wire",
    "server.store_record", "server.reencrypt", "server.open", "actors.publish",
    "actors.collect", "actors.decrypt_matches", "actors.update_request",
)


def environment(seed: int) -> dict:
    from triseal.pairing import curve

    src_lines = sum(
        len(p.read_bytes().splitlines()) for p in sorted((ROOT / "src").rglob("*.py"))
    )
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "gmpy2": curve._powmod is not pow,
        "backend": "curve",
        "seed": seed,
        "src_lines": src_lines,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload, results, final, setup_times) -> tuple[dict, dict]:
    from workloads import tail

    op_ms = [r.ms for r in results if r.kind == workload.op_kind]
    percentile, tail_ms = tail(op_ms)
    metrics = {
        "op_ms_p50": statistics.median(op_ms) if op_ms else 0.0,
        "op_ms_tail": tail_ms,
        "record_ms": workload.record_ms(results, final),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb(),
    }
    return metrics, {"percentile": percentile, "samples": len(op_ms)}


def per_layer(workload, summary, results) -> dict:
    calls, total, own, true = (summary[k] for k in ("calls", "total", "self", "true"))

    def mean_ms(name):
        return total[name] / calls[name] * 1000.0 if calls[name] else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    metrics = {}
    for fn in PAIRING_FNS:
        metrics[f"pairing.{fn}.calls"] = calls[f"pairing.{fn}"]
        metrics[f"pairing.{fn}.ms"] = mean_ms(f"pairing.{fn}")
    metrics["pairing.gt_generator.calls"] = calls["pairing.gt_generator"]
    primary = [r for r in results if r.kind == workload.op_kind]
    metrics["pairing.pair.per_op"] = ratio(
        sum(summary["pairs_by_req"][r.req] for r in primary),
        sum(workload.pair_units(r) for r in primary),
    )
    for name in ("sse.sse_match_any", "abe.abe_verify"):
        metrics[f"{name}.calls"] = calls[name]
        metrics[f"{name}.ms"] = mean_ms(name)
    metrics["sse.match_ratio"] = ratio(true["sse.sse_match_any"], calls["sse.sse_match_any"])
    metrics["abe.verify_ok_ratio"] = ratio(true["abe.abe_verify"], calls["abe.abe_verify"])
    for name in MEAN_MS_SPANS:
        metrics[f"{name}.ms"] = mean_ms(name)
    stats = Counter()
    for r in results:
        stats.update(r.stats)
    metrics["server.search.self_ms"] = (
        own["server.search"] / calls["server.search"] * 1000.0 if calls["server.search"] else 0.0
    )
    metrics["server.search.candidates"] = stats["candidates"]
    metrics["server.search.sse_matched_ratio"] = ratio(stats["sse_matched"], stats["candidates"])
    metrics["server.search.matched_ratio"] = ratio(stats["matched"], stats["abe_verified"])
    return metrics


def traced_cycles(workload, report: dict, out_dir: Path, seed: int):
    """Run each cycle untraced and then traced, trace ``finish``, write the spans."""
    from tracing import Tracer
    from workloads import measure

    # the traced replay of a cycle has the same inputs as its untraced run,
    # so the time between the two is the tracing overhead plus machine drift
    cycles = workload.trace_cycles
    tracer = Tracer()
    untraced, results = [], []
    untraced_s = traced_s = 0.0
    for c in range(cycles):
        t0 = time.perf_counter()
        untraced += measure(workload, first=c, cycles=1)
        t1 = time.perf_counter()
        with tracer.installed():
            results += measure(workload, tracer, first=c, cycles=1)
        traced_s += time.perf_counter() - t1
        untraced_s += t1 - t0
    with tracer.installed():
        tracer.req += 1
        final = workload.finish()
    final += workload.verify(final)
    overhead_ms = (traced_s - untraced_s) * 1000.0 / max(1, len(results))
    summary = tracer.summary()
    trace_file = out_dir / ".perfbench-out" / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_file)
    pairs, ops = Counter(), Counter(r.kind for r in results)
    for r in results:
        pairs[r.kind] += summary["pairs_by_req"][r.req]
    report["counts"] = dict(sorted(summary["calls"].items()))
    report["pairings_per_op"] = {k: pairs[k] / ops[k] for k in sorted(ops)}
    report["trace_overhead_ms_per_op"] = overhead_ms
    report["trace_file"] = os.path.relpath(trace_file, out_dir)
    return untraced + results, final, per_layer(workload, summary, results)


def timed_run(workload, report: dict, seconds: int, setup_times: list[float]):
    """Run operations for ``seconds`` and compute the end-to-end metrics."""
    from workloads import measure

    results = measure(workload, deadline=time.perf_counter() + seconds)
    final = workload.finish()
    final += workload.verify(final)
    metrics, report["tail"] = end_to_end(workload, results, final, setup_times)
    descriptive = dict(workload.report(results, final))
    descriptive["setup_s"] = (metrics["setup_s"], "s")
    descriptive["peak_rss_mb"] = (metrics["peak_rss_mb"], "MB")
    failed = sum(not r.ok for r in results + final)
    descriptive["failed_op_ratio"] = (failed / max(1, len(results) + len(final)), "ratio")
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in descriptive.items()}
    return results, final, metrics


def run(factory, seed: int, seconds: int, trace: bool, out_dir: Path):
    """Run one workload; returns (report, result, workload)."""
    work_dir = out_dir / ".perfbench-tmp" / f"{os.getpid()}"
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}
    wanted = [m["name"] for m in declared["per_layer" if trace else "end_to_end"]]
    setup_times = []
    workload = None
    try:
        for _ in range(1 if trace else SETUP_REPEATS):
            if workload is not None:
                workload.close()
            workload = factory(seed, work_dir)
            t0 = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - t0)
        report = {"workload": workload.name, "env": environment(seed), "trace": int(trace)}
        if trace:
            results, final, metrics = traced_cycles(workload, report, out_dir, seed)
        else:
            results, final, metrics = timed_run(workload, report, seconds, setup_times)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work_dir, ignore_errors=True)
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json {wanted}")
    report["ops"] = dict(Counter(r.kind for r in results + final))
    failed = sum(not r.ok for r in results + final)
    result = {
        "correct": failed == 0,
        "attempted": len(results) + len(final),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in wanted},
    }
    return report, result, workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "triseal").is_dir():
        print(f"no triseal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    report, result, _ = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), ROOT
    )
    print(json.dumps(report))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
