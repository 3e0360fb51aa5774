"""Wall-clock benchmark of the whole lens path, with per-layer self time.

Three subcommands::

    python3 benchmarks/e2e/bench.py measure --workload view_scan --seed 1 \\
        --seconds 10 --trace 0
    python3 benchmarks/e2e/bench.py run --seed 1
    python3 benchmarks/e2e/bench.py compare --base A1.json A2.json \\
        --new B1.json B2.json

``measure`` is what ``BENCHMARK.json`` names: one workload in this
process, a closed loop with one client, every answer checked against
the oracle in ``workloads.py``; the last line printed is the result as
JSON.  ``--trace 0`` reports the end-to-end metrics with nothing
attached; ``--trace 1`` repeats a fixed number of operations under the
span recorder and reports the per-layer metrics.  ``run`` does both for
every workload, each in a fresh child process, and writes one result
file; ``compare`` judges two sets of result files by the bounds in
``BENCHMARK.json``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import spans as spanlib  # noqa: E402
import workloads  # noqa: E402

WARMUP_OPS = 5
SETUP_REPEATS = 3
#: per-layer metrics that repeat exactly for a seed: ``compare`` reports
#: any that differ between result files
EXACT = {
    "query.parse_calls", "core.plan_cache_hit_ratio", "core.virtual_ms_p50",
    "algebra.elements_per_op", "sources.calls_per_op", "sources.rows_per_op",
    "sources.bytes_per_op", "sources.rows_per_element",
    "sql.statements_per_op", "cache.hit_ratio", "cdc.feed_len",
}


def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# -- small statistics ---------------------------------------------------------


def percentile(values: list[float], percent: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * percent // 100))
    return ordered[int(rank) - 1]


def supported_percentile(samples: int) -> float:
    """The highest percentile with at least ten samples beyond it."""
    supported = 50.0
    for percent in (75.0, 90.0, 95.0, 99.0, 99.9):
        if samples * (100.0 - percent) / 100.0 >= 10:
            supported = percent
    return supported


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile); one value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, _middle, third = statistics.quantiles(values, n=4)
    return first, statistics.median(values), third


def calibration_ms() -> float:
    """A fixed pure-Python loop, so result files from different machines
    can be read side by side.  Never a gate."""
    best = float("inf")
    for _ in range(5):
        started = perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, perf_counter() - started)
    return best * 1000


# -- the closed loop ----------------------------------------------------------


class Loop:
    """One client: the next step is sent when the last one has returned.

    Answers are checked after the operation timer has stopped.
    """

    def __init__(self, workload, system, surface, recorder=None):
        self.workload, self.system, self.surface = workload, system, surface
        self.recorder = recorder
        self.steps = workload.steps()
        self.failed = 0
        self.reasons: list[str] = []
        self.last_op_span = -1
        self.reset()

    def reset(self) -> None:
        """Forget the samples (not the failures) gathered so far."""
        self.op_ms: list[float] = []
        self.virtual_ms: list[float] = []
        self.elements = 0
        self.counters: Counter = Counter()

    def run(self, seconds: float = 0.0, min_ops: int = 0,
            ops: int | None = None) -> None:
        """Run exactly ``ops`` operations, or run until ``seconds`` have
        passed and at least ``min_ops`` operations are done."""
        deadline = perf_counter() + seconds
        timed_kind = self.workload.timed_kind
        done = 0
        while True:
            if ops is not None:
                if done >= ops:
                    break
            elif done >= min_ops and perf_counter() >= deadline:
                break
            step = next(self.steps)
            timed = step.kind == timed_kind
            span = -1
            if self.recorder is not None and (timed or step.kind == "write"):
                span = self.recorder.open("op" if timed else "write batch")
                if timed:
                    self.last_op_span = span
            try:
                outcome = self.system.execute(step)
            except Exception:  # the loop must survive a failed operation
                self.fail(traceback.format_exc(limit=4))
                outcome = None
            finally:
                if span >= 0:
                    self.recorder.close(span)
            done += timed
            if outcome is not None:
                self.check(step, outcome, timed)

    def check(self, step, outcome, timed: bool) -> None:
        virtual = 0.0
        elements = 0
        for request, answer in zip(step.requests, outcome.answers):
            reason = workloads.mismatch(
                request, self.surface.plain(answer.elements),
                answer.rendered, answer.complete,
            )
            if reason is not None:
                self.fail(f"{request.row_tag}: {reason}")
            if timed:
                counters = self.surface.stat_counters(answer.stats)
                virtual += counters.pop("virtual_ms")
                self.counters.update(counters)
            elements += len(answer.elements)
        if step.kind == "sync":
            if outcome.changes_applied != len(step.changes):
                self.fail(f"sync applied {outcome.changes_applied} changes, "
                          f"expected {len(step.changes)}")
            elements = outcome.changes_applied
        if timed:
            self.op_ms.append(outcome.wall_s * 1000)
            self.virtual_ms.append(virtual)
            self.elements += elements

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)


def set_up(surface, name: str, seed: int, scale: float, observed=False,
           recorder=None) -> Loop:
    """Generate the inputs, load them, build the engine, warm up."""
    workload = workloads.WORKLOADS[name](seed, scale)
    system = surface.System(workload.dataset, observed=observed)
    loop = Loop(workload, system, surface, recorder)
    loop.run(ops=WARMUP_OPS)
    loop.reset()
    return loop


# -- measure ------------------------------------------------------------------


def measure_end_to_end(surface, name, seed, seconds, scale):
    setups, loop = [], None
    for _ in range(SETUP_REPEATS):
        loop = None
        gc.collect()  # drop the previous system before timing the next
        started = perf_counter()
        loop = set_up(surface, name, seed, scale)
        setups.append(perf_counter() - started)
    loop.run(seconds=seconds, min_ops=workloads.MIN_OPS)
    samples = len(loop.op_ms)
    info = {
        "samples": samples,
        "supported_percentile": supported_percentile(samples),
        "elements_per_op": loop.elements / max(1, samples),
        "features_applied": sorted(loop.system.features_applied),
        "input_digest": loop.workload.dataset.digest(),
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "op_ms_p50": percentile(loop.op_ms, 50),
        "op_ms_p90": percentile(loop.op_ms, 90),
        "elements_per_s": loop.elements / (sum(loop.op_ms) / 1000),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return loop, metrics, info


def measure_per_layer(surface, name, seed, seconds, scale):
    recorder = spanlib.Recorder()
    recorder.install(surface.WRAPS)
    try:
        loop = set_up(surface, name, seed, scale, recorder=recorder)
        set_up_fold = spanlib.fold(recorder.drain())
        plan_before = loop.system.plan_cache()
        ops = loop.workload.trace_ops
        loop.run(ops=ops)
        traced = recorder.drain()
    finally:
        recorder.uninstall()
    plan_after = loop.system.plan_cache()
    traced_p50 = percentile(loop.op_ms, 50)
    counters, elements = loop.counters, loop.elements
    virtual_p50 = percentile(loop.virtual_ms, 50)
    feed_len = loop.system.feed_len()
    write_span_dumps(name, traced, loop.last_op_span)

    # the same system, untraced: what the recorder itself costs
    loop.recorder = None
    loop.reset()
    loop.run(seconds=seconds / 3, min_ops=20)
    plain_p50 = percentile(loop.op_ms, 50)

    # a fresh system with the product's own observability attached
    observed = set_up(surface, name, seed, scale, observed=True)
    observed.run(seconds=seconds / 3, min_ops=20)
    observed_p50 = percentile(observed.op_ms, 50)
    loop.failed += observed.failed
    loop.reasons += observed.reasons

    whole_pass = spanlib.fold(traced)
    missing = [layer for layer in loop.workload.layers
               if whole_pass[layer]["calls"] < 1]
    for layer in missing:
        loop.fail(f"layer {layer} recorded no call in the traced pass")

    # per-layer times count what happens inside timed operations only
    folded = spanlib.fold(traced, spanlib.under(traced, "op"))

    def self_ms(span_name: str) -> float:
        return folded[span_name]["self_s"] * 1000 / ops

    def calls(span_name: str) -> float:
        return folded[span_name]["calls"] / ops

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    metrics = {
        "query.parse_ms": self_ms("query.parse"),
        "query.bind_ms": self_ms("query.bind"),
        "query.parse_calls": calls("query.parse"),
        "optimizer.decompose_ms": self_ms("optimizer.decompose"),
        "optimizer.plan_build_ms": self_ms("optimizer.plan_build"),
        "core.lens_ms": self_ms("core.lens"),
        "core.engine_self_ms": self_ms("core.engine"),
        "core.format_ms": self_ms("core.format"),
        "core.view_subquery_incl_ms":
            folded["core.fetch_view"]["incl_s"] * 1000 / ops,
        "core.fetch_fragment_ms": self_ms("core.fetch_fragment"),
        "core.plan_cache_hit_ratio": ratio(plan_after[0] - plan_before[0],
                                           plan_after[1] - plan_before[1]),
        "core.sync_self_ms": self_ms("core.sync"),
        "core.virtual_ms_p50": virtual_p50,
        "algebra.operators_ms": self_ms("algebra.operators"),
        "algebra.construct_ms": self_ms("algebra.construct"),
        "algebra.shred_ms": self_ms("algebra.shred"),
        "algebra.elements_per_op": elements / ops,
        "sources.execute_ms": self_ms("sources.execute"),
        "sources.calls_per_op": counters["remote_calls"] / ops,
        "sources.rows_per_op": counters["rows"] / ops,
        "sources.bytes_per_op": counters["bytes"] / ops,
        "sources.rows_per_element": counters["rows"] / max(1, elements),
        "sql.execute_ms": self_ms("sql.execute"),
        "sql.statements_per_op": calls("sql.execute"),
        "xmldm.parse_setup_ms": set_up_fold["xmldm.parse"]["self_s"] * 1000,
        "xmldm.serialize_ms": self_ms("xmldm.serialize"),
        "cache.lookup_ms": self_ms("cache.lookup"),
        "cache.insert_ms": self_ms("cache.insert"),
        "cache.apply_change_ms": self_ms("cache.apply_change"),
        "cache.hit_ratio": ratio(counters["cache_hits"],
                                 counters["cache_misses"]),
        "materialize.serve_view_ms": self_ms("materialize.serve_view"),
        "materialize.refresh_ms": self_ms("materialize.refresh"),
        "materialize.store_apply_ms": self_ms("materialize.store_apply"),
        "cdc.write_ms": whole_pass["cdc.write"]["self_s"] * 1000
        / max(1, whole_pass["write batch"]["calls"]),
        "cdc.since_ms": self_ms("cdc.since"),
        "cdc.feed_len": feed_len,
        "observability.on_overhead_pct": (observed_p50 / plain_p50 - 1) * 100,
        "harness.trace_overhead_pct": (traced_p50 / plain_p50 - 1) * 100,
        "harness.unattributed_pct":
            folded["op"]["self_s"] / folded["op"]["incl_s"] * 100,
        "harness.calibration_ms": calibration_ms(),
    }
    info = {
        "traced_ops": ops, "traced_p50_ms": traced_p50,
        "untraced_p50_ms": plain_p50, "observed_p50_ms": observed_p50,
        "layers_missing": missing,
        "features_applied": sorted(loop.system.features_applied),
    }
    return loop, metrics, info


def write_span_dumps(name: str, traced: list, op_span: int) -> None:
    """Every span of the traced pass, and one operation as a Chrome trace."""
    OUT.mkdir(exist_ok=True)
    (OUT / f"spans-{name}.json").write_text(json.dumps(
        {"fields": ["name", "start_s", "end_s", "parent", "kind"],
         "spans": traced}
    ))
    if op_span >= 0:
        spanlib.write_chrome_trace(OUT / f"trace-{name}.json",
                                   spanlib.subtree(traced, op_span))


def measure(args) -> int:
    import surface  # the only module that imports the program under test

    declared = contract()
    group = "per_layer" if args.trace else "end_to_end"
    runner = measure_per_layer if args.trace else measure_end_to_end
    loop, metrics, info = runner(surface, args.workload, args.seed,
                                 args.seconds, args.scale)
    units = {m["name"]: m["unit"] for m in declared[group]}
    if set(units) != set(metrics):
        raise SystemExit(f"BENCHMARK.json {group} and bench.py disagree on "
                         f"{sorted(set(units) ^ set(metrics))}")
    for key, value in info.items():
        print(f"# {key} = {value}")
    for reason in loop.reasons:
        print(f"# FAILED {reason}")
    for metric, value in metrics.items():
        print(f"{args.workload:12} {metric:32} {value:14.4f} {units[metric]}")
    attempted = len(loop.op_ms) if not args.trace else info["traced_ops"]
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": max(1, attempted),
        "failed": loop.failed,
        "metrics": {metric: {"value": value, "unit": units[metric]}
                    for metric, value in metrics.items()},
    }))
    return 0 if loop.failed == 0 else 1


# -- run ----------------------------------------------------------------------


def run(args) -> int:
    declared = contract()
    seconds = args.seconds or declared["run_seconds"]
    result = {"seed": args.seed, "scale": args.scale, "seconds": seconds,
              "workloads": {}}
    status = 0
    for entry in declared["workloads"]:
        name = entry["name"]
        row = {"correct": True, "attempted": 0, "failed": 0}
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            child = subprocess.run(
                [sys.executable, str(HERE / "bench.py"), "measure",
                 "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(seconds), "--trace", str(trace),
                 "--scale", str(args.scale)],
                capture_output=True, text=True,
            )
            lines = child.stdout.strip().splitlines()
            print("\n".join(lines[:-1]), flush=True)
            if child.returncode != 0:
                status = 1
                sys.stderr.write(child.stderr)
            try:
                last = json.loads(lines[-1]) if lines else None
            except ValueError:
                last = None
            if last is None:
                row["correct"] = False
                continue
            row[group] = {k: v["value"] for k, v in last["metrics"].items()}
            row["correct"] = row["correct"] and last["correct"]
            row["failed"] += last["failed"]
            if trace == 0:
                row["attempted"] = last["attempted"]
        row["failed_share"] = row["failed"] / max(1, row["attempted"])
        print(f"{name:12} {'failed_share':32} {row['failed_share']:14.4f} ratio",
              flush=True)
        status = status or (0 if row["correct"] else 1)
        result["workloads"][name] = row
    out = Path(args.out) if args.out else (
        OUT / f"result-seed{args.seed}-{time.strftime('%Y%m%dT%H%M%S')}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return status


# -- compare ------------------------------------------------------------------


def load_results(paths: list[str]) -> list[dict]:
    files = []
    for path in map(Path, paths):
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(path.read_text()) for path in files]


def verdict(base: list[float], new: list[float], better: str,
            bound: float) -> str:
    """better / within bound / worse / unresolved for one metric."""
    sign = 1.0 if better == "lower" else -1.0
    b_q1, b_median, b_q3 = quartiles(base)
    n_q1, n_median, n_q3 = quartiles(new)
    scale = abs(b_median) or 1.0
    worsening = sign * (n_median - b_median) / scale
    spread = max(b_q3 - b_q1, n_q3 - n_q1) / scale
    if better == "lower":
        all_better, all_worse = max(new) < min(base), min(new) > max(base)
    else:
        all_better, all_worse = min(new) > max(base), max(new) < min(base)
    if worsening > bound and (spread <= bound or all_worse):
        return "worse"
    if spread > bound:
        return "better" if all_better else "unresolved"
    if all_better and -worsening > (b_q3 - b_q1) / scale:
        return "better"
    return "within bound"


def compare(args) -> int:
    declared = contract()
    base, new = load_results(args.base), load_results(args.new)
    status = 0
    print(f"{'workload':12} {'metric':16} {'base q1/median/q3':>36} "
          f"{'new q1/median/q3':>36}  median  verdict")
    for entry in declared["workloads"]:
        name = entry["name"]
        for metric in declared["end_to_end"]:
            sides = [
                [r["workloads"][name]["end_to_end"][metric["name"]]
                 for r in side
                 if metric["name"] in r["workloads"].get(name, {})
                 .get("end_to_end", {})]
                for side in (base, new)
            ]
            if not sides[0] or not sides[1]:
                print(f"{name:12} {metric['name']:16} missing on one side")
                status = 1
                continue
            word = verdict(sides[0], sides[1], metric["better"],
                           metric["bound"])
            status = status or (1 if word == "worse" else 0)
            cells = ["/".join(f"{v:.4g}" for v in quartiles(side))
                     for side in sides]
            medians = [statistics.median(side) for side in sides]
            change = (medians[1] / medians[0] - 1) * 100
            print(f"{name:12} {metric['name']:16} {cells[0]:>36} "
                  f"{cells[1]:>36} {change:+6.1f}%  {word}")
        rows = [r["workloads"].get(name, {}) for r in base + new]
        failed = sum(row.get("failed", 0) for row in rows)
        if failed or not all(row.get("correct", False) for row in rows):
            print(f"{name:12} failed operations: {failed}")
            status = 1
        for exact in sorted(EXACT):
            values = {row.get("per_layer", {}).get(exact) for row in rows}
            if len(values) > 1:
                print(f"{name:12} {exact:32} changed: "
                      f"{sorted(v for v in values if v is not None)}")
    return status


# -- command line -------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    one = commands.add_parser("measure", help="one workload, in this process")
    one.add_argument("--workload", required=True,
                     choices=sorted(workloads.WORKLOADS))
    one.add_argument("--seed", type=int, required=True)
    one.add_argument("--seconds", type=float, required=True)
    one.add_argument("--trace", type=int, choices=(0, 1), default=0)
    one.add_argument("--scale", type=float, default=1.0)
    one.set_defaults(handler=measure)
    every = commands.add_parser("run", help="every workload, both passes")
    every.add_argument("--seed", type=int, default=1)
    every.add_argument("--seconds", type=float, default=0.0,
                       help="default: run_seconds of BENCHMARK.json")
    every.add_argument("--scale", type=float, default=1.0)
    every.add_argument("--out", default="")
    every.set_defaults(handler=run)
    judge = commands.add_parser("compare", help="two sets of result files")
    judge.add_argument("--base", nargs="+", required=True)
    judge.add_argument("--new", nargs="+", required=True)
    judge.set_defaults(handler=compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
