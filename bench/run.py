"""permpat benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout:

    python3 bench/run.py --workload search --seed 1 --seconds 24 --trace 0

The client issues each query only after the previous one returns, in one
process and one thread.  Whole rounds of queries run until the timed work
reaches ``--seconds``, and every answer is checked by an oracle that does
not call the function it checks.  A fixed pure-Python probe between
one-second blocks measures the host's speed, and the end-to-end timings are
adjusted to a reference speed; the raw timings go to the report.  With ``--trace 0`` the
end-to-end metrics are measured; with ``--trace 1`` each round runs once
untraced and once with span recorders around every layer's public
functions, and the per-layer metrics come from the traced rounds.

The last line of standard output is the result object; the line before it
is a report with provenance, per-kind counts and sample counts, also written
to ``.bench_out/`` together with the span dump of a traced run.
"""
from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

from spans import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
#: Timed work between two host-speed probes.
BLOCK_SECONDS = 1.0
#: Size of the probe's fixed work, and the probe time that defines the
#: reference host speed (about its median on a shared 2-core x86-64 VM
#: running CPython 3.11).
PROBE_LOOPS = 12_000
PROBE_REFERENCE_S = 0.012
UNITS = {"queries_per_s": "1/s", "latency_p50_ms": "ms", "latency_p95_ms": "ms"}
#: Share of --seconds spent on the untraced rounds of a traced run; the
#: traced replay of the same rounds takes this times the tracing overhead.
TRACE_SHARE = 0.35
#: Functions whose own self time is reported, one per hot kernel.
KERNELS = (
    "perm.containment_witness",
    "perm.decompose_tree",
    "perm.intervals",
    "labels.labeled_containment_witness",
    "invgraph.induced_embeds",
    "invgraph.has_long_induced_cycle",
    "classes.enumerate_members",
    "grids.grid_member",
    "feasibility.solve_strict",
)


def set_up(workload):
    """Import permpat, build the workload's library objects and warm up,
    ``SETUP_REPEATS`` times from a fresh import; the last one is kept.  Each
    set-up is bracketed by host-speed probes and adjusted like a block."""
    raw, adjusted = [], []
    after = probe()
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "permpat" or m.startswith("permpat.")]:
            del sys.modules[name]
        before = after
        start = perf_counter()
        package = importlib.import_module("permpat")
        ctx = workload.build(package)
        workload.warmup(ctx)
        elapsed = perf_counter() - start
        after = probe()
        raw.append(elapsed)
        adjusted.append(elapsed * PROBE_REFERENCE_S / ((before + after) / 2))
    return package, ctx, {"raw_s": raw, "adjusted_s": statistics.median(adjusted)}


class Pass:
    """Queries played, with per-query timings and, for a measured run, the
    host-speed factor of each block: ``blocks`` holds (queries, factor)."""

    def __init__(self):
        self.latencies: list = []
        self.kinds: list = []
        self.failures: list = []
        self.blocks: list = []
        self.probes: list = []
        self.refusals = 0
        self.rounds = 0
        self.wall = 0.0
        self.check_wall = 0.0

    def adjusted(self) -> list:
        """Each query's wall time scaled by its block's host-speed factor."""
        out, start = [], 0
        for count, factor in self.blocks:
            out.extend(x * factor for x in self.latencies[start:start + count])
            start += count
        return out


def _probe_step(i: int, table: dict) -> int:
    t = (i, i ^ 5, i % 7)
    table[t[2]] = frozenset(t)
    return sorted(t)[1] + len(table[t[2]])


def probe() -> float:
    """Seconds a fixed piece of pure-Python work takes on the host now:
    calls, tuples, sets, dict stores and a sort, like permpat's own code.
    The faster of two tries, so a stray interrupt does not count."""
    tries = []
    for _ in range(2):
        start = perf_counter()
        acc, table = 0, {}
        for i in range(PROBE_LOOPS):
            acc += _probe_step(i, table)
        tries.append(perf_counter() - start)
    return min(tries)


def play_round(workload, ctx, rnd, out: Pass, tracer=None) -> None:
    """Play one round of queries into ``out``.  Only the call into permpat
    is timed; the answer check runs afterwards with recording off."""
    refused = ctx.P.SizeGuardError
    out.rounds += 1
    for q in rnd:
        error = None
        if tracer:
            tracer.enabled = True
        start = perf_counter()
        try:
            answer = workload.run(ctx, q)
        except refused as exc:
            error = exc
            out.refusals += 1
        except Exception as exc:  # the program under test failed: count it
            error = exc
        elapsed = perf_counter() - start
        if tracer:
            tracer.enabled = False
        out.latencies.append(elapsed)
        out.wall += elapsed
        out.kinds.append(q.kind)
        checked = perf_counter()
        if error is None:
            try:
                ok = workload.check(q, answer)
            except Exception as exc:  # a malformed answer fails its check
                ok, error = False, exc
        else:
            ok = False
        out.check_wall += perf_counter() - checked
        if not ok:
            out.failures.append({
                "kind": q.kind,
                "input": repr(q.data)[:300],
                "error": "".join(traceback.format_exception_only(type(error), error)).strip()
                if error else "wrong answer",
            })


def play(workload, ctx, budget: float) -> Pass:
    """Whole rounds until the timed work reaches ``budget``, in blocks of
    ``BLOCK_SECONDS`` of timed work with a host-speed probe between blocks;
    a block's factor is the reference probe time over the mean of the
    probes on either side of it."""
    out = Pass()
    out.probes.append(probe())
    block_start, block_wall = 0, 0.0
    for rnd in workload.rounds():
        before = out.wall
        play_round(workload, ctx, rnd, out)
        block_wall += out.wall - before
        if block_wall >= BLOCK_SECONDS:
            out.probes.append(probe())
            host = (out.probes[-2] + out.probes[-1]) / 2
            out.blocks.append((len(out.latencies) - block_start, PROBE_REFERENCE_S / host))
            block_start, block_wall = len(out.latencies), 0.0
            if out.wall >= budget:
                return out


def play_traced(workload, ctx, budget: float, tracer: Tracer) -> tuple:
    """Each round untraced, then again with the recorders installed, until
    the untraced work reaches ``budget``.  Pairing the passes round by round
    keeps drifts in the host's speed out of the overhead ratio."""
    untraced, traced = Pass(), Pass()
    for rnd in workload.rounds():
        if untraced.wall >= budget:
            break
        play_round(workload, ctx, rnd, untraced)
        tracer.install()
        try:
            play_round(workload, ctx, rnd, traced, tracer)
        finally:
            tracer.uninstall()
    return untraced, traced


def per_kind(p: Pass) -> dict:
    groups: dict = {}
    for kind, lat in zip(p.kinds, p.latencies):
        groups.setdefault(kind, []).append(lat)
    return {
        k: {"count": len(v), "median_ms": statistics.median(v) * 1e3, "max_ms": max(v) * 1e3}
        for k, v in sorted(groups.items())
    }


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    return {
        "benchmark": "permpat",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 process, 1 thread",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": platform.node(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": git_commit(),
    }


def timings(lat: list) -> dict:
    cuts = statistics.quantiles(lat, n=100, method="inclusive")
    return {
        "queries_per_s": len(lat) / sum(lat),
        "latency_p50_ms": cuts[49] * 1e3,
        "latency_p95_ms": cuts[94] * 1e3,
    }


def end_to_end(p: Pass, setup: dict) -> tuple:
    """Timings over the whole run, each query's wall time adjusted to the
    reference host speed; the raw figures go to the report."""
    lat = p.adjusted()
    adjusted = timings(lat)
    metrics = {name: (value, UNITS[name]) for name, value in adjusted.items()}
    metrics["setup_s"] = (setup["adjusted_s"], "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    p95 = adjusted["latency_p95_ms"] / 1e3
    samples = {
        "latency_p50_ms": len(lat),
        "latency_p95_ms": len(lat),
        "beyond_p95": sum(1 for x in lat if x > p95),
        "setup_s": len(setup["raw_s"]),
        "raw": {**timings(p.latencies), "setup_s": statistics.median(setup["raw_s"])},
        "host_probe_s": {
            "reference": PROBE_REFERENCE_S,
            "median": statistics.median(p.probes),
            "min": min(p.probes),
            "max": max(p.probes),
            "count": len(p.probes),
        },
    }
    return metrics, samples


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer: Tracer, traced: Pass, untraced: Pass) -> tuple:
    wall = traced.wall
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (tracer.layer_calls[layer], "count")
        metrics[f"{layer}.self_s"] = (tracer.layer_self[layer], "s")
        metrics[f"{layer}.self_share"] = (ratio(tracer.layer_self[layer], wall), "ratio")
    member, gridding, solver = "classes.PermClass.member", "grids.validate_gridded", "feasibility.solve_strict"
    metrics["classes.member_yield"] = (ratio(tracer.hits_of(member), tracer.calls_of(member)), "ratio")
    metrics["grids.gridding_yield"] = (ratio(tracer.hits_of(gridding), tracer.calls_of(gridding)), "ratio")
    metrics["feasibility.feasible_ratio"] = (ratio(tracer.hits_of(solver), tracer.calls_of(solver)), "ratio")
    metrics["feasibility.rows_per_call"] = (ratio(tracer.rows_to_solver, tracer.calls_of(solver)), "rows")
    geom_wall, geom_solver = tracer.geom_in_class
    metrics["feasibility.geom_member_share"] = (ratio(geom_solver, geom_wall), "ratio")
    for name in KERNELS:
        metrics[f"fn.{name}.self_s"] = (tracer.self_of(name), "s")
    harness = wall - tracer.root_total
    metrics["guards.refusals"] = (untraced.refusals + traced.refusals, "count")
    metrics["harness.self_s"] = (harness, "s")
    metrics["trace.overhead_ratio"] = (ratio(wall, untraced.wall), "ratio")
    # Layer self times and the harness's share must tile the traced wall time.
    covered = sum(tracer.layer_self.values()) + harness
    consistent = abs(covered - wall) <= 1e-6 * max(1.0, wall)
    return metrics, consistent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "permpat" / "__init__.py").is_file():
        print(f"error: permpat sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.seed)
    package, ctx, setup = set_up(workload)
    report = provenance(args)
    report["setup_s_each"] = setup["raw_s"]
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace == 0:
        run = play(workload, ctx, args.seconds)
        passes = [run]
        metrics, samples = end_to_end(run, setup)
        report["samples"] = samples
        report["per_kind"] = per_kind(run)
        consistent = True
    else:
        tracer = Tracer(package)
        untraced, traced = play_traced(workload, ctx, args.seconds * TRACE_SHARE, tracer)
        passes = [untraced, traced]
        metrics, consistent = per_layer(tracer, traced, untraced)
        report["per_kind"] = per_kind(traced)
        report["functions"] = tracer.function_stats()
        report["trace_wall_s"] = {"untraced": untraced.wall, "traced": traced.wall}
        spans_path = OUT / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(tracer.dump()))
        report["span_dump"] = str(spans_path.relative_to(ROOT))

    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    report["check_s"] = sum(p.check_wall for p in passes)
    report["queries"] = attempted
    report["rounds"] = sum(p.rounds for p in passes)
    report["fail_ratio"] = failed / attempted
    report["guard_refusals"] = sum(p.refusals for p in passes)
    report["failures"] = [f for p in passes for f in p.failures][:10]
    report["trace_consistent"] = consistent
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1))
    print(json.dumps(report))
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
