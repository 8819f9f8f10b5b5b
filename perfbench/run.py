"""The repository benchmark: three workloads, end-to-end host-time
metrics, output checks, and a traced per-layer breakdown.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig7_bulk --seed 1 --seconds 42 --trace 0

Workloads (see perfbench/README.md for why each was chosen):

* ``fig7_bulk`` -- Figure 7 through ``repro.experiments.figures.fig7``:
  six variants, 8 long-lived flows each, one in-process executor, no
  cache.
* ``rpc_churn`` -- a seeded CSV trace of small cross-rack RPCs replayed
  by the workload engine under TDTCP (open loop in simulated time).
* ``campaign_sweep`` -- a seed x variant grid of tiny runs through a
  two-worker executor with campaign log, checkpoint and cache: cold,
  then the same batch warm (closed loop, 2 workers).

Each iteration runs in a fresh interpreter (``child.py``), so set-up
time and peak memory are per workload. Iterations repeat while the
next one is expected to end within ``--seconds`` (at least
``MIN_ITERATIONS``); metrics are medians over iterations. Host times
of untraced iterations are scaled to a reference host speed, measured
by kernels sampled during the iteration (``calibration.py``).
``--trace 1`` alternates untraced and traced iterations and reports
the per-layer metrics plus the tracing overhead. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

The seed generates every input: the fig7 and campaign seeds, and the
RPC trace CSV. The program receives only those generated inputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import REFERENCE_S, speed_index

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

#: The seed whose outputs must match ``reference.json``.
DEFAULT_SEED = 1
MIN_ITERATIONS = 3
#: Time iterations may take beyond ``--seconds`` (the minimum number of
#: iterations, an iteration slower than the ones before); a run that
#: overruns by more is killed and fails.
LAST_ITERATION_BUDGET_S = 120.0

# Workload sizes: each iteration takes a few seconds of host time so a
# run holds several iterations.
FIG7 = {"weeks": 6, "warmup_weeks": 2, "n_flows": 8}
RPC = {"flows": 900, "weeks": 10}
#: RPC sizes are the data-mining CDF's flows up to this size (its 85th
#: percentile): the short request/response mice, not the bulk tail.
RPC_MAX_SIZE = 100_000
CAMPAIGN = {"n_seeds": 14, "weeks": 1, "n_flows": 2, "jobs": 2}


# ----------------------------------------------------------------------
# Inputs
# ----------------------------------------------------------------------
def write_rpc_trace(path: Path, seed: int) -> int:
    """Poisson starts over the first 80% of the horizon, sizes from the
    published data-mining CDF cut to its flows of at most
    ``RPC_MAX_SIZE`` bytes, random cross-rack host pairs. Returns the
    row count."""
    sys.path.insert(0, str(SRC))
    from repro.apps.engine import TraceFlow, write_trace
    from repro.apps.tracegen import DATA_MINING_CDF, EmpiricalFlowSizes
    from repro.rdcn.config import RDCNConfig
    from repro.sim.rng import SeededRandom

    rdcn = RDCNConfig()
    rng = SeededRandom(seed)
    arrivals, pairs = rng.fork("arrivals"), rng.fork("pairs")
    kept = max(p for p, size in DATA_MINING_CDF if size <= RPC_MAX_SIZE)
    sizes = EmpiricalFlowSizes(
        [(p / kept, size) for p, size in DATA_MINING_CDF if size <= RPC_MAX_SIZE],
        rng.fork("sizes"),
    )
    horizon_ns = RPC["weeks"] * rdcn.week_ns
    mean_gap_ns = 0.8 * horizon_ns / RPC["flows"]
    hosts = rdcn.n_hosts_per_rack - 1
    flows = []
    start_ns = 0.0
    for _ in range(RPC["flows"]):
        start_ns += arrivals.expovariate(1.0 / mean_gap_ns)
        src_rack = pairs.randint(0, 1)
        flows.append(TraceFlow(
            start_ns=int(start_ns),
            src=f"r{src_rack}h{pairs.randint(0, hosts)}",
            dst=f"r{1 - src_rack}h{pairs.randint(0, hosts)}",
            size_bytes=sizes.sample(),
        ))
    write_trace(path, flows)
    return len(flows)


def make_spec(workload: str, seed: int, work: Path) -> dict:
    spec = {"workload": workload, "seed": seed}
    if workload == "fig7_bulk":
        spec.update(FIG7)
    elif workload == "rpc_churn":
        trace = work / "rpc_trace.csv"
        spec.update(weeks=RPC["weeks"], trace_path=str(trace), rows=write_rpc_trace(trace, seed))
    else:
        rng = random.Random(seed)
        spec.update(
            seeds=rng.sample(range(1, 1_000_000), CAMPAIGN["n_seeds"]),
            weeks=CAMPAIGN["weeks"], n_flows=CAMPAIGN["n_flows"], jobs=CAMPAIGN["jobs"],
        )
    return spec


# ----------------------------------------------------------------------
# Iterations
# ----------------------------------------------------------------------
class IterationError(RuntimeError):
    pass


def run_child(spec_path: Path, out_path: Path, traced: bool, deadline: float) -> dict:
    """One iteration in a fresh interpreter; returns its OUT.json plus
    ``setup_s`` measured from the launch."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "child.py"), str(spec_path), str(out_path)]
    if traced:
        cmd.append("--trace")
    launched = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=str(out_path.parent), env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    try:
        output, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise IterationError("iteration exceeded the run's time budget")
    finally:
        try:  # pool workers or a manager left behind by a crash
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0 or not out_path.exists():
        raise IterationError(f"iteration exited with {proc.returncode}:\n{output[-4000:]}")
    doc = json.loads(out_path.read_text())
    doc["setup_s"] = doc["first_event"] - launched if doc.get("first_event") else None
    if not traced:
        doc["speed_index"] = speed_index(doc["host_speed"])
        doc["scale"] = REFERENCE_S / doc["speed_index"]
    return doc


def host_s(its, key: str) -> float:
    """Median of an unscaled host time, for the readable report."""
    return statistics.median(it[key] for it in its)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(its) -> dict:
    """Medians over iterations of times scaled to the reference host
    speed (each iteration by its own ``scale``); the run-time
    percentiles pool the scaled runs of every iteration."""
    run_s = [s * it["scale"] for it in its for s in it["run_s"]]

    def med(fn):
        return statistics.median(fn(it, it["wall_s"] * it["scale"]) for it in its)

    return {
        "setup_s": (med(lambda it, wall: it["setup_s"] * it["scale"]), "s"),
        "wall_s": (med(lambda it, wall: wall), "s"),
        "flows_per_s": (med(lambda it, wall: it["flows"] / wall), "1/s"),
        "runs_per_hour": (med(lambda it, wall: 3600.0 * it["runs"] / wall), "1/h"),
        "run_s_p50": (percentile(run_s, 0.50), "s"),
        "run_s_p95": (percentile(run_s, 0.95), "s"),
        "peak_rss_mb": (statistics.median(it["peak_rss_mb"] for it in its), "MB"),
    }


def per_layer(plain, traced) -> dict:
    """Per-layer metrics from the traced iterations: self times are
    medians, counts come from the first (they repeat exactly). Pool
    metrics read 0 where no pool runs."""
    def med(fn):
        return statistics.median(fn(it["trace"], it) for it in traced)

    def self_s(layer):
        return med(lambda t, it: t["self_s"].get(layer, 0.0))

    counts = traced[0]["trace"]["counts"]
    calls = traced[0]["trace"]["calls"]
    values = traced[0]["values"]
    acks = calls.get("TCPConnection._handle_ack", 0)
    events = counts.get("events", 0)
    retx = counts.get("retransmissions", 0)
    ticks = calls.get("TDTCPConnection._on_pace_tick", 0)
    pool = counts.get("pool_hits", 0) + counts.get("pool_misses", 0)

    def spawn_s(t, it):
        firsts = t["worker_first_run"]
        return min(firsts) - it["first_event"] if firsts else 0.0

    def busy_ratio(t, it):
        return t["worker_busy_s"] / (values.get("jobs", 1) * it["wall_s"])

    metrics = {
        "core.pace_ticks": (ticks, "count"),
        "core.pace_tick_useful_ratio": (counts.get("pace_useful", 0) / ticks if ticks else 0.0, "ratio"),
        "core.self_s": (self_s("core"), "s"),
        "core.tdn_switches": (counts.get("tdn_switches", 0), "count"),
        "sim.timer_fires": (counts.get("timer_fires", 0), "count"),
        "tcp.self_s": (self_s("tcp"), "s"),
        "tcp.acks": (acks, "count"),
        "tcp.ns_per_ack": (self_s("tcp") * 1e9 / acks if acks else 0.0, "ns"),
        "tcp.segments_sent": (counts.get("segments_sent", 0), "count"),
        "tcp.retransmissions": (retx, "count"),
        "tcp.retx_useful_ratio": (1.0 - counts.get("spurious_retransmissions", 0) / retx if retx else 1.0, "ratio"),
        "tcp.rtos": (counts.get("rtos", 0), "count"),
        "tcp.connections": (counts.get("connections", 0), "count"),
        "sim.self_s": (self_s("sim"), "s"),
        "sim.events": (events, "count"),
        "sim.ns_per_event": (self_s("sim") * 1e9 / events if events else 0.0, "ns"),
        "sim.heap_pushes": (counts.get("heap_pushes", 0), "count"),
        "sim.max_heap_len": (counts.get("max_heap_len", 0), "count"),
        "sim.pool_hit_rate": (counts.get("pool_hits", 0) / pool if pool else 0.0, "ratio"),
        "net.self_s": (self_s("net"), "s"),
        "net.packets_sent": (calls.get("Link.send", 0), "count"),
        "net.queue_drops": (counts.get("queue_drops", 0), "count"),
        "net.ecn_marks": (counts.get("ecn_marks", 0), "count"),
        "rdcn.self_s": (self_s("rdcn"), "s"),
        "rdcn.uplink_enqueues": (calls.get("RackUplink.enqueue", 0), "count"),
        "rdcn.tdn_boundaries": (counts.get("tdn_boundaries", 0), "count"),
        "rdcn.notifications": (counts.get("notifications", 0), "count"),
        "retcp.self_s": (self_s("retcp"), "s"),
        "mptcp.self_s": (self_s("mptcp"), "s"),
        "mptcp.reinjections": (counts.get("reinjections", 0), "count"),
        "metrics.self_s": (self_s("metrics"), "s"),
        "apps.self_s": (self_s("apps"), "s"),
        "apps.flows_started": (counts.get("engine_started", 0) + counts.get("bulk_flows", 0), "count"),
        "apps.flows_completed": (counts.get("engine_completed", 0), "count"),
        "obs.self_s": (self_s("obs"), "s"),
        "experiments.self_s": (self_s("experiments"), "s"),
        "experiments.runs_executed": (calls.get("run_experiment", 0), "count"),
        "experiments.cache_hits": (values.get("cache_hits", 0), "count"),
        "experiments.cache_put_ms": (med(lambda t, it: t["span_s"].get("ResultCache.put", 0.0)) * 1e3, "ms"),
        "experiments.serialize_ms": (med(lambda t, it: t["span_s"].get("ExperimentResult.to_dict", 0.0)
                                         + t["span_s"].get("ExperimentResult.from_dict", 0.0)) * 1e3, "ms"),
        "experiments.spawn_s": (med(spawn_s), "s"),
        "experiments.worker_wait_s": (self_s("experiments.wait"), "s"),
        "experiments.worker_busy_ratio": (med(busy_ratio), "ratio"),
        "experiments.cache_replay_s": (med(lambda t, it: it["values"].get("cache_replay_s", 0.0)), "s"),
        "trace.overhead_ratio": (
            statistics.median(it["wall_s"] for it in traced)
            / statistics.median(it["wall_s"] for it in plain), "ratio"),
        "trace.unattributed_ratio": (
            med(lambda t, it: t["parent_unattributed_s"] / t["root_s"] if t["root_s"] else 0.0), "ratio"),
    }
    return metrics


#: Per-layer metrics of the process pool, cache and journal, which only
#: campaign_sweep runs; the other workloads report them as 0.
POOL_ONLY = {
    "experiments.cache_hits", "experiments.cache_put_ms", "experiments.spawn_s",
    "experiments.worker_wait_s", "experiments.worker_busy_ratio",
    "experiments.cache_replay_s",
}


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def check_outputs(its, reference) -> list:
    """Every iteration's own checks, agreement between iterations (traced
    and untraced alike), and for the default seed the pinned reference."""
    problems = []
    for n, it in enumerate(its):
        problems.extend(f"iteration {n}: {c}" for c in it["checks"])
    digests = {it["output_sha256"] for it in its}
    if len(digests) != 1:
        problems.append(f"iterations disagree on output_sha256: {sorted(digests)}")
    if reference is not None:
        if its[0]["output_sha256"] != reference["output_sha256"]:
            problems.append(
                f"output_sha256 {its[0]['output_sha256']} != reference {reference['output_sha256']}"
            )
        for key, want in reference["values"].items():
            got = its[0]["values"].get(key)
            if got != want:
                problems.append(f"value {key} = {got!r}, reference {want!r}")
    return problems


# ----------------------------------------------------------------------
# Main
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("fig7_bulk", "rpc_churn", "campaign_sweep"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=42.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro; run from a repository checkout",
              file=sys.stderr)
        return 2

    # A terminated run still unwinds, so its iteration's process group
    # is killed and the work directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    started = time.monotonic()
    deadline = started + args.seconds + LAST_ITERATION_BUDGET_S
    work = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    try:
        spec_path = work / "spec.json"
        spec_path.write_text(json.dumps(make_spec(args.workload, args.seed, work)))
        plain, traced = [], []
        durations = []
        n = 0
        # Start another iteration only if it should end within --seconds,
        # judged by the slower of the last two (traced and untraced
        # iterations alternate).
        while (
            n < MIN_ITERATIONS * (1 + args.trace)
            or time.monotonic() - started + max(durations[-2:]) <= args.seconds
        ):
            trace_this = bool(args.trace) and n % 2 == 1
            begun = time.monotonic()
            doc = run_child(spec_path, work / f"it{n}.json", trace_this, deadline)
            durations.append(time.monotonic() - begun)
            (traced if trace_this else plain).append(doc)
            n += 1
    except IterationError as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is still using it

    its = plain + traced
    reference = None
    if args.seed == DEFAULT_SEED:
        reference = json.loads(REFERENCE.read_text()).get(args.workload)
    problems = check_outputs(its, reference)
    if args.seed == DEFAULT_SEED and reference is None:
        problems.append(f"no reference for {args.workload} in {REFERENCE.name}")
    attempted = sum(it["ops"] for it in its)
    failed = sum(it["failed_ops"] for it in its)
    if problems:
        failed = max(failed, 1)

    e2e = end_to_end(plain)
    layers = per_layer(plain, traced) if args.trace else {}
    print(f"workload {args.workload}  seed {args.seed}  iterations {len(plain)} untraced"
          + (f", {len(traced)} traced" if args.trace else ""))
    for name, (value, unit) in e2e.items():
        print(f"  {name:<34} {value:>14.6g} {unit}")
    print(f"  {'host_wall_s (unscaled)':<34} {host_s(plain, 'wall_s'):>14.6g} s")
    print(f"  {'host_setup_s (unscaled)':<34} {host_s(plain, 'setup_s'):>14.6g} s")
    print(f"  {'speed_index':<34} {host_s(plain, 'speed_index'):>14.6g} s"
          f" (reference {REFERENCE_S} s)")
    print(f"  {'per iteration (host wall_s)':<34} "
          + " ".join(f"{it['wall_s']:.3f}" for it in plain))
    print(f"  {'per iteration (scaled wall_s)':<34} "
          + " ".join(f"{it['wall_s'] * it['scale']:.3f}" for it in plain))
    print(f"  {'failed_ratio':<34} {failed / attempted:>14.6g} ratio ({failed}/{attempted} operations)")
    print(f"  {'output_sha256':<34} {its[0]['output_sha256']}")
    print(f"  {'values':<34} {json.dumps(its[0]['values'], sort_keys=True)}")
    gains = its[0]["values"].get("gains")
    if gains:
        print("  " + "  ".join(f"{k} {v:+.1%}" for k, v in gains.items()))
    for name, (value, unit) in layers.items():
        if name in POOL_ONLY and args.workload != "campaign_sweep":
            continue
        print(f"  {name:<34} {value:>14.6g} {unit}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")

    chosen = layers if args.trace else e2e
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
