"""One benchmark iteration, run in a fresh interpreter by ``run.py``.

Usage: ``python3 perfbench/child.py SPEC.json OUT.json [--trace]``

SPEC.json names the workload and the inputs ``run.py`` generated from
its seed; OUT.json receives the timings, the output checks, the
``output_sha256`` over the simulated results (wall-time fields
stripped), the host-speed samples of untraced iterations
(``calibration.py``) and, with ``--trace``, the per-layer tracer
summary.

Pool workers started by ``campaign_sweep`` import this file as
``__mp_main__`` (the spawn start method re-imports the parent's main
script). Each worker then times its own runs and, when the parent
traces, installs its own tracer, or else samples the host's speed; it
writes these at exit, so per-run times exclude queueing and
worker-side layers are measured too.
"""

from __future__ import annotations

import atexit
import functools
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import HostSpeed  # noqa: E402
from tracer import Tracer, merge  # noqa: E402

#: Directory where pool workers write their run times and traces.
WORKER_DIR_ENV = "PERFBENCH_WORKER_DIR"
#: Set when pool workers should trace.
WORKER_TRACE_ENV = "PERFBENCH_WORKER_TRACE"


def _time_runs(run_s: list) -> None:
    """Append the host time of every ``execute_config_dict`` call in
    this process to ``run_s``. Pool workers call it through
    ``execute_config_dict_hb``, which looks the name up at call time."""
    from repro.experiments import executor

    execute = executor.execute_config_dict

    @functools.wraps(execute)
    def timed_execute(payload):
        start = perf_counter()
        try:
            return execute(payload)
        finally:
            run_s.append(perf_counter() - start)

    executor.execute_config_dict = timed_execute


def _install_worker_probe(directory: str, traced: bool) -> None:
    tracer = speed = None
    if traced:
        tracer = Tracer()
        tracer.install()
    else:
        speed = HostSpeed()
        speed.start()
    run_s = []
    _time_runs(run_s)

    def dump() -> None:
        if speed is not None:
            speed.stop()
        doc = {"run_s": run_s, "trace": tracer.summary() if tracer else None,
               "host_speed": speed.samples if speed else None}
        (Path(directory) / f"worker-{os.getpid()}.json").write_text(json.dumps(doc))

    atexit.register(dump)


if __name__ == "__mp_main__" and os.environ.get(WORKER_DIR_ENV):
    _install_worker_probe(os.environ[WORKER_DIR_ENV], bool(os.environ.get(WORKER_TRACE_ENV)))


def _sha256(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _canonical(result) -> dict:
    """A result as data: config by its content hash (no paths), wall
    clock fields removed."""
    from repro.apps.engine import strip_wall_fields

    doc = result.to_dict()
    doc["config"] = result.config.cache_key()
    doc.pop("events_per_second", None)
    if doc.get("workload_summary") is not None:
        doc["workload_summary"] = strip_wall_fields(doc["workload_summary"])
    return doc


class _Probe:
    """Untraced timing hooks: the first simulated event and the host
    time of each run. One wrapper call per run, not per event."""

    def __init__(self) -> None:
        self.first_event = None
        self.run_s = []

    def install(self) -> None:
        from repro.sim.simulator import Simulator

        run = Simulator.run

        def timed_run(sim, *args, **kwargs):
            if self.first_event is None:
                self.first_event = time.monotonic()
            return run(sim, *args, **kwargs)

        Simulator.run = timed_run
        _time_runs(self.run_s)


def _call(fn, *args, **kwargs):
    return fn(*args, **kwargs)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
def fig7_bulk(spec: dict, work: Path, call) -> dict:
    from repro.experiments.executor import ExperimentExecutor
    from repro.experiments.figures import FULL_VARIANTS, fig7

    executor = ExperimentExecutor(jobs=1)
    start = perf_counter()
    data = call(
        fig7, weeks=spec["weeks"], warmup_weeks=spec["warmup_weeks"],
        n_flows=spec["n_flows"], seed=spec["seed"], executor=executor,
    )
    wall = perf_counter() - start
    checks = []
    for variant, failure in data.failures.items():
        checks.append(f"{variant} failed: {failure.error_type}: {failure.error_message}")
    missing = [v for v in FULL_VARIANTS if v not in data.results and v not in data.failures]
    if missing:
        checks.append(f"variants missing: {missing}")
    tput = data.throughputs_gbps
    gains = {}
    for other in ("cubic", "retcpdyn"):
        if tput.get(other, 0.0) > 0 and "tdtcp" in tput:
            gains[f"tdtcp_vs_{other}"] = tput["tdtcp"] / tput[other] - 1.0
        else:
            checks.append(f"no throughput to compare tdtcp with {other}")
    return {
        "wall_s": wall,
        "ops": len(FULL_VARIANTS),
        "failed_ops": len(data.failures) + len(missing),
        "flows": spec["n_flows"] * len(data.results),
        "runs": len(FULL_VARIANTS),
        "checks": checks,
        "values": {"throughput_gbps": tput, "gains": gains},
        "output": {v: data.results[v] for v in FULL_VARIANTS if v in data.results},
    }


def rpc_churn(spec: dict, work: Path, call) -> dict:
    from repro.experiments.config import ExperimentConfig, WorkloadConfig
    from repro.experiments.runner import run_experiment

    config = ExperimentConfig(
        variant="tdtcp", weeks=spec["weeks"], warmup_weeks=0, seed=spec["seed"],
        workload=WorkloadConfig(kind="trace", trace_path=spec["trace_path"]),
    )
    start = perf_counter()
    result = call(run_experiment, config)
    wall = perf_counter() - start
    checks = []
    summary = result.workload_summary or {}
    if not result.ok:
        checks.append(f"run failed: {result.failure.error_type}: {result.failure.error_message}")
    started = summary.get("started", 0)
    completed = summary.get("completed", 0)
    if started != spec["rows"]:
        checks.append(f"started {started} flows, trace has {spec['rows']} rows")
    if completed + result.truncated_flows != started:
        checks.append(
            f"completed {completed} + truncated {result.truncated_flows} != started {started}"
        )
    if completed < 1:
        checks.append("no flow completed")
    return {
        "wall_s": wall,
        "ops": 1,
        "failed_ops": 0 if result.ok else 1,
        "flows": completed,
        "runs": 1,
        "run_s": [wall],
        "checks": checks,
        "values": {"started": started, "completed": completed,
                   "truncated_flows": result.truncated_flows},
        "output": {"tdtcp": result},
    }


def campaign_sweep(spec: dict, work: Path, call) -> dict:
    from repro.experiments.config import ExperimentConfig
    from repro.experiments.executor import ExperimentExecutor
    from repro.experiments.figures import FULL_VARIANTS
    from repro.obs.campaign import CampaignLog

    configs = [
        ExperimentConfig(
            variant=variant, weeks=spec["weeks"], warmup_weeks=0,
            n_flows=spec["n_flows"], seed=seed,
        )
        for seed in spec["seeds"]
        for variant in FULL_VARIANTS
    ]
    labels = [f"{c.variant}/seed{c.seed}" for c in configs]
    cache_dir = work / "cache"
    first_started = []

    def on_record(record: dict) -> None:
        if record["event"] == "started" and not first_started:
            first_started.append(time.monotonic())

    with CampaignLog(work / "cold.jsonl") as log:
        log.subscribe(on_record)
        cold = ExperimentExecutor(
            jobs=spec["jobs"], cache_dir=str(cache_dir), campaign=log,
            checkpoint_to=str(work / "cold.ckpt.json"),
        )
        start = perf_counter()
        cold_results = call(cold.run_batch, configs, labels=labels)
        wall = perf_counter() - start
        records = list(log.records)
    with CampaignLog(work / "warm.jsonl") as log:
        warm = ExperimentExecutor(
            jobs=spec["jobs"], cache_dir=str(cache_dir), campaign=log,
            checkpoint_to=str(work / "warm.ckpt.json"),
        )
        start = perf_counter()
        warm_results = call(warm.run_batch, configs, labels=labels)
        warm_wall = perf_counter() - start

    checks = []
    failed = [label for label, r in zip(labels, cold_results) if not r.ok]
    if failed:
        checks.append(f"cold runs failed: {failed[:5]}")
    if warm.last_batch.executed != 0:
        checks.append(f"warm leg executed {warm.last_batch.executed} simulations")
    if warm.last_batch.cache_hits != len(configs):
        checks.append(f"warm leg hit the cache {warm.last_batch.cache_hits}/{len(configs)} times")
    return {
        "wall_s": wall,
        "first_event": first_started[0] if first_started else None,
        "ops": 2 * len(configs),
        "failed_ops": len(failed) + sum(not r.ok for r in warm_results),
        "flows": spec["n_flows"] * len(configs),
        "runs": len(configs),
        "checks": checks,
        "values": {"executed": cold.last_batch.executed, "cache_hits": warm.last_batch.cache_hits,
                   "cache_replay_s": warm_wall, "jobs": spec["jobs"]},
        "output": dict(zip(labels, cold_results)),
        "warm_output": dict(zip(labels, warm_results)),
    }


WORKLOADS = {"fig7_bulk": fig7_bulk, "rpc_churn": rpc_churn, "campaign_sweep": campaign_sweep}


def main(argv) -> int:
    spec_path, out_path = Path(argv[0]), Path(argv[1])
    traced = "--trace" in argv[2:]
    spec = json.loads(spec_path.read_text())
    work = out_path.parent / f"{out_path.stem}.work"
    work.mkdir()
    tracer = probe = speed = None
    worker_dir = work / "workers"
    worker_dir.mkdir()
    os.environ[WORKER_DIR_ENV] = str(worker_dir)
    if traced:
        tracer = Tracer()
        tracer.install()
        os.environ[WORKER_TRACE_ENV] = "1"
    else:
        speed = HostSpeed()
        speed.start()
        probe = _Probe()
        probe.install()
    call = tracer.root if tracer is not None else _call
    out = WORKLOADS[spec["workload"]](spec, work, call)
    if speed is not None:
        speed.stop()
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    out["peak_rss_mb"] = (self_rss + child_rss) / 1024.0
    workers = [json.loads(p.read_text()) for p in sorted(worker_dir.glob("*.json"))]
    if tracer is not None:
        parent = tracer.summary()
        workers = [w["trace"] for w in workers]
        out["trace"] = merge([parent] + workers)
        out["trace"]["root_s"] = parent["span_s"].get("root", 0.0)
        out["trace"]["parent_unattributed_s"] = parent["self_s"].get("unattributed", 0.0)
        out["trace"]["worker_first_run"] = [w["first_run"] for w in workers if w["first_run"]]
        out["trace"]["worker_busy_s"] = sum(
            w["span_s"].get("execute_config_dict", 0.0) for w in workers
        )
    else:
        out.setdefault("first_event", probe.first_event)
        out.setdefault("run_s", [s for w in workers for s in w["run_s"]] or probe.run_s)
        # Where pool workers did the work, their samples describe it;
        # the parent mostly waits for them.
        sampled = [w["host_speed"] for w in workers if w["host_speed"]] or [speed.samples]
        out["host_speed"] = {k: [t for ss in sampled for t in ss[k]] for k in speed.samples}
    digest = {key: _canonical(r) for key, r in out.pop("output").items()}
    out["output_sha256"] = _sha256(digest)
    warm = out.pop("warm_output", None)
    if warm is not None and {key: _canonical(r) for key, r in warm.items()} != digest:
        out["checks"].append("warm results differ from cold results")
        out["failed_ops"] = max(out["failed_ops"], 1)
    out_path.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
