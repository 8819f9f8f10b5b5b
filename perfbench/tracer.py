"""Per-layer tracing installed from outside the program.

``Tracer.install()`` replaces entry points of the ``repro`` packages
with wrappers that keep a span stack in memory. A layer's self time is
the time its spans cover minus the time of the spans they called.
Every simulator event is attributed too: each ``Simulator`` gets an
event profiler (the simulator's own ``profiler`` hook) that charges the
callback's time, minus the wrapped spans it called, to the package the
callback's code lives in. Counts are read at the end from state the
program already keeps (``Simulator.event_core_stats()``, ``ConnStats``,
queue ``drops``/``marks``, notifier and schedule-driver counters).

Install before any testbed is built: wrappers replace class attributes,
so bound methods captured earlier (timer callbacks, subscriptions) keep
the originals. Nothing here changes what the program computes; the
benchmark checks that by comparing output hashes of traced and
untraced runs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

LAYERS = (
    "sim", "net", "rdcn", "tcp", "core", "retcp", "mptcp",
    "apps", "obs", "metrics", "experiments",
)
#: Self time of code no layer claims: the benchmark's own code between
#: spans, callbacks defined outside ``repro``, and ``faults``.
UNATTRIBUTED = "unattributed"
#: Parent-side time blocked on pool workers; waiting, not work.
WAIT = "experiments.wait"


def _layer_of_file(filename: str) -> str:
    parts = filename.replace("\\", "/").split("/")
    for i in range(len(parts) - 2, -1, -1):
        if parts[i] == "repro" and parts[i + 1] in LAYERS:
            return parts[i + 1]
    return UNATTRIBUTED


class Tracer:
    """Span stack, per-layer self time and call counts for one process."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        # Frames are [layer, child_seconds, hosts_events].
        self.stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.span_s: Dict[str, float] = defaultdict(float)
        #: ``time.monotonic()`` when the first run started in this process.
        self.first_run: Optional[float] = None
        self.event_child = 0.0
        self.timer_fires = 0
        self.pace_useful = 0
        self.instances: Dict[str, list] = defaultdict(list)
        self.totals: Dict[str, int] = defaultdict(int)
        self._layer_cache: Dict[object, str] = {}
        self._timer_fire = None

    # ------------------------------------------------------------------
    # Spans
    # ------------------------------------------------------------------
    def _close(self, name: str, layer: str, elapsed: float, child: float) -> None:
        self.self_s[layer] += elapsed - child
        self.calls[name] += 1
        self.span_s[name] += elapsed
        if self.stack:
            parent = self.stack[-1]
            if parent[2]:
                self.event_child += elapsed
            else:
                parent[1] += elapsed

    def wrap(self, fn: Callable, name: str, layer: str, hosts_events: bool = False):
        stack = self.stack
        clock = self.clock
        close = self._close

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, 0.0, hosts_events]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(name, layer, elapsed, frame[1])

        return span

    def root(self, fn: Callable, *args, **kwargs):
        """Call ``fn`` under a root span whose self time is unattributed."""
        return self.wrap(fn, "root", UNATTRIBUTED)(*args, **kwargs)

    # ------------------------------------------------------------------
    # Event attribution (Simulator.profiler protocol)
    # ------------------------------------------------------------------
    def layer_of(self, fn) -> str:
        func = getattr(fn, "__func__", fn)
        while hasattr(func, "__wrapped__"):
            func = func.__wrapped__
        if func is self._timer_fire:
            return self.layer_of(fn.__self__._fn)
        code = getattr(func, "__code__", None)
        key = code if code is not None else type(func)
        layer = self._layer_cache.get(key)
        if layer is None:
            if code is not None:
                layer = _layer_of_file(code.co_filename)
            else:
                module = getattr(func, "__module__", None) or ""
                parts = module.split(".")
                layer = parts[1] if len(parts) > 1 and parts[0] == "repro" and parts[1] in LAYERS else UNATTRIBUTED
            self._layer_cache[key] = layer
        return layer

    def run_started(self) -> None:
        pass

    def record(self, fn, elapsed: float) -> None:
        func = getattr(fn, "__func__", None)
        if func is self._timer_fire:
            self.timer_fires += 1
        self.self_s[self.layer_of(fn)] += elapsed - self.event_child
        self.event_child = 0.0
        self.stack[-1][1] += elapsed

    def run_finished(self, processed: int) -> None:
        pass

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def _span_method(self, cls, attr: str, layer: str, hosts_events: bool = False) -> None:
        setattr(
            cls, attr,
            self.wrap(getattr(cls, attr), f"{cls.__name__}.{attr}", layer, hosts_events),
        )

    @staticmethod
    def _replace_everywhere(original, replacement) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name."""
        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, replacement)

    def _span_function(self, module, attr: str, layer: str) -> None:
        original = getattr(module, attr)
        self._replace_everywhere(original, self.wrap(original, attr, layer))

    def _register(self, cls, kind: str, after: Optional[Callable] = None) -> None:
        """Keep every new instance of ``cls`` (and its subclasses, whose
        ``__init__`` chains up) until :meth:`harvest` reads it."""
        original = cls.__init__
        bucket = self.instances[kind]

        @functools.wraps(original)
        def init(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            bucket.append(obj)
            if after is not None:
                after(obj)

        cls.__init__ = init

    def install(self) -> None:
        from repro.apps import engine as apps_engine
        from repro.apps import workload as apps_workload
        from repro.core.tdn_state import PerTDNState
        from repro.core.tdtcp import TDTCPConnection
        from repro.experiments import executor, figures, runner
        from repro.metrics import collectors, seqgraph
        from repro.mptcp.connection import MPTCPConnection, MPTCPStats
        from repro.net.link import Link
        from repro.net.queues import DropTailQueue
        from repro.obs import campaign, sketch
        from repro.rdcn.fabric import RackUplink
        from repro.rdcn.notifier import TDNNotifier
        from repro.rdcn.schedule import ScheduleDriver
        from repro.retcp.dynbuf import DynamicBufferController
        from repro.retcp.retcp import ReTCPConnection
        from repro.sim.simulator import Simulator
        from repro.sim.timers import Timer
        from repro.tcp.connection import ConnStats, TCPConnection

        self._timer_fire = Timer._fire

        # sim: the run loop hosts every event; the profiler hook splits
        # each event's time by the layer of its callback.
        self._span_method(Simulator, "run", "sim", hosts_events=True)

        def attach_profiler(sim) -> None:
            sim.profiler = self

        self._register(Simulator, "sim", attach_profiler)

        # net / rdcn: packet hand-offs between layers.
        self._span_method(Link, "send", "net")
        self._span_method(RackUplink, "enqueue", "rdcn")
        self._span_method(RackUplink, "set_active", "rdcn")
        self._register(DropTailQueue, "queue")
        self._register(ScheduleDriver, "driver")
        self._register(TDNNotifier, "notifier")

        # tcp: receive path, ACK path, send loop and timer callbacks.
        for attr in ("receive", "_handle_ack", "_maybe_send", "_on_rto",
                     "_on_delack_timer", "_on_reorder_timer", "_on_tlp_timer"):
            self._span_method(TCPConnection, attr, "tcp")
        self._register(ConnStats, "conn_stats")

        # core: TDTCP's per-TDN state swap and post-switch pacing.
        for attr in ("set_current_tdn", "_on_tdn_notification", "_maybe_send"):
            self._span_method(TDTCPConnection, attr, "core")
        tick = self.wrap(TDTCPConnection._on_pace_tick, "TDTCPConnection._on_pace_tick", "core")

        def pace_tick(conn) -> None:
            stats = conn.stats
            before = stats.segments_sent + stats.retransmissions
            tick(conn)
            if stats.segments_sent + stats.retransmissions != before:
                self.pace_useful += 1

        TDTCPConnection._on_pace_tick = functools.wraps(tick)(pace_tick)
        self._register(PerTDNState, "tdn_state")

        # Completion callbacks run inside tcp's receive path but belong
        # to whoever registered them (the runner's sequence collector,
        # the workload engine): a property wraps each one on assignment.
        tracer = self

        def get_on_delivered(conn):
            return conn.__dict__.get("_traced_on_delivered")

        def set_on_delivered(conn, fn) -> None:
            if fn is not None:
                fn = tracer.wrap(fn, "on_delivered", tracer.layer_of(fn))
            conn.__dict__["_traced_on_delivered"] = fn

        TCPConnection.on_delivered = property(get_on_delivered, set_on_delivered)

        # retcp / mptcp.
        for attr in ("_handle_ack", "ramp_up", "ramp_down"):
            self._span_method(ReTCPConnection, attr, "retcp")
        for attr in ("_before_circuit", "_day_started", "_night_started"):
            self._span_method(DynamicBufferController, attr, "retcp")
        for attr in ("pump", "next_chunk_for", "update_dss_ack", "on_subflow_data",
                     "set_active_tdn", "request_reinjection", "_on_tdn_notification"):
            self._span_method(MPTCPConnection, attr, "mptcp")
        self._register(MPTCPStats, "mptcp_stats")

        # apps: the workload engine and the bulk-flow set-up.
        for attr in ("_arrive", "_launch", "_cleanup", "finish"):
            self._span_method(apps_engine.WorkloadEngine, attr, "apps")
        self._register(apps_engine.CompletionStats, "completion_stats")
        build = self.wrap(apps_workload.build_workload, "build_workload", "apps")

        @functools.wraps(build)
        def build_and_count(*args, **kwargs):
            workload = build(*args, **kwargs)
            self.totals["bulk_flows"] += len(workload.flows)
            return workload

        self._replace_everywhere(apps_workload.build_workload, build_and_count)
        self._span_function(apps_engine, "load_trace", "apps")

        # obs / metrics.
        self._span_method(sketch.QuantileSketch, "add", "obs")
        self._span_function(sketch, "sketch_from_samples", "obs")
        self._span_method(campaign.CampaignLog, "emit", "obs")
        self._span_method(collectors.QueueOccupancyCollector, "_on_change", "metrics")
        for attr in ("record_events", "per_day_counts"):
            self._span_method(collectors.EventCounterCollector, attr, "metrics")
        for attr in ("fold_series_by_week", "tile_weeks", "optimal_curve", "constant_rate_curve"):
            self._span_function(seqgraph, attr, "metrics")

        # experiments: run assembly, serialization, cache and executor.
        # Counters are read off each run's objects as it returns, so a
        # worker running many runs holds no finished testbed.
        run = self.wrap(runner.run_experiment, "run_experiment", "experiments")

        @functools.wraps(run)
        def run_and_harvest(config):
            if self.first_run is None:
                self.first_run = time.monotonic()
            try:
                return run(config)
            finally:
                self.harvest()

        self._replace_everywhere(runner.run_experiment, run_and_harvest)
        self._span_function(figures, "_process_run", "experiments")
        self._span_method(runner.ExperimentResult, "to_dict", "experiments")
        self._span_method(runner.ExperimentResult, "from_dict", "experiments")
        self._span_method(executor.ResultCache, "get", "experiments")
        self._span_method(executor.ResultCache, "put", "experiments")
        self._span_method(executor.ExperimentExecutor, "run_batch", "experiments")
        self._span_function(executor, "execute_config_dict", "experiments")
        self._span_function(executor, "wait", WAIT)

    # ------------------------------------------------------------------
    # Read-out
    # ------------------------------------------------------------------
    def harvest(self) -> None:
        """Add the counters of every registered object to the totals and
        drop the objects."""
        sims = [sim.event_core_stats() for sim in self.instances["sim"]]
        conn_stats = self.instances["conn_stats"]
        queues = self.instances["queue"]
        completion = self.instances["completion_stats"]
        totals = self.totals
        totals["max_heap_len"] = max(
            [totals["max_heap_len"]] + [s["max_heap_len"] for s in sims]
        )
        for key, value in (
            ("events", sum(s["processed_events"] for s in sims)),
            ("heap_pushes", sum(s["heap_pushes"] for s in sims)),
            ("pool_hits", sum(s["pool_hits"] for s in sims)),
            ("pool_misses", sum(s["pool_misses"] for s in sims)),
            ("connections", len(conn_stats)),
            ("segments_sent", sum(c.segments_sent for c in conn_stats)),
            ("retransmissions", sum(c.retransmissions for c in conn_stats)),
            ("spurious_retransmissions", sum(c.spurious_retransmissions for c in conn_stats)),
            ("rtos", sum(c.rtos for c in conn_stats)),
            ("queue_drops", sum(q.drops for q in queues)),
            ("ecn_marks", sum(getattr(q, "marks", 0) for q in queues)),
            ("tdn_switches", sum(t.switches for t in self.instances["tdn_state"])),
            ("tdn_boundaries", sum(d.day_index for d in self.instances["driver"])),
            ("notifications", sum(n.notifications_sent for n in self.instances["notifier"])),
            ("reinjections", sum(m.reinjections for m in self.instances["mptcp_stats"])),
            ("engine_started", sum(c.started for c in completion)),
            ("engine_completed", sum(c.completed for c in completion)),
        ):
            totals[key] += value
        for bucket in self.instances.values():
            del bucket[:]

    def summary(self) -> dict:
        """Raw per-process totals; :func:`merge` adds several together."""
        self.harvest()
        counts = dict(self.totals)
        counts["timer_fires"] = self.timer_fires
        counts["pace_useful"] = self.pace_useful
        return {
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "span_s": dict(self.span_s),
            "first_run": self.first_run,
            "counts": counts,
        }


def merge(summaries: List[dict]) -> dict:
    """Add per-process summaries (pool workers and their parent)."""
    out = {"self_s": defaultdict(float), "calls": defaultdict(int),
           "span_s": defaultdict(float), "counts": defaultdict(int)}
    for summary in summaries:
        for key in ("self_s", "calls", "span_s"):
            for name, value in summary[key].items():
                out[key][name] += value
        for name, value in summary["counts"].items():
            if name == "max_heap_len":
                out["counts"][name] = max(out["counts"][name], value)
            else:
                out["counts"][name] += value
    return {key: dict(value) for key, value in out.items()}
