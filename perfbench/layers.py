"""Per-layer tracing for the traced benchmark run.

The tracer wraps the entry points of each layer of the program from the
benchmark's side: it replaces class attributes and module functions with
timing wrappers at run time and puts the originals back afterwards.
Nothing under ``src/`` changes, and the untraced runs that give the
end-to-end metrics never install it.

Spans are named by layer, not by function, so that where a layer has two
implementations (batched and scalar refresh, ``hill_climb`` and
``anytime_hill_climb``, the persistent and the per-round score matrix)
both report under one name, and a name outlives the deletion of either path.
An entry point that no longer exists is skipped.

Every span accumulates its *self* time: its duration minus the time its
nested spans cover.  All ``*_s`` layer metrics are self times, so they
are disjoint and add up to the traced ``run_s`` less the time no span
covers (the open-loop request generator and the asyncio loop).
Spans are aggregated per name as they close rather than kept one by one,
so tracing adds no memory that grows with the run.  Only the main thread
is traced; the snapshot writer thread calls no wrapped function.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

from workloads import percentile

#: Span name -> the (module, attribute path) entry points it wraps.
SPANS = {
    "des.push": [
        ("repro.des.simulator", "Simulator.at"),
        ("repro.des.simulator", "Simulator.at_many"),
    ],
    "engine.run": [
        ("repro.des.simulator", "Simulator.run"),
        ("repro.engine.datacenter", "DatacenterSimulation.run"),
        ("repro.engine.datacenter", "DatacenterSimulation.finalize"),
    ],
    "engine.actuate": [
        ("repro.engine.actuators", "ActuatorsMixin.apply_action"),
    ],
    "refresh.shares": [
        ("repro.engine.datacenter", "DatacenterSimulation._solve_shares_batched"),
        ("repro.cluster.host", "Host.recompute_shares"),
    ],
    "refresh.reschedule": [
        ("repro.engine.datacenter",
         "DatacenterSimulation._reschedule_completions_batched"),
        ("repro.engine.datacenter", "DatacenterSimulation._reschedule_completion"),
    ],
    "refresh.metrics": [
        ("repro.engine.metrics", "MetricsCollector.refresh_hosts"),
        ("repro.engine.metrics", "MetricsCollector.refresh_power"),
        ("repro.engine.metrics", "MetricsCollector.refresh"),
        ("repro.engine.metrics", "MetricsCollector.host_changed"),
    ],
    "score.decide": [
        ("repro.scheduling.score.policy", "ScoreBasedPolicy.decide"),
    ],
    "score.sync": [
        ("repro.scheduling.score.columnar", "ColumnarClusterState.sync"),
    ],
    "score.bind": [
        ("repro.scheduling.score.persistent", "PersistentScoreMatrix.bind_round"),
        ("repro.scheduling.score.matrix", "ScoreMatrixBuilder.__init__"),
    ],
    "score.solve": [
        ("repro.scheduling.score.solver", "hill_climb"),
        ("repro.scheduling.score.solver", "anytime_hill_climb"),
    ],
    "pm.control": [
        ("repro.scheduling.power_manager", "PowerManager.control"),
    ],
    "snapshot.write": [
        ("repro.engine.snapshot", "EngineSnapshotter.write"),
    ],
    "snapshot.flush": [
        ("repro.engine.snapshot", "EngineSnapshotter.flush"),
    ],
    "service.admit": [
        ("repro.service.engine", "ServiceEngine.admit"),
    ],
    "service.journal": [
        ("repro.service.journal", "DecisionJournal.append_indexed"),
        ("repro.service.journal", "DecisionJournal.append"),
        ("repro.service.journal", "DecisionJournal.close"),
    ],
    "workload.gen": [
        ("repro.workload.synthetic", "Grid5000WeekGenerator.generate"),
    ],
}

#: Generator entry points: each resume of the generator is one span.
GENERATOR_SPANS = {
    "workload.gen": [("repro.workload.stream", "JobStream.__iter__")],
}

#: Counted, untimed entry points: counter name -> (module, path, count fn).
#: ``count(result, args)`` returns how much to add to the counter.
COUNTERS = {
    "refresh.share_solves": [
        ("repro.cluster.xen", "compute_shares_batch",
         lambda result, args: len(args[0])),
        ("repro.cluster.xen", "CreditScheduler.allocate_arrays",
         lambda result, args: 1),
    ],
    "refresh.memo_lookups": [
        ("repro.cluster.xen", "ShareMemo.get", lambda result, args: 1),
    ],
    "refresh.memo_hits": [
        ("repro.cluster.xen", "ShareMemo.get",
         lambda result, args: result is not None),
    ],
}


def _resolve(module: str, path: str):
    """(owner, attribute name, original) of an entry point, or None."""
    owner = sys.modules[module]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    name = parts[-1]
    original = getattr(owner, name, None)
    return None if original is None else (owner, name, original)


class Tracer:
    """Layer spans and counters for one traced repetition."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: Per-call samples (ms) for the spans reported as percentiles.
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Service request due times keyed by submit time (see note_due).
        self._due_by_at: Dict[float, float] = {}
        self._undo: List[tuple] = []

    # ---------------------------------------------------------- accounting

    def _enter(self) -> float:
        self._stack.append(0.0)
        return self._clock()

    def _exit(self, name: str, t0: float) -> float:
        dt = self._clock() - t0
        stack = self._stack
        child = stack.pop()
        if stack:
            stack[-1] += dt
        self.self_s[name] += dt - child
        self.calls[name] += 1
        return dt

    # ------------------------------------------------------------- wrapping

    def _patch(self, owner, name: str, original, replacement) -> None:
        """Replace ``owner.name`` and every ``repro`` module's alias of it.

        Modules that imported a function by name hold their own binding;
        those are patched too, so the wrapper sees every call.
        """
        functools.update_wrapper(replacement, original)
        targets = [owner]
        if isinstance(owner, type(sys)):
            targets += [
                mod for key, mod in list(sys.modules.items())
                if key.startswith("repro") and mod is not owner
                and getattr(mod, name, None) is original
            ]
        for target in targets:
            self._undo.append((target, name, target.__dict__.get(name)))
            setattr(target, name, replacement)

    def _span(self, name: str, original):
        enter, exit_ = self._enter, self._exit
        after = _AFTER.get(name)
        tracer = self

        def traced(*args, **kwargs):
            t0 = enter()
            try:
                result = original(*args, **kwargs)
            finally:
                dt = exit_(name, t0)
            if after is not None:
                after(tracer, args, result, t0, dt)
            return result

        return traced

    def _generator_span(self, name: str, original):
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            it = original(*args, **kwargs)
            while True:
                t0 = enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    exit_(name, t0)
                yield item

        return traced

    def _counter(self, name: str, original, count):
        counts = self.counts

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            counts[name] += count(result, args)
            return result

        return counted

    def install(self) -> None:
        """Wrap every entry point that exists in this program version."""
        # Import every named module first, so that the alias scan in
        # _patch sees each module that imported a function by name.
        tables = list(SPANS.values()) + list(GENERATOR_SPANS.values())
        tables += list(COUNTERS.values())
        for entries in tables:
            for entry in entries:
                __import__(entry[0])
        for kind, table in (
            (self._span, SPANS),
            (self._generator_span, GENERATOR_SPANS),
        ):
            for name, entries in table.items():
                for module, path in entries:
                    found = _resolve(module, path)
                    if found is not None:
                        owner, attr, original = found
                        self._patch(owner, attr, original, kind(name, original))
        # Counters wrap after the spans, outermost, so a counted entry
        # point that is also a span keeps its span timing.
        for name, entries in COUNTERS.items():
            for module, path, count in entries:
                found = _resolve(module, path)
                if found is not None:
                    owner, attr, original = found
                    self._patch(
                        owner, attr, original, self._counter(name, original, count)
                    )
        self._wrap_shed()

    def _wrap_shed(self) -> None:
        from repro.service.engine import ServiceEngine

        original = ServiceEngine.note_shed
        counts = self.counts

        def note_shed(svc, reason, job_id=None):
            counts[f"service.sheds.{reason}"] += 1
            return original(svc, reason, job_id)

        self._patch(ServiceEngine, "note_shed", original, note_shed)

    def uninstall(self) -> None:
        """Put every original back (newest patch first)."""
        for target, name, previous in reversed(self._undo):
            if previous is None:
                delattr(target, name)
            else:
                setattr(target, name, previous)
        self._undo.clear()

    # -------------------------------------------------------------- service

    def note_due(self, at: float, due: float) -> None:
        """Record when the request with simulated submit time ``at`` was due.

        Synthetic submit times strictly increase, and the control plane
        admits a request at its own submit time, so the admitted job's
        ``submit_time`` identifies the request it came from.
        """
        self._due_by_at[at] = due

    # -------------------------------------------------------------- metrics

    def layer_metrics(
        self,
        result,
        run_s: float,
        lag_ms: Optional[List[float]] = None,
        slo_miss_frac: float = 0.0,
    ) -> Dict[str, float]:
        """Every per-layer metric of this repetition (zero where unused)."""
        s, c = self.self_s, self.counts
        stats = result.rescore_stats or {}
        lookups = c["refresh.memo_lookups"]
        out = {
            "des.events": result.sim_events,
            "des.push_calls": self.calls["des.push"],
            "des.push_s": s["des.push"],
            "engine.self_s": s["engine.run"],
            "engine.actuate_s": s["engine.actuate"],
            "engine.actions": self.calls["engine.actuate"],
            "engine.actions_rejected": c["engine.actions_rejected"],
            "refresh.shares_s": s["refresh.shares"],
            "refresh.share_solves": c["refresh.share_solves"],
            "refresh.share_memo_hit_rate": (
                c["refresh.memo_hits"] / lookups if lookups else 0.0
            ),
            "refresh.reschedule_s": s["refresh.reschedule"],
            "refresh.metrics_s": s["refresh.metrics"],
            "score.rounds": self.calls["score.decide"],
            "score.sync_s": s["score.sync"],
            "score.bind_s": s["score.bind"],
            "score.solve_s": s["score.solve"],
            "score.moves": c["score.moves"],
            "score.decide_self_s": s["score.decide"],
            "score.rescore_frac": (
                stats["cells_rescored"] / stats["cells_total"]
                if stats.get("cells_total") else 0.0
            ),
            "score.matrix_mb": stats.get("matrix_nbytes", 0.0) / 1e6,
            "pm.control_s": s["pm.control"],
            "pm.turn_ons": c["pm.turn_ons"],
            "pm.turn_offs": c["pm.turn_offs"],
            "snapshot.count": result.checkpoints_written,
            "snapshot.write_s": s["snapshot.write"],
            "snapshot.flush_wait_s": s["snapshot.flush"],
            "snapshot.mb": result.checkpoint_bytes / 1e6,
            "service.journal_s": s["service.journal"],
            "service.journal_records": c["service.journal_records"],
            "service.sheds_queue_full": c["service.sheds.queue_full"],
            "service.sheds_deadline": c["service.sheds.deadline"],
            "service.deferred": c["service.deferred"],
            "service.slo_miss_frac": slo_miss_frac,
            "workload.gen_s": s["workload.gen"],
            "trace.run_s": run_s,
            "trace.span_coverage": sum(s.values()) / run_s if run_s else 0.0,
        }
        for key, samples in (
            ("service.queue_wait", self.samples["service.queue_wait"]),
            ("service.admit", self.samples["service.admit"]),
            ("driver.lag", lag_ms or []),
        ):
            out[f"{key}_p50_ms"] = percentile(samples, 50) if samples else 0.0
            out[f"{key}_p99_ms"] = percentile(samples, 99) if samples else 0.0
            out[f"{key}_samples"] = len(samples)
        return out


# ------------------------------------------------- per-span result hooks


def _after_actuate(tracer, args, applied, t0, dt):
    if applied is False:
        tracer.counts["engine.actions_rejected"] += 1


def _after_decide(tracer, args, actions, t0, dt):
    tracer.counts["score.moves"] += len(actions)


def _after_control(tracer, args, actions, t0, dt):
    for action in actions:
        kind = type(action).__name__
        if kind == "TurnOn":
            tracer.counts["pm.turn_ons"] += 1
        elif kind == "TurnOff":
            tracer.counts["pm.turn_offs"] += 1


def _after_admit(tracer, args, decision, t0, dt):
    job = args[1]
    tracer.samples["service.admit"].append(dt * 1e3)
    due = tracer._due_by_at.get(job.submit_time)
    if due is not None:
        tracer.samples["service.queue_wait"].append((t0 - due) * 1e3)
    if decision.get("status") == "deferred":
        tracer.counts["service.deferred"] += 1


def _after_journal(tracer, args, result, t0, dt):
    tracer.counts["service.journal_records"] = args[0].written


_AFTER = {
    "engine.actuate": _after_actuate,
    "score.decide": _after_decide,
    "pm.control": _after_control,
    "service.admit": _after_admit,
    "service.journal": _after_journal,
}
