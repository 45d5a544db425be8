"""The benchmark's three workloads and one timed repetition of each.

Every workload is the paper's policy (score matrix, hill climb, λ power
manager with the 30/90 thresholds) on the paper datacenter scaled up with
its class ratios kept (15 % fast, 35 % slow, the rest medium), driven by
the synthetic Grid5000 week.  The seed drives both the workload generator
and the engine, so one seed is one set of inputs.

Why each workload exists (see also ``README.md``):

``sb-week-1k``
    1,000 hosts and about 10 jobs per host, no snapshots.  Bind and solve
    take about half the host time and the refresh about a quarter; the
    matrix is small next to the process.  Snapshot and matrix-memory
    changes must predict *no change* here.
``sb-week-10k-ckpt``
    10,000 hosts and about 3.4 jobs per host, with an engine snapshot
    every simulated day.  The persistent matrix is most of the memory and
    snapshots about a sixth of the host time, so matrix-memory and
    snapshot changes show here.
``service-1k-ckpt``
    The ``sb-week-1k`` cluster and job stream sent to the live control
    plane one request at a time, open loop at a fixed rate of about a
    third of its closed-loop capacity, with a journal and daily snapshots.
    Bound by latency, not throughput; the only workload that exercises
    the admission queue, the journal, and snapshot stalls that block
    admissions.

:func:`run_rep` runs one repetition in the calling process.  The caller
(``rep.py``) gives every repetition a fresh process so that ``ru_maxrss``
is this workload's own peak.
"""

from __future__ import annotations

import asyncio
import functools
import json
import math
import os
import resource
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: The paper seed (the Monday the Grid5000 trace week starts on).
PAPER_SEED = 20071001

DAY_S = 86400.0
WEEK_S = 7 * DAY_S

#: Jobs one synthetic week yields at 45 jobs/h with the paper seed; a
#: workload asks for a job count and the arrival rate scales from this.
JOBS_AT_BASE_RATE = 3435
BASE_RATE_PER_HOUR = 45.0

#: Open-loop offered load of the service workload, requests per second.
REQUEST_RATE = 1000.0

#: Snapshots kept on disk: all of a week's.  With the engine's default
#: of 3, each new snapshot deletes an old one; deleting a 90 MB file on a
#: filesystem mounted with online discard took 0.05 to 1.8 s, varying
#: with the host's storage load, and made run_s of one 10k input range
#: from 15 to 24 s.  Keeping every snapshot leaves the deletions to the
#: clean-up after each repetition, outside the timed run.
SNAPSHOTS_KEPT = 8

#: Admission queue depth: one second of requests at the offered rate.
#: With the control plane's default of 64, every snapshot stall longer
#: than 64 ms sheds the requests that fell due during it; this depth
#: lets a stall show as latency instead.
QUEUE_CAPACITY = 1000

#: Answering later than this after a request was due counts as a miss
#: (the control plane's own ``ServiceConfig.request_deadline_ms``).
SLO_MS = 250.0

#: Result fields that must match exactly between runs of one input.
FINGERPRINT_FIELDS = (
    "energy_kwh",
    "cpu_hours",
    "migrations",
    "n_completed",
    "sim_events",
)

#: Batch outputs at the paper seed, from the program before this
#: benchmark existed.  Snapshots on or off give the same row.
PAPER_FINGERPRINTS = {
    "sb-week-1k": {
        "energy_kwh": 2211.494556273351,
        "cpu_hours": 18354.813278750353,
        "migrations": 242,
        "n_completed": 10577,
        "sim_events": 53876,
    },
    "sb-week-10k-ckpt": {
        "energy_kwh": 6466.096310194266,
        "cpu_hours": 59483.76428744209,
        "migrations": 494,
        "n_completed": 34305,
        "sim_events": 173908,
    },
}


@dataclass(frozen=True)
class Workload:
    name: str
    hosts: int
    jobs_target: int
    snapshots: bool
    service: bool


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sb-week-1k", 1000, 10300, snapshots=False, service=False),
        Workload("sb-week-10k-ckpt", 10000, 34000, snapshots=True, service=False),
        Workload("service-1k-ckpt", 1000, 10300, snapshots=True, service=True),
    )
}


# ------------------------------------------------------------------ inputs


def scaled_cluster(n_hosts: int):
    """The paper datacenter grown to ``n_hosts``, keeping class ratios."""
    from repro.cluster.spec import ClusterSpec

    n_fast = max(1, round(n_hosts * 0.15))
    n_slow = max(1, round(n_hosts * 0.35))
    n_medium = max(1, n_hosts - n_fast - n_slow)
    return ClusterSpec.paper_datacenter(
        n_fast=n_fast, n_medium=n_medium, n_slow=n_slow
    )


def week_generator(workload: Workload, seed: int):
    from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig

    rate = BASE_RATE_PER_HOUR * workload.jobs_target / JOBS_AT_BASE_RATE
    cfg = SyntheticConfig(horizon_s=WEEK_S, base_rate_per_hour=rate)
    return Grid5000WeekGenerator(cfg, seed=seed)


def build_engine(workload: Workload, seed: int, trace, checkpoint_dir=None):
    """The engine every workload runs: SB policy, λ 30/90, this seed."""
    from repro.engine.config import EngineConfig
    from repro.engine.datacenter import DatacenterSimulation
    from repro.experiments.common import lambda_config
    from repro.scheduling.score import ScoreConfig
    from repro.scheduling.score.policy import ScoreBasedPolicy

    return DatacenterSimulation(
        cluster=scaled_cluster(workload.hosts),
        policy=ScoreBasedPolicy(ScoreConfig.sb()),
        trace=trace,
        pm_config=lambda_config(),
        config=EngineConfig(
            seed=seed,
            checkpoint_dir=checkpoint_dir,
            checkpoint_sim_interval_s=DAY_S if checkpoint_dir else None,
            checkpoint_keep=SNAPSHOTS_KEPT,
        ),
    )


def fingerprint(result) -> Dict[str, object]:
    return {name: getattr(result, name) for name in FINGERPRINT_FIELDS}


def percentile(values: List[float], p: float) -> float:
    """Nearest-rank percentile (``p`` in 0..100) of a non-empty list."""
    ordered = sorted(values)
    k = max(0, math.ceil(p / 100.0 * len(ordered)) - 1)
    return ordered[k]


def latency_summary(samples_ms) -> Dict[str, float]:
    """Sample count, median and p99 of one repetition's latencies."""
    samples = list(samples_ms)
    return {
        "n": len(samples),
        "p50_ms": percentile(samples, 50),
        "p99_ms": percentile(samples, 99),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


# ------------------------------------------------------------ batch runs


def _run_batch(workload, seed, tmpdir, t_spawn, tracer, setup_only):
    ckpt_dir = os.path.join(tmpdir, "ckpt") if workload.snapshots else None
    engine = build_engine(
        workload, seed, week_generator(workload, seed).stream(), ckpt_dir
    )
    decide_ms, untime = _time_decisions()
    setup_s = time.monotonic() - t_spawn
    if setup_only:
        return {"setup_s": setup_s}
    t0 = time.perf_counter()
    result = engine.run()
    run_s = time.perf_counter() - t0
    rss = _peak_rss_mb()
    untime()
    rep = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": rss,
        "decision": latency_summary(decide_ms),
        "attempted": result.n_jobs,
        # Rejecting a job no host can hold is the right answer, not a
        # failure; check_batch verifies that exactly those were rejected.
        "failed": result.n_jobs - result.n_completed - result.n_failed,
        "fingerprint": fingerprint(result),
        "ckpt_bytes": result.checkpoint_bytes,
        "snapshots": result.checkpoints_written,
    }
    if tracer is not None:
        rep["layers"] = tracer.layer_metrics(result, run_s)
        tracer.uninstall()
    rep["errors"] = check_batch(workload, seed, result, engine, ckpt_dir)
    return rep


def _time_decisions() -> Tuple[array, Callable[[], None]]:
    """Time every scheduling decision (one ``decide`` call per round).

    The batch workloads have no requests; their decision latency is the
    wall time of each round's placement decision, two clock reads per
    round.  The wrapper replaces the class attribute, so snapshots, which
    pickle the policy instance, are unaffected.  Samples go to a flat
    array to keep the timer's memory out of the measured peak RSS.
    Returns it and a function that removes the wrapper.
    """
    from repro.scheduling.score.policy import ScoreBasedPolicy

    millis = array("d")
    decide = ScoreBasedPolicy.decide
    clock = time.perf_counter

    @functools.wraps(decide)
    def timed(self, ctx):
        t0 = clock()
        actions = decide(self, ctx)
        millis.append((clock() - t0) * 1e3)
        return actions

    ScoreBasedPolicy.decide = timed

    def remove() -> None:
        ScoreBasedPolicy.decide = decide

    return millis, remove


def check_batch(workload, seed, result, engine, ckpt_dir) -> List[str]:
    """Correctness of one batch repetition; returns failure messages."""
    errors: List[str] = []
    got = fingerprint(result)
    want = PAPER_FINGERPRINTS.get(workload.name) if seed == PAPER_SEED else None
    if want is not None and got != want:
        errors.append(f"fingerprint {got} != paper-seed fingerprint {want}")
    # Independent oracle for the job accounting: a job no host class can
    # ever hold is rejected on arrival; every other job must complete.
    classes = {
        (s.arch, s.hypervisor, s.cpu_capacity, s.mem_mb)
        for s in scaled_cluster(workload.hosts)
    }
    generated = unplaceable = 0
    for job in week_generator(workload, seed).iter_jobs():
        generated += 1
        unplaceable += not any(
            job.arch == arch and job.hypervisor == hyp
            and job.cpu_pct <= cpu and job.mem_mb <= mem
            for arch, hyp, cpu, mem in classes
        )
    if result.n_jobs != generated:
        errors.append(f"n_jobs {result.n_jobs} != {generated} generated")
    if result.n_failed != unplaceable:
        errors.append(
            f"{result.n_failed} jobs rejected, {unplaceable} fit no host"
        )
    if result.n_completed + result.n_failed != result.n_jobs:
        errors.append(
            f"{result.n_jobs - result.n_completed - result.n_failed} jobs "
            f"neither completed nor rejected"
        )
    if not (math.isfinite(result.energy_kwh) and result.energy_kwh > 0):
        errors.append(f"energy_kwh {result.energy_kwh!r} not positive")
    if not (math.isfinite(result.cpu_hours) and result.cpu_hours > 0):
        errors.append(f"cpu_hours {result.cpu_hours!r} not positive")
    if ckpt_dir is not None:
        errors += _check_resume(engine, result, ckpt_dir)
    return errors


def _check_resume(engine, result, ckpt_dir) -> List[str]:
    """A run resumed from the newest snapshot must end bit-identically.

    Snapshots are a pure read of the engine, so resuming from the last
    one and running out the week reproduces ``canonical()`` exactly.
    """
    expected = result.canonical()
    restored = engine.try_restore()
    if restored is None:
        return [f"no usable snapshot in {ckpt_dir} "
                f"({result.checkpoints_written} written)"]
    resumed = restored.run().canonical()
    if resumed != expected:
        diff = sorted(k for k in expected if resumed.get(k) != expected[k])
        return [f"run resumed from the last snapshot differs in {diff}"]
    return []


# ----------------------------------------------------------- service run


def _run_service(workload, seed, tmpdir, t_spawn, tracer, setup_only):
    from repro.service import (
        ControlPlane,
        DecisionJournal,
        PlacementCore,
        PlacementRequest,
        ServiceConfig,
        ServiceEngine,
        ShedError,
    )

    # Plain tuples: the garbage collector stops tracking tuples of atoms,
    # so the generator's own 10k-request backlog adds nothing to the
    # service's collection pauses.
    arrivals = [
        (job.submit_time, job.runtime_s, job.cpu_pct, job.mem_mb,
         job.deadline_factor, job.user, job.arch, job.hypervisor,
         job.fault_tolerance)
        for job in week_generator(workload, seed).generate().jobs
    ]
    journal_path = os.path.join(tmpdir, "journal.jsonl")
    engine = build_engine(workload, seed, None, os.path.join(tmpdir, "ckpt"))
    svc = ServiceEngine(engine, PlacementCore(engine.policy),
                        DecisionJournal(journal_path))
    config = ServiceConfig(
        queue_capacity=QUEUE_CAPACITY, request_deadline_ms=SLO_MS
    )
    n = len(arrivals)
    latency_ms: List[Optional[float]] = [None] * n
    lag_ms: List[float] = []
    sheds: List[int] = []
    crashed: List[str] = []
    marks: Dict[str, float] = {}
    clock = time.perf_counter
    interval = 1.0 / REQUEST_RATE

    async def request(i: int, due: float) -> None:
        at, runtime, cpu, mem, factor, user, arch, hyp, ft = arrivals[i]
        placement = PlacementRequest(
            runtime_s=runtime, cpu_pct=cpu, mem_mb=mem,
            deadline_factor=factor, user=user, arch=arch, hypervisor=hyp,
            fault_tolerance=ft, at=at,
        )
        try:
            await plane.submit(placement, wait=False)
        except ShedError:
            sheds.append(i)
            return
        latency_ms[i] = (clock() - due) * 1e3

    def finished(task: asyncio.Task) -> None:
        pending.discard(task)
        if task.exception() is not None:
            crashed.append(repr(task.exception()))

    async def main():
        nonlocal plane
        plane = ControlPlane(svc, config)
        await plane.start()
        marks["setup_s"] = time.monotonic() - t_spawn
        if setup_only:
            return await plane.shutdown()
        t0 = clock()
        marks["t0"] = t0
        for i in range(n):
            # Open loop: request i is due at t0 + i/rate whatever the
            # service is doing.  After a stall every overdue request is
            # sent at once, as independent clients would have.
            due = t0 + i * interval
            now = clock()
            if now < due:
                await asyncio.sleep(due - now)
                now = clock()
            lag_ms.append((now - due) * 1e3)
            if tracer is not None:
                tracer.note_due(arrivals[i][0], due)
            task = asyncio.ensure_future(request(i, due))
            pending.add(task)
            task.add_done_callback(finished)
        while pending:
            await asyncio.wait(set(pending))
        return await plane.shutdown(drain=True)

    pending: set = set()
    plane = None
    result = asyncio.run(main())
    if setup_only:
        return {"setup_s": marks["setup_s"]}
    run_s = clock() - marks["t0"]
    rss = _peak_rss_mb()
    setup_s = marks["setup_s"]
    answered = [ms for ms in latency_ms if ms is not None]
    missed = len(sheds) + sum(1 for ms in answered if ms > SLO_MS)
    rep = {
        "setup_s": setup_s,
        "run_s": run_s,
        "peak_rss_mb": rss,
        "decision": latency_summary(answered),
        "attempted": n,
        "failed": missed,
        "lag": latency_summary(lag_ms),
        "sheds": len(sheds),
        "ckpt_bytes": result.checkpoint_bytes,
        "snapshots": result.checkpoints_written,
    }
    if tracer is not None:
        rep["layers"] = tracer.layer_metrics(result, run_s, lag_ms=lag_ms,
                                             slo_miss_frac=missed / n)
        tracer.uninstall()
    rep["errors"] = crashed + check_service(
        workload, seed, journal_path, result, n, len(sheds), len(answered)
    )
    return rep


def check_service(workload, seed, journal_path, result, submitted, shed,
                  answered) -> List[str]:
    """Journal audit plus replay equality for one service repetition."""
    from repro.engine.tracing import TraceEventKind, read_jsonl
    from repro.service import replay_journal

    errors: List[str] = []
    if answered + shed != submitted:
        errors.append(
            f"{answered} decisions + {shed} sheds != {submitted} submitted"
        )
    records = read_jsonl(journal_path)
    by_kind: Dict[object, List[object]] = {}
    for rec in records:
        by_kind.setdefault(rec.kind, []).append(rec)
    admits = by_kind.get(TraceEventKind.SVC_ADMIT, [])
    decisions = by_kind.get(TraceEventKind.SVC_DECISION, [])
    journaled_sheds = len(by_kind.get(TraceEventKind.SVC_SHED, []))
    admit_seqs = [json.loads(r.detail)["seq"] for r in admits]
    decision_seqs = [json.loads(r.detail)["seq"] for r in decisions]
    if admit_seqs != list(range(answered)):
        errors.append(
            f"journal admissions are not seq 0..{answered - 1} exactly once"
        )
    if sorted(decision_seqs) != list(range(answered)) or len(
        set(decision_seqs)
    ) != len(decision_seqs):
        errors.append("journal decisions lost or duplicated an index")
    if len(decisions) + journaled_sheds != submitted:
        errors.append(
            f"journal: {len(decisions)} decisions + {journaled_sheds} sheds "
            f"!= {submitted} submitted"
        )
    report = replay_journal(
        journal_path, lambda: build_engine(workload, seed, None)
    )
    if not report.ok:
        errors.append(f"replay decisions differ: {report.mismatches[:3]}")
    live, replayed = result.canonical(), report.result.canonical()
    if live != replayed:
        diff = sorted(k for k in live if replayed.get(k) != live[k])
        errors.append(f"replay canonical() differs from the live run in {diff}")
    if result.n_jobs != answered:
        errors.append(f"engine saw {result.n_jobs} jobs, {answered} admitted")
    return errors


# ------------------------------------------------------------------ entry


def run_rep(
    name: str,
    seed: int,
    tmpdir: str,
    t_spawn: float,
    trace: bool = False,
    setup_only: bool = False,
) -> Dict[str, object]:
    """One repetition of workload ``name``; returns its measurements.

    ``t_spawn`` is the ``time.monotonic()`` reading (a system-wide clock)
    the parent took just before it started this process, so ``setup_s``
    covers interpreter start and imports too.  ``setup_only`` stops after
    set-up and returns only ``setup_s``.
    """
    workload = WORKLOADS[name]
    tracer = None
    if trace:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
    runner = _run_service if workload.service else _run_batch
    return runner(workload, seed, tmpdir, t_spawn, tracer, setup_only)
