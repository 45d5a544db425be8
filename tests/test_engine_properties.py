"""Hypothesis property tests over the whole engine.

Small random workloads on small random clusters, driven through every
policy family, checking the invariants no run may violate:

* conservation — every job either completes or is impossible to place;
* accounting — energy/bounds/positivity of every reported metric;
* no residual state — hosts end with no VMs, operations or reservations;
* progress exactness — a completed job did exactly its work.
"""

import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.spec import ClusterSpec, FAST, MEDIUM, SLOW, HostSpec
from repro.cluster.vm import VmState
from repro.des.random import RandomStreams
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.scheduling.baselines import BackfillingPolicy, RandomPolicy, RoundRobinPolicy
from repro.scheduling.dynamic_backfilling import DynamicBackfillingPolicy
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.workload.job import Job, JobState
from repro.workload.trace import Trace

CLASSES = [FAST, MEDIUM, SLOW]


@st.composite
def scenario(draw):
    n_hosts = draw(st.integers(min_value=2, max_value=6))
    hosts = [
        HostSpec(host_id=i, node_class=draw(st.sampled_from(CLASSES)))
        for i in range(n_hosts)
    ]
    n_jobs = draw(st.integers(min_value=1, max_value=12))
    jobs = []
    for j in range(n_jobs):
        jobs.append(
            Job(
                job_id=j + 1,
                submit_time=float(draw(st.integers(min_value=0, max_value=7200))),
                runtime_s=float(draw(st.integers(min_value=60, max_value=7200))),
                cpu_pct=float(draw(st.sampled_from([50, 100, 200, 400]))),
                mem_mb=float(draw(st.sampled_from([128, 512, 1024]))),
                deadline_factor=draw(
                    st.floats(min_value=1.2, max_value=2.0)
                ),
            )
        )
    policy_name = draw(st.sampled_from(["rd", "rr", "bf", "dbf", "sb0", "sb"]))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return ClusterSpec(hosts), Trace(jobs), policy_name, seed


def make_policy(name: str, seed: int):
    return {
        "rd": lambda: RandomPolicy(RandomStreams(seed=seed)),
        "rr": lambda: RoundRobinPolicy(),
        "bf": lambda: BackfillingPolicy(),
        "dbf": lambda: DynamicBackfillingPolicy(),
        "sb0": lambda: ScoreBasedPolicy(ScoreConfig.sb0()),
        "sb": lambda: ScoreBasedPolicy(ScoreConfig.sb()),
    }[name]()


class TestEngineInvariants:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=scenario())
    def test_run_invariants(self, data):
        cluster, trace, policy_name, seed = data
        engine = DatacenterSimulation(
            cluster=cluster,
            policy=make_policy(policy_name, seed),
            trace=trace.fresh(),
            config=EngineConfig(seed=seed, initial_on=2),
        )
        result = engine.run()

        # --- conservation: jobs either complete or were unplaceable ----
        assert result.n_completed + result.n_failed == result.n_jobs
        for vm in engine.vms.values():
            if vm.state is VmState.COMPLETED:
                # Progress exactness: the work integral hit the target.
                assert vm.work_remaining <= 1e-3
                assert vm.job.finish_time is not None
            elif vm.state is VmState.FAILED:
                # Only impossibility explains failure in a failure-free run.
                assert not any(
                    h.meets_requirements(vm.job) for h in engine.hosts
                )

        # --- no residual state -----------------------------------------
        for host in engine.hosts:
            assert not host.vms, f"host {host.host_id} still has VMs"
            assert not host.operations
            assert not host.reservations
            assert host.cpu_used == pytest.approx(0.0, abs=1e-9)

        # --- metric sanity ----------------------------------------------
        assert 0.0 <= result.satisfaction <= 100.0
        assert result.delay_pct >= 0.0
        assert result.energy_kwh >= 0.0
        assert result.avg_working <= result.avg_online + 1e-9
        assert result.cpu_hours >= 0.0
        assert math.isfinite(result.energy_kwh)

        # --- energy envelope ---------------------------------------------
        # No online node draws more than the drawn cluster's peak: its
        # power model at full CPU.
        if result.horizon_s > 0:
            peak_w = max(
                spec.power_model.power(spec.cpu_capacity) for spec in cluster
            )
            node_hours = result.avg_online * result.horizon_s / 3600.0
            assert result.energy_kwh * 1000.0 <= node_hours * peak_w + 1.0

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=scenario())
    def test_determinism_property(self, data):
        cluster, trace, policy_name, seed = data
        results = []
        for _ in range(2):
            engine = DatacenterSimulation(
                cluster=cluster,
                policy=make_policy(policy_name, seed),
                trace=trace.fresh(),
                config=EngineConfig(seed=seed, initial_on=2),
            )
            results.append(engine.run())
        a, b = results
        assert a.energy_kwh == b.energy_kwh
        assert a.satisfaction == b.satisfaction
        assert a.sim_events == b.sim_events
