"""Credit-share solver and share-memo tests, in three layers:

* solver level — the water-filling fairness properties of
  :func:`repro.cluster.xen.compute_shares` (conservation, cap respect,
  weight monotonicity, permutation equivariance) and its degenerate-input
  hardening (NaN/inf rejection, weight-sum overflow, empty demand);
* memo level — :class:`ShareMemo` hits return the solved floats, keys
  are ordered, eviction is FIFO and the memo pickles;
* engine level — whole simulations with the share memo on versus every
  lookup forced to miss (so every share problem reaches the solver),
  chaos, quarantine and the power manager included, must produce equal
  ``SimulationResult.canonical()`` rows and event traces.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.faults import FaultConfig
from repro.cluster.spec import ClusterSpec
from repro.cluster.xen import CreditScheduler, ShareMemo, compute_shares
from repro.engine.config import EngineConfig
from repro.engine.datacenter import DatacenterSimulation
from repro.errors import ConfigurationError
from repro.scheduling.power_manager import PowerManagerConfig
from repro.scheduling.score import ScoreConfig
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.units import HOUR
from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig

# --------------------------------------------------------------- strategies

#: Domain caps spanning idle (0) through several hosts' worth of demand,
#: plus awkward magnitudes that stress the water-filling rounding.
_cap = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=500.0),
    st.floats(min_value=1e-9, max_value=1e-3),
)
_weight = st.one_of(
    st.just(0.0),
    st.floats(min_value=0.0, max_value=10.0),
)
_capacity = st.one_of(
    st.just(0.0),
    st.floats(min_value=1e-14, max_value=1e-6),
    st.floats(min_value=1.0, max_value=1600.0),
)


@st.composite
def share_problem(draw, max_domains=12):
    """One host's (capacity, caps, weights-or-None) share problem."""
    caps = draw(st.lists(_cap, min_size=0, max_size=max_domains))
    weights = draw(
        st.one_of(
            st.none(),
            st.lists(_weight, min_size=len(caps), max_size=len(caps)),
        )
    )
    return draw(_capacity), caps, weights


# --------------------------------------------------------- fairness laws


class TestWaterFillingProperties:
    @settings(max_examples=200, deadline=None)
    @given(problem=share_problem())
    def test_conservation_and_cap_respect(self, problem):
        capacity, caps, weights = problem
        shares = compute_shares(capacity, caps, weights)
        caps_arr = np.asarray(caps, dtype=float)
        assert np.all(shares >= 0.0)
        assert np.all(shares <= caps_arr + 1e-9)
        demand = float(caps_arr.sum()) if caps else 0.0
        total = float(shares.sum()) if caps else 0.0
        assert total <= max(capacity, demand) + 1e-6
        if demand <= capacity:
            # Uncontended: everyone gets exactly their cap.
            assert np.array_equal(shares, caps_arr)

    @settings(max_examples=100, deadline=None)
    @given(
        caps=st.lists(
            st.floats(min_value=1.0, max_value=400.0), min_size=2, max_size=8
        ),
        weights=st.lists(
            st.floats(min_value=0.1, max_value=10.0), min_size=2, max_size=8
        ),
        index=st.integers(min_value=0, max_value=7),
        bump=st.floats(min_value=1.1, max_value=5.0),
    )
    def test_weight_monotonicity(self, caps, weights, index, bump):
        """Raising one domain's weight never shrinks its share."""
        n = min(len(caps), len(weights))
        caps, weights = caps[:n], weights[:n]
        index %= n
        before = compute_shares(300.0, caps, weights)[index]
        raised = list(weights)
        raised[index] *= bump
        after = compute_shares(300.0, caps, raised)[index]
        assert after >= before - 1e-6 * max(1.0, before)

    @settings(max_examples=100, deadline=None)
    @given(
        caps=st.lists(
            st.floats(min_value=0.0, max_value=400.0), min_size=1, max_size=8
        ),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_permutation_equivariance(self, caps, seed):
        """Shuffling domains shuffles shares — mathematically.

        Only approximately in floating point: the water-filling sums are
        order-dependent, which is exactly why :class:`ShareMemo` keys on
        the ordered tuple.
        """
        perm = np.random.RandomState(seed).permutation(len(caps))
        base = compute_shares(200.0, caps)
        shuffled = compute_shares(200.0, [caps[i] for i in perm])
        np.testing.assert_allclose(
            shuffled, base[perm], rtol=1e-9, atol=1e-9
        )


# ----------------------------------------------------------- edge cases


class TestDegenerateInputs:
    def test_allocate_empty_demand_dict(self):
        assert CreditScheduler(400.0).allocate({}) == {}

    def test_allocate_missing_weight_key_names_domain(self):
        cs = CreditScheduler(400.0)
        with pytest.raises(ConfigurationError, match="'vm2'"):
            cs.allocate({"vm1": 50.0, "vm2": 50.0}, weights={"vm1": 1.0})

    def test_all_zero_weights_fall_back_to_epsilon(self):
        """Zero-weight runnable domains still split the capacity."""
        shares = compute_shares(100.0, [80.0, 80.0], weights=[0.0, 0.0])
        assert shares.tolist() == [50.0, 50.0]

    def test_capacity_below_tolerance_allocates_nothing(self):
        shares = compute_shares(1e-13, [100.0, 100.0])
        assert shares.tolist() == [0.0, 0.0]

    def test_capacity_smaller_than_epsilon_times_demand(self):
        """Tiny-but-positive capacity terminates and conserves."""
        shares = compute_shares(1e-9, [1e6, 1e6])
        assert np.all(shares >= 0.0)
        assert float(shares.sum()) <= 1e-9 * (1 + 1e-9)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_capacity_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            compute_shares(bad, [100.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_nonfinite_or_negative_caps_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            compute_shares(100.0, [50.0, bad])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
    def test_nonfinite_or_negative_weights_rejected(self, bad):
        with pytest.raises(ConfigurationError):
            compute_shares(100.0, [50.0, 50.0], weights=[1.0, bad])

    def test_weight_sum_overflow_stays_work_conserving(self):
        """Finite weights whose sum overflows are rescaled, not NaN."""
        big = [1e308, 1e308]
        assert compute_shares(100.0, big, big).tolist() == [50.0, 50.0]


# ------------------------------------------------------------- ShareMemo


class TestShareMemo:
    def test_hit_returns_identical_solution(self):
        memo = ShareMemo()
        key = (400.0, (300.0, 300.0), (300.0, 300.0))
        assert memo.get(key) is None
        solved = tuple(float(s) for s in compute_shares(400.0, [300.0, 300.0]))
        memo.put(key, solved)
        assert memo.get(key) == solved
        assert memo.hits == 1 and memo.misses == 1
        assert len(memo) == 1

    def test_permuted_key_is_a_different_entry(self):
        """Ordered keys: a permuted host must not reuse this solution."""
        memo = ShareMemo()
        memo.put((300.0, (100.0, 200.0), (1.0, 2.0)), (100.0, 200.0))
        assert memo.get((300.0, (200.0, 100.0), (2.0, 1.0))) is None

    def test_fifo_eviction_drops_oldest(self):
        memo = ShareMemo(max_entries=2)
        memo.put(("a",), (1.0,))
        memo.put(("b",), (2.0,))
        memo.put(("c",), (3.0,))
        assert len(memo) == 2
        assert memo.get(("a",)) is None
        assert memo.get(("b",)) == (2.0,)
        assert memo.get(("c",)) == (3.0,)

    def test_reput_existing_key_does_not_evict(self):
        memo = ShareMemo(max_entries=2)
        memo.put(("a",), (1.0,))
        memo.put(("b",), (2.0,))
        memo.put(("a",), (1.0,))
        assert memo.get(("b",)) == (2.0,)

    def test_max_entries_validated(self):
        with pytest.raises(ConfigurationError):
            ShareMemo(max_entries=0)

    def test_pickle_round_trip(self):
        memo = ShareMemo(max_entries=17)
        memo.put(("k",), (4.0,))
        memo.get(("k",))
        memo.get(("missing",))
        clone = pickle.loads(pickle.dumps(memo))
        assert clone.max_entries == 17
        assert (clone.hits, clone.misses) == (memo.hits, memo.misses)
        assert clone.get(("k",)) == (4.0,)


# ----------------------------------------------- whole-engine differential

_HORIZON_H = 8.0


def _engine(*, chaos, pm, seed=37):
    cfg = SyntheticConfig(horizon_s=_HORIZON_H * HOUR, base_rate_per_hour=28.0)
    trace = Grid5000WeekGenerator(cfg, seed=seed).generate()
    return DatacenterSimulation(
        cluster=ClusterSpec.homogeneous(5),
        policy=ScoreBasedPolicy(ScoreConfig.sb()),
        trace=trace,
        pm_config=(
            PowerManagerConfig(lambda_min=0.40, lambda_max=0.90) if pm else None
        ),
        config=EngineConfig(
            seed=seed,
            faults=FaultConfig.uniform(0.10) if chaos else None,
            chaos_seed=11 if chaos else None,
            trace_events=True,
        ),
    )


def _run_forced_miss(engine):
    """Run ``engine`` with every memo lookup missing: each share problem
    reaches :func:`compute_shares`, the reference the memo must match."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ShareMemo, "get", lambda self, key: None)
        return engine.run()


def _trace_sig(engine):
    return [
        (r.time, r.kind.value, r.vm_id, r.host_id, r.detail)
        for r in engine.trace_log
    ]


class TestEngineDifferential:
    """Share memo on vs. every lookup forced to miss, over full runs.

    Chaos injects failed creations / aborted migrations / quarantines and
    the power manager injects boot/shutdown churn — together they exercise
    every dirty-set interleaving the engine produces (multi-host events,
    empty refreshes, hosts leaving mid-operation).
    """

    def _assert_memo_equals_forced_miss(self, **kw):
        memo = _engine(**kw)
        forced = _engine(**kw)
        res_m = memo.run()
        res_f = _run_forced_miss(forced)
        assert res_m.canonical() == res_f.canonical()
        assert _trace_sig(memo) == _trace_sig(forced)
        # The memo did real work on one side and none on the other.
        assert res_m.share_memo_stats["hits"] > 0
        assert res_f.share_memo_stats["hits"] == 0

    @pytest.mark.parametrize("pm", [False, True], ids=["pm-off", "pm-on"])
    @pytest.mark.parametrize("chaos", [False, True],
                             ids=["chaos-off", "chaos-on"])
    def test_memo_equals_forced_miss(self, chaos, pm):
        self._assert_memo_equals_forced_miss(chaos=chaos, pm=pm)

    @settings(
        max_examples=4,
        deadline=None,
        suppress_health_check=[HealthCheck.data_too_large],
    )
    @given(seed=st.integers(min_value=0, max_value=2**16))
    def test_memo_equals_forced_miss_random_workloads(self, seed):
        """Random workload realizations, chaos + pm on (the worst case)."""
        self._assert_memo_equals_forced_miss(chaos=True, pm=True, seed=seed)

    def test_memo_stats_are_operational(self):
        """``share_memo_stats`` never enters the canonical contract."""
        res = _engine(chaos=False, pm=False).run()
        assert res.share_memo_stats["misses"] >= 1
        assert "share_memo_stats" not in res.canonical()
        assert "share_memo_stats" in res.__class__.OPERATIONAL_FIELDS
