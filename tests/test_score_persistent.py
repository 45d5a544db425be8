"""Oracles and regressions for the persistent cross-round score matrix.

The :class:`PersistentScoreMatrix` keeps the score matrix alive between
scheduling rounds and rescores only dirty rows and changed columns.  That
is an optimization with no semantic license: every bound round must be
**bit-identical** to a from-scratch :class:`ScoreMatrixBuilder` over the
same cluster.  Three layers enforce it here:

* a hypothesis driver that interleaves arbitrary world mutations
  (arrivals, completions, requeues, migrations, power flips, quarantine,
  requirement inflation, reliability overrides) between binds, verifies
  every bind against a fresh build, and asserts the hill climber emits
  the exact same move sequence from both matrices — including rounds
  where chosen moves are *rejected* (never applied to the world), which
  stresses the hypothetical-touched-row restoration path;
* a whole-simulation oracle: persistent on vs off must produce the same
  result row, including under operation-level chaos;
* order-determinism: the same set of world mutations applied in
  different orders must yield identical matrices and move sequences
  (the dirty feed is a set; binding sorts it).

Plus the row-slot registry (cells stored for available hosts only:
slot recycling, row growth, memory proportionality), the
:class:`HostArrayCache` match-memoization regressions and the
``rescore_stats`` observability contract.
"""

import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster.host import Host, HostState
from repro.cluster.spec import FAST, MEDIUM, SLOW, HostSpec
from repro.cluster.vm import Vm, VmState
from repro.errors import ConfigurationError, StateError
from repro.scheduling.score import ScoreConfig, ScoreMatrixBuilder
from repro.scheduling.score.columnar import ColumnarClusterState
from repro.scheduling.score.matrix import HostArrayCache
from repro.scheduling.score.persistent import ROW_CAP0, PersistentScoreMatrix
from repro.scheduling.score.policy import ScoreBasedPolicy
from repro.scheduling.score.solver import hill_climb
from repro.workload.job import Job

CLASSES = [FAST, MEDIUM, SLOW]


def make_vm(vm_id, cpu=100.0, mem=512.0, runtime=3600.0, **job_kw):
    job = Job(job_id=vm_id, submit_time=0.0, runtime_s=runtime,
              cpu_pct=cpu, mem_mb=mem, **job_kw)
    return Vm(job)


def make_host(host_id, node_class=MEDIUM, state=HostState.ON, **kw):
    return Host(HostSpec(host_id=host_id, node_class=node_class, **kw),
                initial_state=state)


def place(host, vm):
    vm.state = VmState.RUNNING
    host.add_vm(vm)


# --------------------------------------------------------------------------
# Layer 1: episodic hypothesis oracle
# --------------------------------------------------------------------------


class World:
    """A tiny mutable cluster the episodes drive directly (no engine)."""

    def __init__(self, hosts):
        self.hosts = hosts
        self.index = {h.host_id: i for i, h in enumerate(hosts)}
        self.vms = {}
        self.next_vm = 100

    def running(self):
        return [v for v in self.vms.values() if v.state is VmState.RUNNING]

    def queued(self):
        return [v for v in self.vms.values() if v.state is VmState.QUEUED]

    def host_of(self, vm):
        return self.hosts[self.index[vm.host_id]]


def _mutate(world, data):
    """Apply one random world mutation; no-op when preconditions fail."""
    op = data.draw(st.sampled_from(
        ["arrive", "complete", "requeue", "migrate", "power",
         "quarantine", "inflate"]), label="op")
    if op == "arrive":
        vm = make_vm(
            world.next_vm,
            cpu=data.draw(st.sampled_from([50.0, 100.0, 200.0, 400.0])),
            mem=data.draw(st.sampled_from([128.0, 512.0, 1024.0])),
            runtime=data.draw(st.floats(min_value=120.0, max_value=7200.0)),
            fault_tolerance=data.draw(st.floats(min_value=0.0, max_value=1.0)),
        )
        world.next_vm += 1
        world.vms[vm.vm_id] = vm
        on = [h for h in world.hosts if h.state is HostState.ON]
        if on and data.draw(st.booleans()):
            place(data.draw(st.sampled_from(on)), vm)
    elif op == "complete":
        running = world.running()
        if running:
            vm = data.draw(st.sampled_from(running))
            world.host_of(vm).remove_vm(vm.vm_id)
            vm.state = VmState.COMPLETED
            del world.vms[vm.vm_id]
    elif op == "requeue":
        running = world.running()
        if running:
            vm = data.draw(st.sampled_from(running))
            world.host_of(vm).remove_vm(vm.vm_id)
            vm.state = VmState.QUEUED
            vm.host_id = None
    elif op == "migrate":
        running = world.running()
        on = [h for h in world.hosts if h.state is HostState.ON]
        if running and on:
            vm = data.draw(st.sampled_from(running))
            dst = data.draw(st.sampled_from(on))
            if dst.host_id != vm.host_id:
                world.host_of(vm).remove_vm(vm.vm_id)
                dst.add_vm(vm)
    elif op == "power":
        host = data.draw(st.sampled_from(world.hosts))
        if host.state is HostState.OFF:
            host.state = HostState.ON
        elif host.state is HostState.ON and not host.vms:
            host.state = HostState.OFF
    elif op == "quarantine":
        host = data.draw(st.sampled_from(world.hosts))
        host.quarantined = not host.quarantined
    elif op == "inflate":
        if world.vms:
            vm = data.draw(st.sampled_from(list(world.vms.values())))
            vm.cpu_req = vm.cpu_req * 1.25


def _bits(a):
    """Raw IEEE bits: equality here is bitwise (signed zeros, infs)."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


class TestCellShapes:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_block_row_and_column_shapes_are_bitwise_equal(self, data):
        """``_cells`` gives the same bits as a block, a row and a column.

        Checked on a bound state (and against the fresh builder's cells)
        and again after hypothetical moves, whose pending concurrency
        and occupancy changes exercise the host-side terms; unavailable
        rows and infeasible cells must be +inf in every shape.
        """
        n_hosts = data.draw(st.integers(min_value=2, max_value=6))
        hosts = [make_host(
            i,
            node_class=data.draw(st.sampled_from(CLASSES)),
            state=data.draw(st.sampled_from(
                [HostState.ON, HostState.ON, HostState.OFF])),
            reliability=data.draw(st.floats(min_value=0.5, max_value=1.0)),
        ) for i in range(n_hosts)]
        hosts[0].state = HostState.ON
        vms = [make_vm(
            100 + v,
            cpu=data.draw(st.sampled_from([50.0, 100.0, 400.0])),
            mem=data.draw(st.sampled_from([128.0, 512.0, 4096.0])),
            runtime=data.draw(st.floats(min_value=120.0, max_value=7200.0)),
            fault_tolerance=data.draw(st.floats(min_value=0.0, max_value=1.0)),
        ) for v in range(data.draw(st.integers(min_value=1, max_value=6)))]
        on = [h for h in hosts if h.state is HostState.ON]
        for vm in vms:
            if data.draw(st.booleans()):
                place(data.draw(st.sampled_from(on)), vm)
        config = getattr(ScoreConfig, data.draw(
            st.sampled_from(["sb0", "sb2", "sb", "full"])))()
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, config)
        fulf = ({vm.vm_id: data.draw(st.floats(min_value=0.0, max_value=1.2))
                 for vm in vms} if config.enable_sla else None)
        matrix.bind_round(vms, 500.0, fulf)
        fresh = ScoreMatrixBuilder(hosts=hosts, columns=vms, now=500.0,
                                   config=config, fulfillments=fulf,
                                   host_cache=cache)
        rows = np.arange(n_hosts)
        slots = matrix._round_slots

        def check(cols):
            block = matrix._cells(rows[:, None], slots[None, :])
            assert block.shape == (n_hosts, slots.size)
            for r in rows:
                assert np.array_equal(
                    _bits(matrix._cells(int(r), slots)), _bits(block[r]))
            for j, c in enumerate(slots):
                assert np.array_equal(
                    _bits(matrix._cells(rows, int(c))), _bits(block[:, j]))
            assert np.isinf(block[~matrix.avail]).all()
            # Unfrozen columns are current on every row in both builders.
            assert np.array_equal(_bits(block[:, cols]),
                                  _bits(fresh.scores[:, cols]))

        check(np.arange(slots.size))
        for _ in range(data.draw(st.integers(min_value=0, max_value=2))):
            move = matrix.best_move()
            # The hill climber's stopping rule: improving moves only.
            if move is None or not move[2] < -config.epsilon:
                break
            row, col, _ = move
            matrix.apply_move(col, row)
            fresh.apply_move(col, row)
            check(np.nonzero(~matrix._frozen[slots])[0])


class TestEpisodicOracle:
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_persistent_equals_fresh_under_arbitrary_interleavings(self, data):
        n_hosts = data.draw(st.integers(min_value=2, max_value=6),
                            label="n_hosts")
        hosts = []
        for i in range(n_hosts):
            hosts.append(make_host(
                i,
                node_class=data.draw(st.sampled_from(CLASSES)),
                state=data.draw(st.sampled_from(
                    [HostState.ON, HostState.ON, HostState.OFF])),
                reliability=data.draw(st.floats(min_value=0.5, max_value=1.0)),
            ))
        preset = data.draw(st.sampled_from(["sb0", "sb2", "sb", "full"]),
                           label="preset")
        config = getattr(ScoreConfig, preset)()
        world = World(hosts)
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, config)

        now = 0.0
        n_rounds = data.draw(st.integers(min_value=2, max_value=6),
                             label="n_rounds")
        for _ in range(n_rounds):
            for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
                _mutate(world, data)
            now += data.draw(st.floats(min_value=1.0, max_value=3600.0))

            columns = world.queued()
            if config.allow_migration and data.draw(st.booleans()):
                columns = columns + world.running()
            fulf = None
            if config.enable_sla:
                fulf = {vm.vm_id: data.draw(
                    st.floats(min_value=0.0, max_value=1.2))
                    for vm in columns}
            rel = None
            if config.enable_fault and data.draw(st.booleans()):
                rel = [data.draw(st.floats(min_value=0.5, max_value=1.0))
                       for _ in hosts]

            matrix.bind_round(columns, now, fulf, rel)
            # Bit-identity of cells, costs, and argmin caches.
            assert matrix.verify_against_fresh(columns, now, fulf, rel)
            # Internal consistency of the incrementally maintained state.
            assert matrix.verify_cells()

            fresh = ScoreMatrixBuilder(
                hosts=hosts, columns=columns, now=now, config=config,
                fulfillments=fulf, host_cache=cache, reliability=rel,
            )
            persistent_moves = hill_climb(matrix)
            fresh_moves = hill_climb(fresh)
            assert persistent_moves == fresh_moves

            # Accept a random subset of the chosen moves; the rejected
            # remainder leaves the matrix with hypothetical state it must
            # roll back at the next bind (the engine's rejected-action
            # path).
            for move in persistent_moves:
                if not data.draw(st.booleans()):
                    continue
                vm = world.vms[move.vm_id]
                dst = hosts[world.index[move.host_id]]
                if not dst.is_available:
                    continue
                if move.from_queue:
                    place(dst, vm)
                elif vm.state is VmState.RUNNING:
                    world.host_of(vm).remove_vm(vm.vm_id)
                    dst.add_vm(vm)


# --------------------------------------------------------------------------
# Layer 2: whole-simulation oracles
# --------------------------------------------------------------------------


def _run_sim(preset, use_persistent, faults=None, scale=28.0):
    from repro.cluster.faults import FaultConfig
    from repro.engine.config import EngineConfig
    from repro.engine.datacenter import simulate
    from repro.experiments.common import (
        DEFAULT_SEED, lambda_config, paper_cluster,
    )
    from repro.units import WEEK
    from repro.workload.synthetic import Grid5000WeekGenerator, SyntheticConfig

    cfg = SyntheticConfig(horizon_s=WEEK / scale)
    trace = Grid5000WeekGenerator(cfg, seed=DEFAULT_SEED).generate()
    fault_cfg = None
    if faults:
        fault_cfg = FaultConfig(creation_failure_p=0.08, migration_abort_p=0.1,
                                boot_failure_p=0.1, slow_boot_p=0.2)
    return simulate(
        cluster=paper_cluster(),
        policy=ScoreBasedPolicy(getattr(ScoreConfig, preset)(),
                                use_persistent_matrix=use_persistent),
        trace=trace,
        pm_config=lambda_config(),
        config=EngineConfig(seed=DEFAULT_SEED, faults=fault_cfg),
    )


def _determinism_row(res):
    return (res.energy_kwh, res.cpu_hours, res.migrations, res.n_completed,
            res.sim_events, res.satisfaction, res.delay_pct,
            res.mean_wait_s, res.p95_wait_s, res.rejected_actions)


class TestSimulationOracle:
    @pytest.mark.parametrize("preset", ["sb", "full"])
    def test_persistent_simulation_equals_fresh_kernel(self, preset):
        rows = {p: _determinism_row(_run_sim(preset, p))
                for p in (False, True)}
        assert rows[True] == rows[False]

    def test_persistent_bit_identical_under_chaos(self):
        rows = {p: _determinism_row(_run_sim("sb", p, faults=True))
                for p in (False, True)}
        assert rows[True] == rows[False]

    def test_rescore_stats_reported_and_sublinear(self):
        res = _run_sim("sb", True)
        stats = res.rescore_stats
        assert stats["binds"] > 0
        assert stats["full_rebuilds"] == 0
        # The whole point: incremental rescoring must do strictly less
        # work than the per-round rebuild it replaces.
        assert 0 < stats["cells_rescored"] < stats["cells_total"]
        assert any(k.startswith("dirty_rows_") for k in stats)
        # The fresh kernel reports no stats.
        assert _run_sim("sb", False, scale=112.0).rescore_stats == {}


# --------------------------------------------------------------------------
# Layer 3: order determinism (satellite: tie-breaking under partial rescore)
# --------------------------------------------------------------------------


def _tie_world():
    """Identical hosts + identical VMs: every cell ties with its row peers."""
    hosts = [make_host(i, node_class=MEDIUM) for i in range(6)]
    hosts[4].state = HostState.OFF
    vms = [make_vm(100 + v, cpu=100.0, mem=256.0) for v in range(5)]
    place(hosts[0], vms[0])
    place(hosts[1], vms[1])
    place(hosts[1], vms[2])
    return hosts, vms


class TestOrderDeterminism:
    def test_mutation_order_does_not_change_moves(self):
        """The same dirty set in any arrival order binds identically.

        The dirty feed is a set; :meth:`bind_round` sorts it, so the
        T-pass argmin maintenance and hill-climb tie-breaking (lowest
        row, then lowest column) must be independent of the order in
        which rows were marked dirty between rounds.
        """
        config = ScoreConfig.sb()
        mutations = [
            lambda hs, vs: hs[0].remove_vm(vs[0].vm_id),
            lambda hs, vs: setattr(hs[4], "state", HostState.ON),
            lambda hs, vs: setattr(hs[2], "quarantined", True),
            lambda hs, vs: (hs[1].remove_vm(vs[2].vm_id),
                            hs[3].add_vm(vs[2])),
        ]
        outcomes = []
        for order in itertools.permutations(range(len(mutations))):
            hosts, vms = _tie_world()
            cache = ColumnarClusterState(hosts)
            matrix = PersistentScoreMatrix(cache, config)
            running = [v for v in vms if v.state is VmState.RUNNING]
            queued = [v for v in vms if v.state is VmState.QUEUED]
            matrix.bind_round(queued + running, 100.0)
            first = hill_climb(matrix)

            for i in order:
                mutations[i](hosts, vms)
            vms[0].state = VmState.COMPLETED
            columns = ([v for v in vms if v.state is VmState.QUEUED]
                       + [v for v in vms if v.state is VmState.RUNNING])
            matrix.bind_round(columns, 200.0)
            assert matrix.verify_against_fresh(columns, 200.0)
            moves = hill_climb(matrix)
            outcomes.append((first, moves))
        assert len(set(map(repr, outcomes))) == 1


# --------------------------------------------------------------------------
# Row-slot registry: cells for available hosts only
# --------------------------------------------------------------------------


def _check_registry(matrix, peak):
    """Slot invariants plus the memory-proportionality bound."""
    slot_of = matrix._slot_of
    held = slot_of[slot_of >= 0].tolist()
    # A host holds a row slot iff it is available.
    assert np.array_equal(slot_of >= 0, matrix.avail)
    # Held and free slots partition the row capacity.
    row_cap = matrix.scores.shape[0]
    assert sorted(held + matrix._free_rows) == list(range(row_cap))
    assert row_cap <= max(ROW_CAP0, 2 * peak)
    stats = matrix.stats()
    assert stats["row_capacity"] == row_cap
    assert stats["active_rows_peak"] == peak


def _bind_and_check(matrix, hosts, cache, columns, now, peak):
    """Bind, verify against a fresh build, compare hill-climb moves."""
    matrix.bind_round(columns, now)
    peak = max(peak, int(matrix.avail.sum()))
    assert matrix.verify_against_fresh(columns, now)
    assert matrix.verify_cells()
    _check_registry(matrix, peak)
    fresh = ScoreMatrixBuilder(hosts=hosts, columns=columns, now=now,
                               config=matrix.config, host_cache=cache)
    moves = hill_climb(matrix)
    assert moves == hill_climb(fresh)
    # Hypothetical moves must not corrupt rows they did not touch.
    assert matrix.verify_cells()
    return moves, peak


def _fail(host):
    """Host failure: residents go back to the queue, the host goes down."""
    for vm in list(host.vms.values()):
        host.remove_vm(vm.vm_id)
        vm.state = VmState.QUEUED
        vm.host_id = None
    host.state = HostState.FAILED


def _accept(world, moves):
    """Apply the solver's moves to the world (the engine's actuation)."""
    for move in moves:
        vm = world.vms[move.vm_id]
        dst = world.hosts[world.index[move.host_id]]
        if not dst.is_available or dst.quarantined:
            continue
        if move.from_queue:
            place(dst, vm)
        elif vm.state is VmState.RUNNING:
            world.host_of(vm).remove_vm(vm.vm_id)
            dst.add_vm(vm)


class TestRowSlotRegistry:
    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_slot_recycling_under_availability_churn(self, data):
        """Power, quarantine and failure churn recycles row slots.

        Hosts leave and return across rounds, so recycled slots carry
        other hosts' cells; every bind must still equal a fresh build
        and emit the fresh builder's move sequence.
        """
        n_hosts = data.draw(st.integers(min_value=3, max_value=24),
                            label="n_hosts")
        hosts = [make_host(
            i,
            node_class=data.draw(st.sampled_from(CLASSES)),
            state=data.draw(st.sampled_from([HostState.ON, HostState.OFF])),
        ) for i in range(n_hosts)]
        world = World(hosts)
        for _ in range(data.draw(st.integers(min_value=1, max_value=8))):
            vm = make_vm(world.next_vm,
                         cpu=data.draw(st.sampled_from([50.0, 100.0, 400.0])))
            world.next_vm += 1
            world.vms[vm.vm_id] = vm
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, ScoreConfig.sb())
        peak = int(matrix.avail.sum())

        now = 0.0
        for _ in range(data.draw(st.integers(min_value=3, max_value=8),
                                 label="n_rounds")):
            for _ in range(data.draw(st.integers(min_value=1, max_value=6))):
                host = data.draw(st.sampled_from(hosts))
                op = data.draw(st.sampled_from(
                    ["power", "quarantine", "fail", "repair", "arrive"]))
                if op == "power":
                    if host.state is HostState.OFF:
                        host.state = HostState.ON
                    elif host.state is HostState.ON and not host.vms:
                        host.state = HostState.OFF
                elif op == "quarantine":
                    host.quarantined = not host.quarantined
                elif op == "fail" and host.state is not HostState.FAILED:
                    _fail(host)
                elif op == "repair" and host.state is HostState.FAILED:
                    host.state = HostState.ON
                elif op == "arrive":
                    vm = make_vm(world.next_vm)
                    world.next_vm += 1
                    world.vms[vm.vm_id] = vm
            now += 600.0
            columns = world.queued() + world.running()
            moves, peak = _bind_and_check(matrix, hosts, cache, columns,
                                          now, peak)
            if data.draw(st.booleans()):
                _accept(world, moves)

    def test_row_capacity_grows_past_initial_then_recycles(self):
        """More concurrently available hosts than ``ROW_CAP0`` grow rows."""
        n_hosts = 3 * ROW_CAP0
        hosts = [make_host(i, state=HostState.ON if i < 3 else HostState.OFF)
                 for i in range(n_hosts)]
        world = World(hosts)
        for h in hosts[:3]:
            vm = make_vm(world.next_vm)
            world.next_vm += 1
            world.vms[vm.vm_id] = vm
            place(h, vm)
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, ScoreConfig.sb())
        assert matrix.scores.shape[0] == ROW_CAP0
        peak = 3

        # No move: hosts 0-2 stay clean, so their cells must survive the
        # row doubling below (the columns only catch up on new rows).
        moves, peak = _bind_and_check(matrix, hosts, cache, world.running(),
                                      100.0, peak)
        assert moves == []
        for h in hosts[3:]:
            h.state = HostState.ON
        moves, peak = _bind_and_check(matrix, hosts, cache, world.running(),
                                      200.0, peak)
        assert peak == n_hosts
        assert matrix.scores.shape[0] > n_hosts
        # The doubling copy holds both buffers: the reported footprint
        # includes the transient.
        cap = matrix.scores.shape[1]
        assert matrix.stats()["matrix_nbytes"] >= (
            (ROW_CAP0 + matrix.scores.shape[0]) * cap * 8)
        _accept(world, moves)
        # Most hosts power off again; the survivors keep their slots and
        # the returning ones reuse freed slots without further growth.
        grown = matrix.scores.shape[0]
        for h in hosts[5:]:
            if not h.vms:
                h.state = HostState.OFF
        _bind_and_check(matrix, hosts, cache, world.running(), 300.0, peak)
        for h in hosts[-ROW_CAP0:]:
            h.state = HostState.ON
        _bind_and_check(matrix, hosts, cache, world.running(), 400.0, peak)
        assert matrix.scores.shape[0] == grown

    @pytest.mark.parametrize("accepted", [True, False])
    def test_migration_off_an_unavailable_host(self, accepted):
        """A VM leaving a quarantined host: the source row has no slot.

        Every slot is held (host 16 takes the slot host 0 gives up), so a
        stray write for the slotless source row would land on a live
        host's cells; the post-move consistency check and the next bind
        (move applied or rejected) catch it.
        """
        hosts = [make_host(i) for i in range(ROW_CAP0)]
        hosts.append(make_host(ROW_CAP0, state=HostState.OFF))
        world = World(hosts)
        vm = make_vm(world.next_vm)
        world.vms[vm.vm_id] = vm
        place(hosts[0], vm)
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, ScoreConfig.sb())
        peak = ROW_CAP0
        _bind_and_check(matrix, hosts, cache, [vm], 100.0, peak)

        hosts[0].quarantined = True
        hosts[ROW_CAP0].state = HostState.ON
        moves, peak = _bind_and_check(matrix, hosts, cache, [vm], 200.0, peak)
        assert matrix._slot_of[0] == -1
        assert matrix.scores.shape[0] == ROW_CAP0
        assert [(m.vm_id, m.from_queue) for m in moves] == [(vm.vm_id, False)]
        assert moves[0].host_id != 0
        if accepted:
            _accept(world, moves)
            assert vm.host_id == moves[0].host_id
        _bind_and_check(matrix, hosts, cache, [vm], 300.0, peak)

    def test_lagged_column_catches_up_across_a_recycled_slot(self):
        """A column absent while a slot changed owner reads no stale cell.

        The row capacity is exactly full, so every slot (the last one
        included) belongs to a live host; host 15 is the argmin of every
        column.  Host 3 goes off and host 16 takes its slot while column
        ``a`` sits out a round; on its return it must catch up on host 16
        and treat host 3 as +inf.
        """
        hosts = [make_host(i) for i in range(ROW_CAP0)]
        hosts.append(make_host(ROW_CAP0, state=HostState.OFF))
        place(hosts[15], make_vm(99))
        a, c = make_vm(100), make_vm(101)
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, ScoreConfig.sb())
        assert matrix.scores.shape[0] == ROW_CAP0
        peak = ROW_CAP0

        matrix.bind_round([a, c], 100.0)
        assert matrix.verify_against_fresh([a, c], 100.0)
        assert matrix._col_min_row[matrix._round_slots].tolist() == [15, 15]
        hosts[3].state = HostState.OFF
        hosts[ROW_CAP0].state = HostState.ON
        for now, columns in ((200.0, [c]), (300.0, [a, c])):
            matrix.bind_round(columns, now)
            assert matrix.verify_against_fresh(columns, now)
            assert matrix.verify_cells()
            _check_registry(matrix, peak)
        assert matrix._slot_of[ROW_CAP0] == 3

    def test_memory_follows_available_hosts_not_cluster_size(self):
        """A mostly-off cluster stores a handful of rows, not M."""
        hosts = [make_host(i, state=HostState.ON if i % 50 == 0
                           else HostState.OFF) for i in range(500)]
        vms = [make_vm(100 + v) for v in range(4)]
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, ScoreConfig.sb())
        _bind_and_check(matrix, hosts, cache, vms, 100.0, 10)
        assert matrix.scores.shape[0] == ROW_CAP0
        dense_nbytes = 500 * matrix.scores.shape[1] * 8
        assert matrix.stats()["matrix_nbytes"] < dense_nbytes / 10


# --------------------------------------------------------------------------
# Frozen columns: apply_move maintains only the round's unfrozen columns
# --------------------------------------------------------------------------


def _watch_frozen_moves(matrix):
    """Wrap ``apply_move``: a move that leaves no unfrozen round column
    must rescore nothing (it is pure bookkeeping)."""
    inner = matrix.apply_move
    frozen_only = []

    def apply_move(col, row):
        before = matrix.stats()["cells_rescored"]
        inner(col, row)
        if matrix._frozen[matrix._round_slots].all():
            assert matrix.stats()["cells_rescored"] == before
            frozen_only.append((col, row))

    matrix.apply_move = apply_move
    return frozen_only


def _arrive(world, cpu=100.0):
    vm = make_vm(world.next_vm, cpu=cpu)
    world.next_vm += 1
    world.vms[vm.vm_id] = vm
    return vm


class TestFrozenColumns:
    @pytest.mark.parametrize("accepted", [True, False])
    def test_one_column_round_move_is_pure_bookkeeping(self, accepted):
        hosts = [make_host(i, node_class=CLASSES[i % 3]) for i in range(5)]
        hosts[4].state = HostState.OFF
        world = World(hosts)
        place(hosts[1], _arrive(world))
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, ScoreConfig.sb())
        frozen_only = _watch_frozen_moves(matrix)
        peak = 4
        now = 100.0
        for _ in range(4):
            vm = _arrive(world)
            moves, peak = _bind_and_check(matrix, hosts, cache, [vm], now,
                                          peak)
            assert matrix.n_cols == 1 and len(moves) == 1
            if accepted:
                _accept(world, moves)
            now += 100.0
        assert len(frozen_only) == 4
        # The next bind catches up on every skipped cell and cost.
        columns = world.queued() + world.running()
        _bind_and_check(matrix, hosts, cache, columns, now, peak)

    @pytest.mark.parametrize("accept_migration", [True, False])
    def test_mixed_round_with_rejected_or_accepted_migration(
        self, accept_migration
    ):
        """A consolidation round leaves frozen and live columns behind.

        Host 0 is over-packed, so the round migrates ``b`` off it and
        places ``c`` while ``a`` and ``d`` stay live; the frozen columns'
        cells, costs and argmins are left behind and must be caught up
        at the next bind whether the migration happened or not.
        """
        hosts = [make_host(i) for i in range(4)]
        world = World(hosts)
        a, b, d, c = (_arrive(world, cpu) for cpu in (400.0, 100.0,
                                                      100.0, 100.0))
        place(hosts[0], a)
        place(hosts[0], b)
        place(hosts[1], d)
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, ScoreConfig.sb())
        frozen_only = _watch_frozen_moves(matrix)
        moves, peak = _bind_and_check(
            matrix, hosts, cache, world.queued() + world.running(), 100.0, 4)
        assert [(m.vm_id, m.from_queue) for m in moves] == [
            (b.vm_id, False), (c.vm_id, True)]
        slots = matrix._round_slots
        assert matrix._frozen[slots].tolist() == [True, False, True, False]
        assert frozen_only == []

        place(hosts[world.index[moves[1].host_id]], c)
        if accept_migration:
            _accept(world, moves[:1])
        assert (b.host_id == moves[0].host_id) == accept_migration
        # Every column returns (the migrated one lags on touched rows),
        # then a one-column round follows.
        moves, peak = _bind_and_check(
            matrix, hosts, cache, world.queued() + world.running(), 200.0,
            peak)
        _bind_and_check(matrix, hosts, cache, [_arrive(world)], 300.0, peak)

    def test_migrated_column_rescans_rows_it_did_not_touch(self):
        """A column frozen by an accepted migration lags on touched rows
        only, yet its argmin must be the scan over every active row.

        ``b`` stays a hard SLA violator: its home cell is +inf in both
        rounds, so it moves 0 -> 1, and next round its best host is 2,
        a row the first move never touched.
        """
        hosts = [make_host(i) for i in range(5)]
        world = World(hosts)
        b, x, y = (_arrive(world, cpu) for cpu in (100.0, 200.0, 100.0))
        place(hosts[0], b)
        place(hosts[1], x)
        place(hosts[2], y)
        cache = ColumnarClusterState(hosts)
        config = ScoreConfig.sb(enable_sla=True)
        matrix = PersistentScoreMatrix(cache, config)
        _watch_frozen_moves(matrix)
        fulf = {b.vm_id: 0.3}
        for now, host in ((100.0, 1), (110.0, 2)):
            matrix.bind_round([b], now, fulf)
            assert matrix.verify_against_fresh([b], now, fulf)
            assert matrix.verify_cells()
            fresh = ScoreMatrixBuilder(hosts=hosts, columns=[b], now=now,
                                       config=config, fulfillments=fulf,
                                       host_cache=cache)
            moves = hill_climb(matrix)
            assert moves == hill_climb(fresh)
            assert [m.host_id for m in moves] == [host]
            _accept(world, moves)

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_one_column_and_consolidation_rounds_interleaved(self, data):
        """Arrival rounds (one column) between consolidation rounds.

        Moves are accepted or rejected at random; every bind must equal
        a fresh build and every hill climb the fresh builder's moves.
        """
        n_hosts = data.draw(st.integers(min_value=2, max_value=6))
        hosts = [make_host(
            i,
            node_class=data.draw(st.sampled_from(CLASSES)),
            state=data.draw(st.sampled_from(
                [HostState.ON, HostState.ON, HostState.OFF])),
        ) for i in range(n_hosts)]
        hosts[0].state = HostState.ON
        world = World(hosts)
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            vm = _arrive(world, data.draw(st.sampled_from([100.0, 400.0])))
            place(data.draw(st.sampled_from(
                [h for h in hosts if h.is_available])), vm)
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, ScoreConfig.sb())
        _watch_frozen_moves(matrix)
        peak = int(matrix.avail.sum())
        now = 0.0
        for _ in range(data.draw(st.integers(min_value=2, max_value=8))):
            now += 300.0
            if data.draw(st.booleans(), label="consolidate"):
                columns = world.queued() + world.running()
            else:
                columns = [_arrive(world, data.draw(
                    st.sampled_from([50.0, 100.0, 400.0])))]
            if not columns:
                continue
            moves, peak = _bind_and_check(matrix, hosts, cache, columns,
                                          now, peak)
            _accept(world, [m for m in moves if data.draw(st.booleans())])


# --------------------------------------------------------------------------
# HostArrayCache match memoization (satellite: identity fast-path fix)
# --------------------------------------------------------------------------


class TestHostArrayCacheMemo:
    def test_in_place_growth_defeats_identity_fast_path(self):
        hosts = [make_host(i) for i in range(3)]
        cache = HostArrayCache(hosts)
        assert cache.matches(hosts)
        hosts.append(make_host(3))
        # Same list object, different cluster: must NOT match.
        assert not cache.matches(hosts)
        hosts.pop()
        assert cache.matches(hosts)

    def test_invalidate_match_memo_recovers_element_swap(self):
        hosts = [make_host(i) for i in range(3)]
        cache = HostArrayCache(hosts)
        other = list(hosts)
        assert cache.matches(other)  # element-wise pass memoizes `other`
        other[1] = make_host(99)
        cache.invalidate_match_memo()
        assert not cache.matches(other)

    def test_policy_rebuilds_cache_only_on_cluster_change(self):
        hosts = [make_host(i) for i in range(3)]
        policy = ScoreBasedPolicy(ScoreConfig.sb0())
        ctx = SimpleNamespace(hosts=hosts)
        first = policy._cached_host_arrays(ctx)
        # Steady state: the same list object is reused, zero rebuilds.
        for _ in range(5):
            assert policy._cached_host_arrays(ctx) is first
        hosts.append(make_host(3))
        second = policy._cached_host_arrays(ctx)
        assert second is not first
        assert len(second.cap_cpu) == 4
        # And a persistent matrix bound to the old cache is replaced too.
        assert policy._cached_host_arrays(ctx) is second


# --------------------------------------------------------------------------
# Configuration gating + recovery
# --------------------------------------------------------------------------


class TestGatingAndRecovery:
    def test_persistent_requires_columnar_and_hill_climb(self):
        with pytest.raises(ConfigurationError):
            ScoreBasedPolicy(ScoreConfig.sb(), use_columnar=False,
                             use_persistent_matrix=True)
        with pytest.raises(ConfigurationError):
            ScoreBasedPolicy(ScoreConfig.sb(), solver="sa",
                             use_persistent_matrix=True)
        assert ScoreBasedPolicy(ScoreConfig.sb()).use_persistent_matrix
        assert not ScoreBasedPolicy(
            ScoreConfig.sb(), use_columnar=False).use_persistent_matrix
        assert not ScoreBasedPolicy(
            ScoreConfig.sb(), solver="sa").use_persistent_matrix

    def test_verify_cells_catches_corruption_and_rebuild_recovers(self):
        hosts = [make_host(i) for i in range(4)]
        vms = [make_vm(100 + v) for v in range(3)]
        place(hosts[0], vms[0])
        cache = ColumnarClusterState(hosts)
        matrix = PersistentScoreMatrix(cache, ScoreConfig.sb())
        columns = [vms[1], vms[2], vms[0]]
        matrix.bind_round(columns, 50.0)
        assert matrix.verify_cells()

        slot = matrix._round_slots[0]
        host = int(matrix._active[0])
        # Simulated drift, written through the host's row slot.
        matrix.scores[matrix._slot_of[host], slot] += 1.0
        with pytest.raises(StateError):
            matrix.verify_cells()

        matrix.force_full_rebuild()
        matrix.bind_round(columns, 60.0)
        assert matrix.verify_cells()
        assert matrix.verify_against_fresh(columns, 60.0)
        assert matrix.stats()["full_rebuilds"] == 1
