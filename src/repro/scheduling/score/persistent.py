"""Persistent cross-round score matrix: O(dirty) rescoring.

:class:`PersistentScoreMatrix` keeps the score matrix alive across
scheduling rounds instead of rebuilding O(online x N) cells per round
(:class:`~repro.scheduling.score.matrix.ScoreMatrixBuilder`).  It shares
the column slot registry of
:class:`~repro.scheduling.score.columnar.ColumnarClusterState` — a matrix
column *is* a columnar VM slot — and stores per-slot column attributes
(current host, queued flag, migration-penalty bucket, SLA fulfilment,
current cost, argmin cache).

**Row-slot registry.**  Cells exist only for *available* hosts: the
cell array is ``(row_cap, cap)`` and ``_slot_of[host]`` maps a host to
its matrix row (``-1`` when it has none).  A host holds a row slot iff
``avail[host]``; slots are assigned at construction and assigned or
released (through a free list) only where :meth:`bind_round` sees a
dirty host's availability flip.  ``row_cap``
doubles from a small start, mirroring the column registry's growth, so
memory follows the number of concurrently available hosts — a few
percent of the cluster under the lambda power manager — not the
cluster size.  Every read gathers through ``_slot_of`` with host
indices in ascending order, so ties still resolve to the lowest host.

Per round, :meth:`bind_round`:

1. collects the **dirty host rows**: the engine dirty sink (every ``Host``
   mutation, including power transitions and quarantine — the setters mark
   dirty), rows touched hypothetically by last round's
   :meth:`apply_move` calls, and rows whose observed-reliability override
   changed; restores their dynamic state from the columnar ground truth,
   moves row slots on availability flips, and rescores them across the
   round's columns (lazily — see the stamps below);
2. detects **changed columns** among the round's participants by comparing
   stored column attributes against fresh ones (placement changed, queued
   flag flipped, migration-penalty bucket crossed, SLA fulfilment moved,
   slot newly filled/refilled) and rescores exactly those columns across
   the active rows;
3. maintains ``active_rows`` incrementally (recomputed only on an
   availability flip among the dirty rows — the steady state pays no O(M)
   scan) and keeps the per-column argmin caches valid under the partial
   rescoring via a generalized multi-row take/rescan rule.

**Why a recycled row slot is never read stale.**  A host returning to
service is dirty at that bind, so its ``_row_stamp`` is the current bind
index and every column's ``_col_stamp`` is older.  Whenever a column is
next read it participates in a round, and participation rescores it on
every row stamped after its own stamp — including the returning host —
before any cost, argmin or solver read.  Whatever the slot held for its
previous owner is overwritten first.

**The bit-identity invariant.**  Every cell is produced by one formula,
:meth:`_cells`, running the same elementwise float expressions as
``ScoreMatrixBuilder._score_rows``; numpy broadcasting evaluates it for
one row, one column or a block, so a cell rescored incrementally, in any
shape, is bit-for-bit the cell a fresh build would compute; the
``verify_against_fresh`` oracle and the whole-sim equality tests check
exactly that.  Two representation changes make the incremental form
possible without breaking it:

* the migration penalty ``T_r < C_m ? 2 C_m : C_m/2`` is factorized
  through **buckets**: with ``D`` the sorted distinct per-host migration
  costs, a column's bucket is ``searchsorted(D, T_r, 'right')`` and the
  predicate becomes ``cm_rank[host] >= bucket`` — columns only need
  rescoring when ``T_r`` (monotonically decreasing) crosses a distinct
  ``C_m`` value, not every round;
* cells of **unavailable rows are never stored or read**: they are +inf
  by construction (the feasibility mask requires ``avail``), cost lookups
  mask on ``avail`` before gathering, and minima scan active rows only.
  Where an unavailable row's cells are still needed — a lazily caught-up
  row that just went offline, or the source host of a migration off a
  quarantined host — they are scored into a local block and used from
  there.

Tie-breaking is order-deterministic under partial rescoring: dirty rows
are processed in ascending host index (the dirty feed is a *set*; sorting
makes the result independent of mutation order), the multi-row argmin
takes the lowest host index on value ties, and :meth:`best_move` breaks
value ties by lowest row then lowest column exactly like the fresh
builder — ``tests/test_score_persistent.py`` permutes dirty-row marking
order and asserts identical move sequences.

**A round costs its live columns.**  Almost every round places one
newly arrived VM: a one-column rescore is 1-D work, and the argmin of a
fully rescored column is taken from the block just scored.
:meth:`apply_move` maintains cells, costs and argmins only for the
round's *unfrozen* columns, so once the moved column was the last one a
move is pure bookkeeping.  A queued->placed move flips the column's
pricing from creation cost to migration penalty on *every* row; rather
than rescoring the full column mid-round, the column is marked
**stale** and lazily rescored in full the next time it participates in
a round.  Rows touched by hypothetical moves are remembered and folded
into the next bind's dirty set (stamped), so rejected actions (chaos,
capacity races) cannot leave phantom state behind and a frozen
column's skipped cells are caught up before any read
(:meth:`apply_move` says why).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.cluster.host import Host
from repro.cluster.vm import Vm
from repro.errors import SchedulingError, StateError
from repro.scheduling.score.columnar import ColumnarClusterState
from repro.scheduling.score.config import ScoreConfig

__all__ = ["PersistentScoreMatrix"]

INF = np.inf

#: Smallest row capacity of the cell array; it doubles from here as the
#: number of concurrently available hosts grows.
ROW_CAP0 = 16


def _log2_bucket(n: int) -> int:
    """Histogram bucket for a per-bind dirty count (0, 1, 2, 4, 8, ...)."""
    return 0 if n <= 0 else 1 << (int(n).bit_length() - 1)


class PersistentScoreMatrix:
    """Score matrix state surviving across ``policy.decide()`` rounds.

    Duck-compatible with the slice of ``ScoreMatrixBuilder`` the
    hill-climbing solver and the shutdown ranking consume: ``config``,
    ``hosts``, ``columns``, ``n_rows``/``n_cols``, ``is_queued`` (round
    order), ``host_cache``, :meth:`best_move`, :meth:`apply_move`,
    :meth:`current_costs`, :meth:`host_row_score`.

    Build one per (policy, columnar state); ``ScoreBasedPolicy`` does and
    rebuilds it only when the cluster changes.  Requires the columnar
    kernel (the column registry is the slot space) and the hill-climbing
    solver (metaheuristics mutate a fresh builder destructively).
    """

    def __init__(self, state: ColumnarClusterState, config: ScoreConfig) -> None:
        self.state = state
        #: Alias for the fresh builder's attribute of the same name — the
        #: shutdown ranking reads ``builder.host_cache.host_index``.
        self.host_cache = state
        self.config = config
        self.hosts = state.hosts
        self.n_rows = len(state.hosts)
        m = self.n_rows

        # ---- static host-side arrays (shared with the columnar state) ---
        self.cap_cpu = state.cap_cpu
        self.cap_mem = state.cap_mem
        self.cc = state.cc
        self.cm = state.cm
        #: Sorted distinct migration costs and each host's rank therein:
        #: ``tr < cm[r]``  <=>  ``cm_rank[r] >= searchsorted(D, tr, 'right')``.
        self._cm_distinct = np.unique(state.cm)
        self._cm_rank = np.searchsorted(self._cm_distinct, state.cm)
        self._rel = state.rel
        self._rel_overridden = False

        # ---- persistent dynamic host rows (hypothetical-capable copies) -
        state.sync()
        self.avail = state.avail.copy()
        self.res_cpu = state.res_cpu.copy()
        self.res_mem = state.res_mem.copy()
        self.nvms = state.nvms.copy()
        self.conc = state.conc.copy()
        self.pending = np.zeros(m)
        self._active = np.nonzero(self.avail)[0]

        # ---- dirty feeds ------------------------------------------------
        #: Host ids mutated since the last bind (power transitions included
        #: — ``Host.state``/``Host.quarantined`` setters mark dirty).
        self._sink: set = set()
        for h in state.hosts:
            h.add_dirty_sink(self._sink)
        #: Host *indices* touched hypothetically by apply_move; restored
        #: from ground truth and rescored at the next bind.
        self._touched: set = set()
        #: Lazy catch-up clocks.  ``_row_stamp[r]`` is the bind at which
        #: row ``r`` last changed; ``_col_stamp[c]`` the bind up to which
        #: column ``c``'s cells are current.  A column participating in a
        #: round rescoring only rows stamped later than its own stamp is
        #: exactly caught up — non-participating columns pay nothing.
        self._bind_idx = 0
        self._row_stamp = np.zeros(m, dtype=np.int64)

        # ---- row-slot registry: matrix rows for available hosts only ----
        n_act = self._active.size
        row_cap = ROW_CAP0
        while row_cap < n_act:
            row_cap *= 2
        self._slot_of = np.full(m, -1, dtype=np.intp)
        self._slot_of[self._active] = np.arange(n_act)
        #: Free row slots, a stack popped from the end.
        self._free_rows: List[int] = list(range(row_cap - 1, n_act - 1, -1))
        self._active_peak = n_act

        # ---- per-slot column state --------------------------------------
        cap = len(state.v_cpu)
        self.scores = np.full((row_cap, cap), INF)
        self._peak_matrix_nbytes = self.scores.nbytes
        self._cur = np.full(cap, -1, dtype=int)
        self._q = np.zeros(cap, dtype=bool)
        self._bucket = np.zeros(cap, dtype=int)
        self._fulf = np.ones(cap)
        self._cost = np.full(cap, config.queue_cost)
        self._col_min_val = np.full(cap, INF)
        self._col_min_row = np.zeros(cap, dtype=int)
        self._frozen = np.zeros(cap, dtype=bool)
        # Slots filled before this matrix attached start stale: their
        # first participation forces a full column rescore.
        self._stale = np.ones(cap, dtype=bool)
        self._col_stamp = np.zeros(cap, dtype=np.int64)
        self._live = np.zeros(cap, dtype=bool)
        self._live_list = np.empty(0, dtype=int)
        self._live_dirty = False
        state.attach_matrix_listener(self)

        # ---- round binding ----------------------------------------------
        self.columns: List[Vm] = []
        self.is_queued = np.zeros(0, dtype=bool)
        self._round_slots = np.empty(0, dtype=int)
        self.n_cols = 0
        self.now = 0.0

        # ---- observability ----------------------------------------------
        self._cells_rescored = 0
        self._cells_total = 0
        self._full_rebuilds = 0
        self._binds = 0
        self._row_hist: Counter = Counter()
        self._col_hist: Counter = Counter()

    # -------------------------------------------------- slot registry hooks

    def on_slot_filled(self, slot: int) -> None:
        """A columnar slot was (re)filled: cells are garbage until rescored."""
        self._stale[slot] = True
        if self._live[slot]:
            self._live[slot] = False
            self._live_dirty = True
        self._frozen[slot] = False
        self._cur[slot] = -1
        self._q[slot] = True
        self._cost[slot] = self.config.queue_cost
        self._col_min_val[slot] = INF
        self._col_min_row[slot] = 0

    def on_slots_freed(self, slots: Sequence[int]) -> None:
        """Retired VM slots swept out of the registry: drop their columns."""
        for slot in slots:
            if self._live[slot]:
                self._live[slot] = False
                self._live_dirty = True
            self._stale[slot] = True

    def on_grow(self, new_cap: int) -> None:
        """The slot registry doubled: grow the column dimension to match."""
        old = self.scores.shape[1]
        self._regrow(self.scores.shape[0], new_cap)
        for name, fill in (
            ("_cur", -1),
            ("_q", False),
            ("_bucket", 0),
            ("_fulf", 1.0),
            ("_cost", self.config.queue_cost),
            ("_col_min_val", INF),
            ("_col_min_row", 0),
            ("_frozen", False),
            ("_stale", True),
            ("_col_stamp", 0),
            ("_live", False),
        ):
            arr = getattr(self, name)
            new = np.full(new_cap, fill, dtype=arr.dtype)
            new[:old] = arr
            setattr(self, name, new)

    def _regrow(self, row_cap: int, cap: int) -> None:
        """Reallocate the cell array to ``(row_cap, cap)``, keeping cells."""
        rows, cols = self.scores.shape
        grown = np.full((row_cap, cap), INF)
        # Both buffers are alive during the copy; peak process RSS sees
        # old+new, so the footprint reported to the memory gate must too.
        self._peak_matrix_nbytes = max(
            self._peak_matrix_nbytes, self.scores.nbytes + grown.nbytes
        )
        grown[:rows, :cols] = self.scores
        self.scores = grown

    def _move_row_slots(self, gone: np.ndarray, back: np.ndarray) -> None:
        """Release the row slots of hosts gone unavailable, assign new ones.

        Releases first, so a bind that swaps hosts recycles their slots
        and the row capacity only grows with the concurrently available
        count.  A recycled slot keeps its old owner's cells: the host
        taking it is stamped dirty, and no column reads it before being
        rescored on it (module docstring).
        """
        free = self._free_rows
        for h in gone:
            free.append(int(self._slot_of[h]))
            self._slot_of[h] = -1
        if len(back) > len(free):
            rows = self.scores.shape[0]
            row_cap = rows
            while row_cap - rows + len(free) < len(back):
                row_cap *= 2
            self._regrow(row_cap, self.scores.shape[1])
            free[:0] = range(row_cap - 1, rows - 1, -1)
        for h in back:
            self._slot_of[h] = free.pop()
        self._active_peak = max(self._active_peak, self._active.size)

    def _live_cols(self) -> np.ndarray:
        if self._live_dirty:
            self._live_list = np.nonzero(self._live)[0]
            self._live_dirty = False
        return self._live_list

    # ------------------------------------------------------------------ math

    def _cells(self, R, C) -> np.ndarray:
        """Score cells of host rows ``R`` x column slots ``C``.

        ``R`` and ``C`` are each an int, a 1-D index array, or the
        ``rows[:, None]`` / ``cols[None, :]`` halves of a block; numpy
        broadcasting turns the gathers into scalar, 1-D or 2-D operands,
        so one row, one column and a block all run the same elementwise
        IEEE operations as ``ScoreMatrixBuilder._score_rows`` and every
        cell is bit-identical to the fresh builder's.  The migration
        predicate is evaluated in bucket space (``cm_rank >= bucket``
        <=> ``tr < cm``) — same booleans, same ``2*cm`` / ``cm/2`` values.
        """
        cfg = self.config
        st = self.state
        res_cpu = self.res_cpu[R]
        res_mem = self.res_mem[R]
        cap_cpu = self.cap_cpu[R]
        cap_mem = self.cap_mem[R]

        on = self._cur[C] == R
        add_cpu = np.where(on, 0.0, st.v_cpu[C])
        add_mem = np.where(on, 0.0, st.v_mem[C])
        occ_after = np.maximum(
            (res_cpu + add_cpu) / cap_cpu, (res_mem + add_mem) / cap_mem
        )
        occ_now = np.maximum(res_cpu / cap_cpu, res_mem / cap_mem)
        feasible = (
            st.v_feas[C, st.class_of_host[R]]
            & self.avail[R]
            & (occ_after <= 1.0 + 1e-9)
        )

        s = np.zeros(on.shape)
        if cfg.enable_virt:
            cm_r = self.cm[R]
            migration = np.where(
                self._cm_rank[R] >= self._bucket[C], 2.0 * cm_r, cm_r / 2.0
            )
            s += np.where(on, 0.0, np.where(self._q[C], self.cc[R], migration))
        if cfg.enable_conc:
            s += np.where(on, 0.0, self.conc[R] + self.pending[R])
        if cfg.enable_pwr:
            t_empty = (self.nvms[R] <= cfg.th_empty).astype(float)
            s += t_empty * cfg.c_empty - occ_now * cfg.c_fill
        if cfg.enable_sla:
            fulf = self._fulf[C]
            viol = on & (fulf < 1.0)
            s += np.where(viol, cfg.c_sla, 0.0)
            s = np.where(viol & (fulf <= cfg.th_sla), INF, s)
        if cfg.enable_fault:
            s += ((1.0 - self._rel[R]) - st.v_ftol[C]) * cfg.c_fail

        return np.where(feasible, s, INF)

    def _block(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        """:meth:`_cells` as a ``(rows, cols)`` block; one row or one
        column costs 1-D work."""
        if rows.size == 1:
            return self._cells(int(rows[0]), cols)[None, :]
        if cols.size == 1:
            return self._cells(rows, int(cols[0]))[:, None]
        return self._cells(rows[:, None], cols[None, :])

    # ---------------------------------------------------------------- costs

    def _soft_current_cost(self, r: int, slot: int) -> Optional[float]:
        """``reprice_hard_sla`` soft pricing — mirrors the fresh builder."""
        cfg = self.config
        st = self.state
        if not self.avail[r] or not st.v_feas[slot, st.class_of_host[r]]:
            return None
        occ_now = max(
            self.res_cpu[r] / self.cap_cpu[r], self.res_mem[r] / self.cap_mem[r]
        )
        if not occ_now <= 1.0 + 1e-9:
            return None
        s = 0.0
        if cfg.enable_pwr:
            t_empty = 1.0 if self.nvms[r] <= cfg.th_empty else 0.0
            s += t_empty * cfg.c_empty - occ_now * cfg.c_fill
        if cfg.enable_sla and self._fulf[slot] < 1.0:
            s += cfg.c_sla
        if cfg.enable_fault:
            s += ((1.0 - self._rel[r]) - st.v_ftol[slot]) * cfg.c_fail
        return float(s)

    def _compute_costs(self, slots: np.ndarray) -> np.ndarray:
        """Per-slot current costs from the stored cells (fresh semantics).

        Unavailable current hosts read as +inf without touching the cell
        array (they hold no row slot); infinite cells fall back to
        ``queue_cost`` or — under ``reprice_hard_sla`` — the soft pricing.
        """
        cfg = self.config
        costs = np.full(len(slots), cfg.queue_cost)
        cur = self._cur[slots]
        placed = np.nonzero(cur >= 0)[0]
        if placed.size:
            rows = cur[placed]
            on = self.avail[rows]
            vals = np.full(placed.size, INF)
            vals[on] = self.scores[self._slot_of[rows[on]], slots[placed[on]]]
            finite = np.isfinite(vals)
            costs[placed[finite]] = vals[finite]
            if cfg.reprice_hard_sla and not finite.all():
                for k in placed[~finite]:
                    soft = self._soft_current_cost(
                        int(cur[k]), int(slots[k])
                    )
                    if soft is not None:
                        costs[k] = soft
        return costs

    # --------------------------------------------------------------- minima

    def _refresh_minima(
        self, slots: np.ndarray, block: Optional[np.ndarray] = None
    ) -> None:
        """From-scratch (value, argmin-row) of the diff for unfrozen slots.

        ``block`` holds the slots' cells on the active rows when the
        caller has just scored them; otherwise they are gathered from
        the stored cells.  Rows ascend, so the lowest host wins ties.
        """
        act = self._active
        if act.size == 0:
            self._col_min_val[slots] = INF
            self._col_min_row[slots] = 0
            return
        if block is None:
            block = self.scores[np.ix_(self._slot_of[act], slots)]
        sub = block - self._cost[slots]
        k = np.argmin(sub, axis=0)
        self._col_min_row[slots] = act[k]
        self._col_min_val[slots] = sub[k, np.arange(slots.size)]

    # ----------------------------------------------------------------- bind

    def bind_round(
        self,
        columns: Sequence[Vm],
        now: float,
        fulfillments: Optional[Dict[int, float]] = None,
        reliability: Optional[Sequence[float]] = None,
    ) -> None:
        """Synchronize with ground truth and bind this round's columns.

        O(dirty rows x live columns + changed columns x active rows); the
        steady state (no host churn, no column churn) pays only the
        per-column attribute comparison.
        """
        cfg = self.config
        st = self.state
        st.sync()
        self._bind_idx += 1
        t = self._bind_idx

        # ---- dirty host rows --------------------------------------------
        index = st.host_index
        dirty = {index[hid] for hid in self._sink}
        self._sink.clear()
        dirty |= self._touched
        self._touched = set()
        if reliability is not None:
            rel = np.asarray(reliability, dtype=float)
            changed = np.nonzero(rel != self._rel)[0]
            dirty.update(int(i) for i in changed)
            self._rel = rel
            self._rel_overridden = True
        elif self._rel_overridden:
            changed = np.nonzero(st.rel != self._rel)[0]
            dirty.update(int(i) for i in changed)
            self._rel = st.rel
            self._rel_overridden = False

        # Ascending host order: the dirty feed is a set, sorting makes
        # every downstream tie-break independent of mutation order.
        if dirty:
            hs = np.fromiter(sorted(dirty), dtype=int, count=len(dirty))
            self._row_stamp[hs] = t
            avail_new = st.avail[hs]
            flip = self.avail[hs] != avail_new
            if flip.any():
                self.avail[hs] = avail_new
                self._active = np.nonzero(self.avail)[0]
                self._move_row_slots(
                    hs[flip & ~avail_new], hs[flip & avail_new]
                )
            self.res_cpu[hs] = st.res_cpu[hs]
            self.res_mem[hs] = st.res_mem[hs]
            self.nvms[hs] = st.nvms[hs]
            self.conc[hs] = st.conc[hs]
            self.pending[hs] = 0.0
        else:
            hs = np.empty(0, dtype=int)
        act = self._active

        # ---- columns ----------------------------------------------------
        slots, cur, q, tr = st.prepare_columns(columns, now)
        if self._cm_distinct.size:
            bucket = np.searchsorted(self._cm_distinct, tr, side="right")
        else:
            bucket = np.zeros(len(columns), dtype=int)
        if cfg.enable_sla:
            if fulfillments is None:
                raise SchedulingError("enable_sla requires a fulfillments map")
            fulf = np.array(
                [fulfillments.get(vm.vm_id, 1.0) for vm in columns]
            )
        else:
            fulf = np.ones(len(columns))

        changed = (
            self._stale[slots]
            | (self._cur[slots] != cur)
            | (self._q[slots] != q)
            | (~q & (self._bucket[slots] != bucket))
        )
        if cfg.enable_sla:
            changed |= self._fulf[slots] != fulf
        # Frozen last round and now lagging: its argmin is +inf until
        # rescanned (a changed column is rescanned anyway).
        was_frozen = slots[self._frozen[slots] & ~changed]
        self._cur[slots] = cur
        self._q[slots] = q
        self._bucket[slots] = bucket
        self._fulf[slots] = fulf
        self._frozen[slots] = False
        self._stale[slots] = False
        newly = slots[~self._live[slots]]
        if newly.size:
            self._live[newly] = True
            self._live_dirty = True
        cols_changed = np.sort(slots[changed])

        # ---- full rescore: stale/changed columns x active rows ----------
        # The block is kept: their minima are taken from it below.
        full = None
        if cols_changed.size and act.size:
            full = self._block(act, cols_changed)
            self.scores[self._slot_of[act][:, None], cols_changed] = full
            self._cells_rescored += full.size

        # ---- lazy catch-up: participating columns behind on row churn ---
        # A column's cells are current up to its ``_col_stamp``; only rows
        # stamped later changed since it last participated.  Group columns
        # by stamp (steady state: one group — last round's queue catching
        # up on this round's dirty rows) and rescore rows-behind x group.
        # Non-participating columns pay nothing until they return.  Rows
        # behind may have gone unavailable since: their cells are scored
        # (all +inf) for the argmin pass below but not stored.
        groups = []
        lagged = slots[~changed]
        if lagged.size:
            stamps = self._col_stamp[lagged]
            for s in np.unique(stamps):
                grp = lagged[stamps == s]
                rows = np.nonzero(self._row_stamp > s)[0]
                if rows.size:
                    block = self._block(rows, grp)
                    groups.append((s, grp, rows, block))
                    on = self.avail[rows]
                    self.scores[self._slot_of[rows[on]][:, None], grp] = (
                        block[on]
                    )
                    self._cells_rescored += rows.size * grp.size

        # ---- current costs (changed cols + cols homed on changed rows) --
        parts = [cols_changed]
        for s, grp, rows, _ in groups:
            cur_g = self._cur[grp]
            placed = cur_g >= 0
            if placed.any():
                home = np.where(placed, cur_g, 0)
                parts.append(grp[placed & (self._row_stamp[home] > s)])
        affected = (
            np.unique(np.concatenate(parts)) if len(parts) > 1 else cols_changed
        )
        if affected.size:
            old = self._cost[affected].copy()
            new = self._compute_costs(affected)
            # A cost change shifts the whole diff column uniformly; +inf
            # cached minima absorb the shift.
            self._col_min_val[affected] += old - new
            self._cost[affected] = new

        # ---- argmin maintenance: generalized multi-row take/rescan ------
        if cols_changed.size:
            self._refresh_minima(cols_changed, full)
        rescan_parts = [was_frozen]
        for s, grp, rows, block in groups:
            sub = block - self._cost[grp]
            k = np.argmin(sub, axis=0)  # rows ascending: lowest host wins
            w = sub[k, np.arange(grp.size)]
            rw = rows[k]
            v = self._col_min_val[grp]
            r = self._col_min_row[grp]
            in_t = self._row_stamp[r] > s
            take = (
                (w < v) | ((w == v) & (rw < r)) | (in_t & (w == v) & (rw <= r))
            )
            rescan_parts.append(grp[in_t & ~take])
            if take.any():
                tk = grp[take]
                self._col_min_val[tk] = w[take]
                self._col_min_row[tk] = rw[take]
        rescan = np.concatenate(rescan_parts)
        if rescan.size:
            # A slot listed twice is rescanned to the same minimum.
            self._refresh_minima(rescan)
        self._col_stamp[slots] = t

        # ---- round binding ----------------------------------------------
        self._round_slots = slots
        self.columns = list(columns)
        self.is_queued = q.copy()
        self.n_cols = len(self.columns)
        self.now = float(now)

        # ---- observability ----------------------------------------------
        self._binds += 1
        # Counterfactual: a fresh builder scores every row (available or
        # not) for every round column.
        self._cells_total += self.n_rows * slots.size
        self._row_hist[_log2_bucket(hs.size)] += 1
        self._col_hist[_log2_bucket(cols_changed.size)] += 1

    # ------------------------------------------------------------ interface

    def current_costs(self) -> np.ndarray:
        """Per-column (round order) cost of the status quo."""
        return self._cost[self._round_slots].copy()

    def best_move(self) -> Optional[tuple]:
        """``(row, col, gain)`` of the most negative diff cell, O(N_round).

        Bit-identical tie-breaking to the fresh builder: lowest row first,
        then lowest column (round order).
        """
        if self.n_cols == 0 or self.n_rows == 0:
            return None
        vals = self._col_min_val[self._round_slots]
        best = float(np.min(vals))
        if not np.isfinite(best):
            return 0, int(np.argmin(vals)), best
        ties = np.nonzero(vals == best)[0]
        rows = self._col_min_row[self._round_slots[ties]]
        k = int(np.argmin(rows))
        return int(rows[k]), int(ties[k]), best

    def apply_move(self, col: int, row: int) -> None:
        """Hypothetically move round column ``col`` to host ``row``.

        Mirrors the fresh builder move-for-move (occupancy bookkeeping,
        pending concurrency, freeze, take/rescan cache maintenance), but
        rescores the <=2 touched rows and updates costs and argmins only
        for the round's *unfrozen* columns: once every column is frozen
        (every one-column round) the move is pure bookkeeping.  It also
        remembers the touched rows for the next bind and marks a
        queued->placed column stale (its pricing flipped on every row;
        the full rescore is deferred to its next participation).

        Skipping frozen columns is safe because nothing reads them again
        this round, and every later read is preceded by a catch-up: the
        touched rows are stamped at the next bind, so a lagging column
        is rescored on them first; a frozen column's argmin stays +inf
        and is rescanned at its next bind (``was_frozen``); and its cost
        is recomputed at its next participation — after a placement it
        is stale, a rejected action changes its current host, and an
        accepted migration homes it on a touched row, stamped later
        than the column.
        """
        slot = int(self._round_slots[col])
        if self._frozen[slot]:
            raise SchedulingError(f"column {col} is frozen")
        if not (0 <= row < self.n_rows):
            raise SchedulingError(f"row {row} out of range")
        old = int(self._cur[slot])
        if old == row:
            raise SchedulingError("move must change the host")
        st = self.state
        vcpu = st.v_cpu[slot]
        vmem = st.v_mem[slot]

        if old >= 0:
            self.res_cpu[old] -= vcpu
            self.res_mem[old] -= vmem
            self.nvms[old] -= 1
        self.res_cpu[row] += vcpu
        self.res_mem[row] += vmem
        self.nvms[row] += 1
        placement = bool(self._q[slot])
        self.pending[row] += self.cc[row] if placement else self.cm[row]

        self._cur[slot] = row
        self._q[slot] = False
        self.is_queued[col] = False
        self._frozen[slot] = True
        self._col_min_val[slot] = INF
        self._col_min_row[slot] = 0
        if placement:
            self._stale[slot] = True

        touched = [row] if old < 0 else sorted({old, row})
        self._touched.update(touched)
        rs = self._round_slots
        self._cells_total += len(touched) * rs.size
        lv = rs[~self._frozen[rs]]
        if not lv.size:
            return
        # Each touched row's cells, kept for the take/rescan below and
        # stored only for rows holding a slot (``old`` may be offline,
        # e.g. a VM migrating off a quarantined host).
        row_vals = [self._cells(t, lv) for t in touched]
        for t, vals in zip(touched, row_vals):
            if self.avail[t]:
                self.scores[self._slot_of[t], lv] = vals
        self._cells_rescored += len(touched) * lv.size

        # ---- cache maintenance (fresh builder's rules, unfrozen slots) --
        cur_l = self._cur[lv]
        homed = cur_l == touched[0]
        if len(touched) == 2:
            homed |= cur_l == touched[1]
        homed_slots = lv[homed]
        if homed_slots.size:
            old_costs = self._cost[homed_slots].copy()
            new_costs = self._compute_costs(homed_slots)
            self._col_min_val[homed_slots] += old_costs - new_costs
            self._cost[homed_slots] = new_costs

        cost = self._cost[lv]
        v = self._col_min_val[lv]
        r = self._col_min_row[lv]
        if len(touched) == 1:
            t0 = touched[0]
            w = row_vals[0] - cost
            take = (w < v) | ((w == v) & (r >= t0))
            rescan = (r == t0) & (w > v)
            if take.any():
                t = lv[take]
                self._col_min_val[t] = w[take]
                self._col_min_row[t] = t0
        else:
            d0 = row_vals[0] - cost
            d1 = row_vals[1] - cost
            first = d0 <= d1
            w = np.where(first, d0, d1)
            rw = np.where(first, touched[0], touched[1])
            in_t = (r == touched[0]) | (r == touched[1])
            take = (
                (w < v) | ((w == v) & (rw < r)) | (in_t & (w == v) & (rw <= r))
            )
            rescan = in_t & ~take
            if take.any():
                t = lv[take]
                self._col_min_val[t] = w[take]
                self._col_min_row[t] = rw[take]
        if rescan.any():
            self._refresh_minima(lv[rescan])

    def host_row_score(self, row: int) -> float:
        """Aggregated row score for shutdown ranking (fresh semantics)."""
        if self.n_cols == 0:
            return 0.0
        qc = self.config.queue_cost
        if not self.avail[row]:
            vals = np.full(self.n_cols, qc)
        else:
            vals = self.scores[self._slot_of[row], self._round_slots]
            vals[~np.isfinite(vals)] = qc
        return float(vals.mean())

    # --------------------------------------------------------------- oracle

    def verify_against_fresh(
        self,
        columns: Sequence[Vm],
        now: float,
        fulfillments: Optional[Dict[int, float]] = None,
        reliability: Optional[Sequence[float]] = None,
    ) -> bool:
        """Oracle: compare against a from-scratch ``ScoreMatrixBuilder``.

        Valid right after :meth:`bind_round` with the same arguments (the
        bound state is then real, not hypothetical).  Compares cells on
        active rows, current costs, and the argmin caches for every round
        column; raises :class:`~repro.errors.StateError` on any mismatch.
        """
        from repro.scheduling.score.matrix import ScoreMatrixBuilder

        fresh = ScoreMatrixBuilder(
            hosts=self.hosts,
            columns=columns,
            now=now,
            config=self.config,
            fulfillments=fulfillments,
            host_cache=self.state,
            reliability=reliability,
        )
        rs = self._round_slots
        act = self._active
        if not np.array_equal(act, np.nonzero(fresh.avail)[0]):
            raise StateError("persistent matrix drift: active row set")
        if act.size and rs.size:
            mine = self.scores[np.ix_(self._slot_of[act], rs)]
            theirs = fresh.scores[act]
            if not np.array_equal(mine, theirs):
                bad = np.nonzero(mine != theirs)
                r0, c0 = int(bad[0][0]), int(bad[1][0])
                raise StateError(
                    "persistent matrix drift: cell "
                    f"(host {int(act[r0])}, col {c0}) "
                    f"{mine[r0, c0]!r} != fresh {theirs[r0, c0]!r}"
                )
        for label, mine_a, fresh_a in (
            ("cost", self._cost[rs], fresh._cur_costs),
            ("min_val", self._col_min_val[rs], fresh._col_min_val),
        ):
            if not np.array_equal(mine_a, fresh_a):
                j = int(np.nonzero(mine_a != fresh_a)[0][0])
                raise StateError(
                    f"persistent matrix drift: {label}[{j}] "
                    f"{mine_a[j]!r} != fresh {fresh_a[j]!r}"
                )
        finite = np.isfinite(self._col_min_val[rs])
        if not np.array_equal(
            self._col_min_row[rs][finite], fresh._col_min_row[finite]
        ):
            raise StateError("persistent matrix drift: argmin row")
        return True

    def verify_cells(self) -> bool:
        """Internal-consistency oracle for the engine's strict mode.

        Recomputes every non-stale live column's cells/cost/argmin from
        the matrix's *own* stored attribute arrays and compares with the
        incrementally maintained values.  Rows touched by hypothetical
        moves since the last bind are excluded (their pending concurrency
        is round-local by design), as are columns homed on or argmin'd at
        such rows.  Raises :class:`~repro.errors.StateError` on mismatch.
        """
        live = self._live_cols()
        check = live[~self._stale[live]]
        # Lazily-behind columns (absent from recent rounds) are stale by
        # design — only columns caught up to the current bind are checkable.
        check = check[self._col_stamp[check] == self._bind_idx]
        act = self._active
        touched = np.fromiter(sorted(self._touched), dtype=int) if self._touched else np.empty(0, dtype=int)
        rows = np.setdiff1d(act, touched) if touched.size else act
        if not check.size or not rows.size:
            return True
        expect = self._block(rows, check)
        slot_rows = self._slot_of[rows]
        got = self.scores[np.ix_(slot_rows, check)]
        if not np.array_equal(expect, got):
            bad = np.nonzero(expect != got)
            r0, c0 = int(bad[0][0]), int(bad[1][0])
            raise StateError(
                "persistent matrix cell drift: "
                f"(host {int(rows[r0])}, slot {int(check[c0])}) "
                f"cached {got[r0, c0]!r} != recomputed {expect[r0, c0]!r}"
            )
        stable = check[~np.isin(self._cur[check], touched)] if touched.size else check
        if stable.size:
            costs = self._compute_costs(stable)
            if not np.array_equal(costs, self._cost[stable]):
                j = int(np.nonzero(costs != self._cost[stable])[0][0])
                raise StateError(
                    f"persistent matrix cost drift: slot {int(stable[j])} "
                    f"cached {self._cost[stable][j]!r} != {costs[j]!r}"
                )
            nf = stable[~self._frozen[stable]]
            if touched.size and nf.size:
                nf = nf[~np.isin(self._col_min_row[nf], touched)]
            if nf.size and rows.size:
                # The cached argmin row of every remaining column is in
                # the scanned subset (touched-row argmins were filtered),
                # so the partial scan must reproduce it exactly.
                sub = (
                    self.scores[np.ix_(slot_rows, nf)]
                    - self._cost[nf][None, :]
                )
                k = np.argmin(sub, axis=0)
                val = sub[k, np.arange(nf.size)]
                row = rows[k]
                fin = np.isfinite(self._col_min_val[nf])
                ok = (val == self._col_min_val[nf]) & (
                    (row == self._col_min_row[nf]) | ~fin
                )
                if not ok.all():
                    j = int(np.nonzero(~ok)[0][0])
                    raise StateError(
                        f"persistent matrix argmin drift: slot {int(nf[j])} "
                        f"cached ({self._col_min_val[nf][j]!r}, "
                        f"{int(self._col_min_row[nf][j])}) != recomputed "
                        f"({val[j]!r}, {int(row[j])})"
                    )
        return True

    def force_full_rebuild(self) -> None:
        """Mark everything dirty; the next bind rebuilds from ground truth."""
        self._full_rebuilds += 1
        self._touched.update(range(self.n_rows))
        live = self._live_cols()
        self._stale[live] = True

    # ---------------------------------------------------------------- stats

    def stats(self) -> Dict[str, float]:
        """Flat counters for ``SimulationResult.rescore_stats``."""
        out: Dict[str, float] = {
            "binds": float(self._binds),
            "cells_rescored": float(self._cells_rescored),
            "cells_total": float(self._cells_total),
            "full_rebuilds": float(self._full_rebuilds),
            "capacity": float(self.scores.shape[1]),
            "row_capacity": float(self.scores.shape[0]),
            "active_rows_peak": float(self._active_peak),
            "matrix_nbytes": float(self._peak_matrix_nbytes),
        }
        for bucket, count in sorted(self._row_hist.items()):
            out[f"dirty_rows_{bucket}"] = float(count)
        for bucket, count in sorted(self._col_hist.items()):
            out[f"dirty_cols_{bucket}"] = float(count)
        return out
