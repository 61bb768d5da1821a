"""Sharded execution: partition a chunk stream across per-shard policies.

The paper's deployment story is datacenter-scale: summaries are built
independently per node and merged at a coordinator.  :class:`ShardedEngine`
brings that shape to a single logical stream:

1. **Partition** — each incoming chunk is split across ``n_shards`` shard
   accumulators (round-robin or value-hash,
   :mod:`~repro.streaming.partition`), after the query's vectorised
   filters run.
2. **Accumulate** — every shard folds its sub-stream into its own
   in-flight sub-window state; shards never seal.
3. **Merge at the boundary** — at each global period boundary the shard
   states merge (via the universal :meth:`QuantilePolicy.merge
   <repro.sketches.base.QuantilePolicy.merge>` contract) into one
   *master* policy, which then seals, expires and answers exactly like a
   single-engine run.

Merging *before* sealing is what makes the results well-defined: a sealed
sub-window always summarises one full global period, so for policies
whose in-flight state merges commutatively (QLOVE's and Exact's frequency
maps) the emitted ``WindowResult`` stream is identical to
:meth:`StreamEngine.run_chunked` for **any** shard count and either
partitioner.  Sketch policies (CMQS, AM, Random, Moment) stay within
their error bounds but are not bit-stable across shard counts.

The optional ``parallel`` backend ships each period's per-shard
partitions to a :mod:`multiprocessing` pool, so shard ingestion runs on
real cores; the merge/seal/emit step stays in the parent.  Policy
factories must be picklable (a top-level function or
``functools.partial`` — not a lambda) to use it.
"""

from __future__ import annotations

import multiprocessing
from typing import TYPE_CHECKING, Callable, Iterator, List, Optional, Union

import numpy as np

from repro.streaming.checkpoint import (
    EngineCheckpoint,
    coerce_checkpoint,
    require_window_match,
    restore_policy,
)
from repro.streaming.engine import filtered_chunks
from repro.streaming.partition import StreamPartitioner
from repro.streaming.query import Query
from repro.streaming.result import WindowResult
from repro.streaming.windows import CountWindow

if TYPE_CHECKING:
    from repro.sketches.base import QuantilePolicy

# The policy layer depends on repro.streaming, so the runtime import of
# PolicyOperator is deferred into run_chunked() to keep this module
# importable from streaming/__init__ without a cycle.

PolicyFactory = Callable[[], "QuantilePolicy"]


def _ingest_partition(task: tuple) -> "QuantilePolicy":
    """Pool worker: build a fresh policy and bulk-ingest one shard's arrays."""
    factory, arrays = task
    policy = factory()
    for block in arrays:
        policy.accumulate_batch(block)
    return policy


class ShardedEngine:
    """Drive one count-windowed query over ``n_shards`` partitioned policies.

    Parameters
    ----------
    n_shards:
        Number of shard accumulators the stream is partitioned across.
    partitioner:
        ``"round_robin"`` (default; perfectly balanced, position-based) or
        ``"hash"`` (value-affine: equal values share a shard).
    emit_partial:
        As in :class:`~repro.streaming.engine.StreamEngine`: emit while
        the first window is still filling.
    parallel:
        Ingest shard partitions in a ``multiprocessing`` pool (one task
        per shard per period).  Requires a picklable policy factory.
    processes:
        Pool size for ``parallel=True`` (default: ``n_shards``).
    """

    def __init__(
        self,
        n_shards: int,
        partitioner: str = "round_robin",
        emit_partial: bool = False,
        parallel: bool = False,
        processes: Optional[int] = None,
    ) -> None:
        if n_shards < 1:
            raise ValueError("n_shards must be at least 1")
        self.n_shards = n_shards
        self.partitioner = partitioner
        self._emit_partial = emit_partial
        self.parallel = parallel
        self.processes = processes if processes is not None else n_shards
        # Populated per run so callers can inspect live state/space.
        self._master: Optional[QuantilePolicy] = None
        self._shards: List[QuantilePolicy] = []

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run_chunked(
        self,
        query: Query,
        policy_factory: PolicyFactory,
        resume: Optional[Union[EngineCheckpoint, dict]] = None,
        checkpoint_sink: Optional[Callable[[EngineCheckpoint], None]] = None,
    ) -> Iterator[WindowResult]:
        """Lazily evaluate a chunked query across the shard fleet.

        ``query`` provides the source, the (count-based) window and any
        vectorised filters; the aggregation stage comes from
        ``policy_factory``, which is called once per shard.  When the
        query already carries a :class:`PolicyOperator` (so the same
        query object can be handed to either engine), its policy becomes
        the master instance and must be freshly constructed.

        ``checkpoint_sink`` receives an
        :class:`~repro.streaming.checkpoint.EngineCheckpoint` of the
        *master* at every period boundary — the moment the shard
        accumulators have just merged and reset, so the master state is
        the complete state of the run.  ``resume`` restores the master
        from such a checkpoint (fresh shard accumulators) and continues
        with the remaining stream; because shard state is always empty at
        boundaries, a sharded checkpoint and a single-engine checkpoint
        of the same logical stream are interchangeable.
        """
        if query.window_spec is None:
            raise ValueError("query has no window(); call .window(size, period)")
        if not isinstance(query.window_spec, CountWindow):
            raise ValueError(
                "sharded execution supports count-based windows only "
                f"(got {type(query.window_spec).__name__})"
            )
        if query.predicates or query.projectors:
            raise ValueError(
                "query has event-level where()/select() stages; sharded "
                "execution is chunked — use where_values()/select_values()"
            )
        from repro.sketches.base import PolicyOperator

        if query.operator is not None and not isinstance(
            query.operator, PolicyOperator
        ):
            raise ValueError(
                "sharded execution aggregates QuantilePolicy state; wrap the "
                "policy in PolicyOperator or leave the aggregate stage unset"
            )
        if query.operator is not None:
            master = query.operator.policy
            # A policy that already ran holds sealed sub-windows (or an
            # in-flight map); adopting it would silently double-count that
            # state into every emitted window.
            baseline = policy_factory()
            # The master answers queries while the shards come from the
            # factory: a mismatched factory would silently change the
            # algorithm (or fail deep inside a merge), so require the two
            # to agree up front.
            master._require_compatible(baseline)
            for attr in ("config", "epsilon", "k", "method"):
                if getattr(master, attr, None) != getattr(baseline, attr, None):
                    raise ValueError(
                        "the query's operator policy and the policy factory "
                        f"disagree on {attr!r}; sharded execution needs one "
                        "configuration for the master and every shard"
                    )
            if (
                master.space_variables() != baseline.space_variables()
                or master.peak_space_variables() != baseline.peak_space_variables()
            ):
                raise ValueError(
                    "the query's PolicyOperator carries prior state; pass a "
                    "freshly constructed policy (or reset() it) for sharded "
                    "execution"
                )
        else:
            master = policy_factory()
        initial = (0, 0, 0)
        if resume is not None:
            checkpoint = coerce_checkpoint(resume)
            require_window_match(checkpoint, query.window_spec)
            master = restore_policy(checkpoint.policy_state, master)
            initial = (checkpoint.sealed, checkpoint.seen, checkpoint.index)
        if self.parallel:
            return self._run_parallel(
                query, query.window_spec, master, policy_factory,
                initial=initial, sink=checkpoint_sink,
            )
        return self._run_serial(
            query, query.window_spec, master, policy_factory,
            initial=initial, sink=checkpoint_sink,
        )

    def run_chunked_to_list(
        self, query: Query, policy_factory: PolicyFactory
    ) -> List[WindowResult]:
        """Eagerly evaluate and collect all results."""
        return list(self.run_chunked(query, policy_factory))

    def space_report(self) -> dict:
        """Shard-count and space accounting for the current/last run.

        On the serial backend ``shard_spaces`` reflects the live shard
        accumulators; on the parallel backend it is a snapshot of the
        worker-built states returned at the most recent period boundary
        (the pool's in-flight partitions live in worker processes).
        """
        master_space = (
            self._master.space_variables() if self._master is not None else 0
        )
        shard_spaces = [shard.space_variables() for shard in self._shards]
        return {
            "n_shards": self.n_shards,
            "partitioner": self.partitioner,
            "master_space": master_space,
            "shard_spaces": shard_spaces,
            "total_space": master_space + sum(shard_spaces),
        }

    def capture_state(self) -> dict:
        """Per-shard state capture of the current/last run, JSON-safe.

        Mid-period the run's state is split across the master (sealed
        sub-windows) and the shard accumulators (in-flight partitions);
        this snapshot captures both, so a shard can be migrated to
        another node (restore its entry with
        :func:`~repro.sketches.registry.policy_from_state` and merge it
        into the new node's master) without waiting for the boundary.  On
        the parallel backend the shard list reflects the states returned
        at the most recent boundary (in-flight partitions live in worker
        processes).
        """
        return {
            "n_shards": self.n_shards,
            "partitioner": self.partitioner,
            "master": None if self._master is None else self._master.to_state(),
            "shards": [shard.to_state() for shard in self._shards],
        }

    # ------------------------------------------------------------------
    # Serial backend
    # ------------------------------------------------------------------
    def _run_serial(
        self,
        query: Query,
        spec: CountWindow,
        master: QuantilePolicy,
        policy_factory: PolicyFactory,
        initial: tuple = (0, 0, 0),
        sink: Optional[Callable[[EngineCheckpoint], None]] = None,
    ) -> Iterator[WindowResult]:
        period = spec.period
        n_sub = spec.subwindow_count
        self._master = master
        self._shards = shards = [policy_factory() for _ in range(self.n_shards)]
        splitter = StreamPartitioner(self.n_shards, self.partitioner)
        in_flight = 0
        sealed, seen, index = initial
        for chunk in filtered_chunks(query):
            position = 0
            remaining = len(chunk)
            while remaining:
                take = min(period - in_flight, remaining)
                parts = splitter.split(chunk.slice(position, position + take))
                for shard, part in zip(shards, parts):
                    if len(part):
                        shard.accumulate_batch(part.values)
                position += take
                remaining -= take
                in_flight += take
                seen += take
                if in_flight < period:
                    continue
                for shard in shards:
                    master.merge(shard)
                    shard.reset()
                in_flight = 0
                sealed, index = yield from self._boundary(
                    master, spec, sealed, seen, index, sink
                )

    # ------------------------------------------------------------------
    # Parallel (multiprocessing) backend
    # ------------------------------------------------------------------
    def _run_parallel(
        self,
        query: Query,
        spec: CountWindow,
        master: QuantilePolicy,
        policy_factory: PolicyFactory,
        initial: tuple = (0, 0, 0),
        sink: Optional[Callable[[EngineCheckpoint], None]] = None,
    ) -> Iterator[WindowResult]:
        period = spec.period
        self._master = master
        self._shards = []
        splitter = StreamPartitioner(self.n_shards, self.partitioner)
        pending: List[List[np.ndarray]] = [[] for _ in range(self.n_shards)]
        in_flight = 0
        sealed, seen, index = initial
        pool = multiprocessing.Pool(processes=self.processes)
        try:
            for chunk in filtered_chunks(query):
                position = 0
                remaining = len(chunk)
                while remaining:
                    take = min(period - in_flight, remaining)
                    parts = splitter.split(chunk.slice(position, position + take))
                    for bucket, part in zip(pending, parts):
                        if len(part):
                            bucket.append(part.values)
                    position += take
                    remaining -= take
                    in_flight += take
                    seen += take
                    if in_flight < period:
                        continue
                    # Empty buckets (hash skew) skip the pickle round-trip;
                    # merging nothing is a no-op, so results are unchanged.
                    tasks = [(policy_factory, bucket) for bucket in pending if bucket]
                    shards = pool.map(_ingest_partition, tasks)
                    # Snapshot for space_report(); the merged master shares
                    # these states, the donors are then discarded.
                    self._shards = shards
                    for shard in shards:
                        master.merge(shard)
                    pending = [[] for _ in range(self.n_shards)]
                    in_flight = 0
                    sealed, index = yield from self._boundary(
                        master, spec, sealed, seen, index, sink
                    )
        finally:
            pool.terminate()
            pool.join()

    # ------------------------------------------------------------------
    # Shared boundary handling (seal / expire / emit)
    # ------------------------------------------------------------------
    def _boundary(
        self,
        master: QuantilePolicy,
        spec: CountWindow,
        sealed: int,
        seen: int,
        index: int,
        sink: Optional[Callable[[EngineCheckpoint], None]] = None,
    ) -> Iterator[WindowResult]:
        """Seal the merged sub-window on the master; emit when a window is full.

        Mirrors ``StreamEngine._run_count_subwindow_chunked`` exactly so a
        one-shard run is indistinguishable from the single-engine path.
        The checkpoint sink fires here because the shard accumulators have
        just merged and reset: the master alone holds the run's state.
        """
        n_sub = spec.subwindow_count
        master.seal_subwindow()
        sealed += 1
        if sealed > n_sub:
            master.expire_subwindow()
            sealed -= 1
        if sealed == n_sub or self._emit_partial:
            yield WindowResult(
                index=index,
                window_count=sealed * spec.period,
                end=float(seen),
                result=master.query(),
            )
            index += 1
        if sink is not None:
            sink(
                EngineCheckpoint(
                    window=spec,
                    sealed=sealed,
                    seen=seen,
                    index=index,
                    policy_state=master.to_state(),
                )
            )
        return sealed, index


def run_sharded(
    values: "np.ndarray",
    window: CountWindow,
    policy_factory: PolicyFactory,
    n_shards: int,
    partitioner: str = "round_robin",
    chunk_size: int = 65_536,
    parallel: bool = False,
    emit_partial: bool = False,
) -> List[WindowResult]:
    """Deprecated one-shot wrapper for sharded execution over a value array.

    Use :meth:`StreamEngine.execute
    <repro.streaming.engine.StreamEngine.execute>` with
    ``ExecutionPlan(mode="sharded", n_shards=..., policy_factory=...)``
    (results are bit-identical).
    """
    from repro.streaming.engine import StreamEngine, _deprecated_shim
    from repro.streaming.plan import ExecutionPlan

    _deprecated_shim(
        "run_sharded", "mode='sharded', n_shards=..., policy_factory=..."
    )
    query = Query(np.asarray(values, dtype=np.float64)).windowed_by(window)
    plan = ExecutionPlan(
        mode="sharded",
        n_shards=n_shards,
        partitioner=partitioner,
        parallel=parallel,
        chunk_size=chunk_size,
        policy_factory=policy_factory,
    )
    return StreamEngine(emit_partial=emit_partial).execute_to_list(query, plan)
