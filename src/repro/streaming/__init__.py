"""A Trill-like incremental streaming engine (Section 2 of the paper).

The paper implements QLOVE inside the Trill streaming analytics engine; the
only properties it relies on are (i) the incremental-evaluation operator
contract ``InitialState / Accumulate / Deaccumulate / ComputeResult`` and
(ii) count- or time-based tumbling and sliding windows evaluated once per
period.  This subpackage provides exactly that contract:

- :mod:`~repro.streaming.event` — timestamped stream elements.
- :mod:`~repro.streaming.windows` — tumbling/sliding window specifications.
- :mod:`~repro.streaming.operator` — the operator ABCs (per-element and
  sub-window-granular).
- :mod:`~repro.streaming.aggregates` — reference operators (count, sum,
  mean, min/max, variance) including the paper's running-average example.
- :mod:`~repro.streaming.query` — LINQ-like query builder
  (``window().where().select().aggregate()``).
- :mod:`~repro.streaming.engine` — the execution loops and the unified
  ``StreamEngine.execute`` entry point.
- :mod:`~repro.streaming.result` — :class:`WindowResult`, the record one
  evaluation emits (a leaf module, so the service layer can build
  results without loading the engine).
- :mod:`~repro.streaming.plan` — :class:`ExecutionPlan`, the declarative
  choice of execution path (auto / events / batched / sharded).
- :mod:`~repro.streaming.checkpoint` — :class:`EngineCheckpoint`,
  period-boundary freeze/resume of a run (bit-identical restarts).
- :mod:`~repro.streaming.sources` — adapters turning arrays/iterables into
  event streams.
- :mod:`~repro.streaming.partition` — deterministic chunk-stream
  partitioners (round-robin, value hash).
- :mod:`~repro.streaming.sharded` — the sharded execution subsystem:
  partition across N per-shard policies, merge at period boundaries.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.streaming.aggregates": (
        "CountOperator",
        "MaxOperator",
        "MeanOperator",
        "MinOperator",
        "SumOperator",
        "VarianceOperator",
    ),
    "repro.streaming.checkpoint": ("EngineCheckpoint",),
    "repro.streaming.engine": (
        "StreamEngine",
        "run_query",
        "run_query_batched",
        "run_query_chunked",
    ),
    "repro.streaming.event": ("Event",),
    "repro.streaming.operator": ("IncrementalOperator", "SubWindowOperator"),
    "repro.streaming.partition": ("StreamPartitioner", "available_partitioners"),
    "repro.streaming.plan": ("ExecutionPlan",),
    "repro.streaming.query": ("Query",),
    "repro.streaming.result": ("WindowResult",),
    "repro.streaming.sharded": ("ShardedEngine", "run_sharded"),
    "repro.streaming.sources": (
        "Chunk",
        "as_chunk",
        "chunk_stream",
        "events_from_values",
        "events_of_chunks",
        "merge_sources",
        "value_stream",
    ),
    "repro.streaming.windows": ("CountWindow", "TimeWindow"),
})
