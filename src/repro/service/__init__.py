"""The operator-facing service layer: one front door for monitoring.

Everything below this package — query builder, engines, policies,
sketches — is the machinery; this layer is the monitoring *product* the
paper pitches:

- :class:`~repro.service.spec.MetricSpec` — declarative description of
  one monitored metric (quantiles, window, policy by registry name),
  JSON round-trippable via ``from_dict``/``to_dict``.
- :class:`~repro.service.monitor.Monitor` — a multi-metric session:
  ``register(spec)``, ``observe``/``observe_batch``, ``snapshot()``,
  per-period callbacks, and ``merge(other)`` so monitors shard and
  combine like the sketches they host.
- :class:`~repro.service.server.TelemetryServer` /
  :class:`~repro.service.client.TelemetryClient` — the network front
  door: stdlib-only serving of a monitor with bounded-queue
  backpressure, seq-ordered multi-connection ingest and periodic
  checkpoints.  Connections speak newline-delimited JSON by default and
  can negotiate the length-prefixed binary framing of
  :mod:`repro.service.binary` — raw float64 observe payloads and
  opaque serialized-state frames (see ``docs/serving.md``).
- :class:`~repro.service.client.LoadGenerator` — deterministic seeded
  multi-connection load for the server (the ``python -m repro loadgen``
  CLI).

A spec with ``labels=[...]`` registers a *labeled* metric — a
high-cardinality family of per-labelset series with group-by quantile
queries; the machinery lives in :mod:`repro.series` (see
``docs/labels.md``).

Scaling work (sharding, batching, future async ingest and multi-backend
storage) plugs in underneath via
:class:`~repro.streaming.plan.ExecutionPlan` without touching this
surface.
"""

from repro._exports import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.service.client": ("LoadGenerator", "ServerError", "TelemetryClient", "wait_for_server"),
    "repro.service.monitor": ("MetricChannel", "Monitor"),
    "repro.service.server": ("IngestQueue", "TelemetryServer"),
    "repro.service.spec": ("MetricSpec", "load_specs"),
})
