"""The four served workloads and the deterministic stream each replays.

Every workload replays one pool of :data:`POOL_VALUES` netmon RTTs
generated from the run's seed.  The stream is cut into *blocks*: block
``b`` is the pool slice starting at ``b * block_values`` modulo the pool
length (the pool length is a multiple of every block size, so a block
never wraps).  Plain workloads send each block as one observe frame; the
labeled workload splits a block into 64 strided frames routed to
series.  The served run and the offline replay both take their frames
from :meth:`Workload.frames`, so they see identical values in identical
per-route order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.series.labels import series_slice
from repro.service import MetricSpec, Monitor
from repro.workloads.registry import get_dataset

PHIS = (0.5, 0.9, 0.99, 0.999)
POOL_VALUES = 1 << 22
DATASET = "netmon"
METRIC = "lat"

#: Labeled layout: each 16384-value block is 64 strided frames of 256
#: values.  Frames 0..59 go to the stable series (4 regions x 15 hosts).
#: Frame 60 + r goes to region r's churn host, which lives for
#: CHURN_BLOCKS blocks and is then replaced by a host never seen before:
#: four series are created every CHURN_BLOCKS blocks and, once the index
#: holds ``max_active``, the four retired longest ago are evicted.
REGIONS = ("r0", "r1", "r2", "r3")
HOSTS_PER_REGION = 15
LABELED_FRAMES = 64
STABLE_SERIES = len(REGIONS) * HOSTS_PER_REGION
CHURN_BLOCKS = 8

#: One observe frame: labels (None for a plain metric), seq, values.
Frame = Tuple[Optional[Dict[str, str]], int, np.ndarray]


@dataclass(frozen=True)
class Workload:
    """One traffic mix: metric spec, wire, frame shape, rates and query.

    Why each workload exists is recorded with its name in BENCHMARK.json.
    """

    name: str
    protocol: str
    block_values: int
    window: int
    period: int
    #: Open-loop ingest rate of the rate phase, events/s.
    rate: float
    #: The query op the rate phase sends: snapshot, history or group_by.
    query: str
    #: Open-loop query rate of the rate phase, queries/s.
    query_rate: float
    #: Events the closed-loop max phase sends in a 10-second run: about
    #: 3.5 s of the seed's median throughput on a 2-vCPU VM.  A fixed
    #: count keeps the served stream, and so every answer, a function of
    #: the seed alone.
    max_events: int
    history: bool = False
    checkpoint_interval: Optional[float] = None
    labeled: bool = False
    max_active: Optional[int] = None

    def spec(self) -> MetricSpec:
        fields: dict = {
            "name": METRIC,
            "quantiles": list(PHIS),
            "window": {"size": self.window, "period": self.period},
            "policy": "qlove",
        }
        if self.labeled:
            fields["labels"] = ["region", "host"]
            fields["series"] = {"shards": 8, "max_active": self.max_active}
        return MetricSpec.from_dict(fields)

    def build_monitor(self) -> Monitor:
        monitor = Monitor()
        monitor.register(self.spec())
        return monitor

    def block(self, pool: np.ndarray, index: int) -> np.ndarray:
        start = (index * self.block_values) % len(pool)
        return pool[start : start + self.block_values]

    def frames(self, pool: np.ndarray, index: int) -> List[Frame]:
        """The observe frames of block ``index``, in send order."""
        block = self.block(pool, index)
        if not self.labeled:
            return [(None, index, block)]
        offset = index * self.block_values
        frames: List[Frame] = []
        for j in range(STABLE_SERIES):
            labels = {"region": REGIONS[j // HOSTS_PER_REGION], "host": f"h{j % HOSTS_PER_REGION:02d}"}
            frames.append((labels, index, series_slice(block, offset, LABELED_FRAMES, j)))
        generation, seq = divmod(index, CHURN_BLOCKS)
        for region, j in enumerate(range(STABLE_SERIES, LABELED_FRAMES)):
            labels = {"region": REGIONS[region], "host": f"c{generation}"}
            frames.append((labels, seq, series_slice(block, offset, LABELED_FRAMES, j)))
        return frames

    def sealed_groups(self, pool: np.ndarray, blocks: int) -> Dict[str, np.ndarray]:
        """Per region: every value a ``group_by(region)`` answer covers
        after ``blocks`` blocks -- each member's sealed sub-windows still
        in view (QLOVE answers from sealed sub-windows only)."""
        stream = stream_window(pool, 0, blocks * self.block_values)
        in_view = self.window // self.period

        def sealed(frame: int, first: int, last: int) -> np.ndarray:
            values = stream[first * self.block_values : last * self.block_values][frame::LABELED_FRAMES]
            periods = len(values) // self.period
            return values[max(0, periods - in_view) * self.period : periods * self.period]

        groups: Dict[str, List[np.ndarray]] = {region: [] for region in REGIONS}
        for j in range(STABLE_SERIES):
            groups[REGIONS[j // HOSTS_PER_REGION]].append(sealed(j, 0, blocks))
        for region, j in enumerate(range(STABLE_SERIES, LABELED_FRAMES)):
            for first in range(0, blocks, CHURN_BLOCKS):
                groups[REGIONS[region]].append(sealed(j, first, min(first + CHURN_BLOCKS, blocks)))
        return {region: np.concatenate(parts) for region, parts in groups.items()}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="bulk-binary",
            protocol="binary",
            block_values=16384,
            window=131072,
            period=16384,
            rate=8_000_000.0,
            query="snapshot",
            query_rate=20.0,
            max_events=70_000_000,
        ),
        Workload(
            name="small-frames-json",
            protocol="json",
            block_values=64,
            window=131072,
            period=16384,
            rate=150_000.0,
            query="snapshot",
            query_rate=20.0,
            max_events=1_300_000,
        ),
        Workload(
            name="history-checkpoint",
            protocol="binary",
            block_values=2048,
            window=65536,
            period=1024,
            rate=500_000.0,
            query="history",
            query_rate=20.0,
            max_events=3_800_000,
            history=True,
            checkpoint_interval=2.0,
        ),
        Workload(
            name="labeled-churn",
            protocol="binary",
            block_values=16384,
            window=16384,
            period=1024,
            rate=250_000.0,
            query="group_by",
            query_rate=16.0,
            max_events=3_200_000,
            labeled=True,
            # 60 stable + 4 live churn hosts + 4 retired ones still active,
            # so eviction always picks hosts retired 8+ blocks ago.
            max_active=68,
        ),
    )
}


def make_pool(seed: int) -> np.ndarray:
    """The seeded value pool every workload replays cyclically."""
    return get_dataset(DATASET, POOL_VALUES, seed=seed)


def stream_window(pool: np.ndarray, start: int, stop: int) -> np.ndarray:
    """Stream positions ``[start, stop)`` of the cyclic pool replay."""
    positions = np.arange(start, stop, dtype=np.int64) % len(pool)
    return pool[positions]


def replay(
    workload: Workload,
    pool: np.ndarray,
    blocks: int,
    history_dir: Optional[str] = None,
) -> Tuple[Monitor, float]:
    """Feed the first ``blocks`` blocks to an in-process Monitor.

    Returns the monitor and the replay's wall time in seconds: the
    single-threaded baseline for the same job the server did (history
    writes included, periodic checkpoints not).
    """
    from repro.store.writer import HistoryWriter

    monitor = workload.build_monitor()
    writer = None
    if history_dir is not None:
        writer = HistoryWriter(history_dir)
        writer.attach(monitor)
    started = time.perf_counter()
    for index in range(blocks):
        for labels, _seq, values in workload.frames(pool, index):
            monitor.observe_batch(METRIC, values, labels=labels)
    elapsed = time.perf_counter() - started
    if writer is not None:
        writer.close()
    return monitor, elapsed
