"""Shuffle execution: the only way data crosses "the network".

A shuffle takes the keyed output of every map-side partition, buckets each
record by a :class:`~repro.engine.partitioner.Partitioner`, and hands each
reduce-side partition the merged contents of its bucket.  Two regimes
mirror Spark:

* **With an aggregator and map-side combining** (``reduceByKey``,
  ``combineByKey``, ``foldByKey``, ``aggregateByKey``): values are combined
  into per-key combiners *before* they are counted against the network, so
  a sum over a billion records shuffles one combiner per key per map
  partition.  This is the mechanism behind the paper's insistence on
  translating group-bys to ``reduceByKey`` (Sections 4 and 5.3).

* **Without map-side combining** (``groupByKey``, ``cogroup``): every
  record crosses the network individually.  The ablation benchmark E5
  measures exactly this difference.

Shuffled bytes are *measured* from the actual records via
:mod:`repro.engine.serialization`, not assumed — but through the
:class:`~repro.engine.serialization.RecordSizeAccountant` fast path, so
pricing a homogeneous tile stream costs a memo lookup per record rather
than a recursive walk, and the accounting is batched per map partition.

Map tasks (drain + combine + bucket + account one map partition) and
reduce tasks (merge one bucket) are independent.  One :class:`Shuffle`
object runs both for every shuffle the engine executes; the staged
:meth:`ShuffleManager.shuffle` fans its tasks out on the engine's shared
:class:`~repro.engine.scheduler.TaskRunner` behind two stage barriers,
and the task-graph compiler (:mod:`repro.engine.taskgraph`) schedules
the same tasks one by one.  Map buckets concatenate in ascending map
slot order, so the output — and every recorded counter — is identical
whichever way, and in whatever order, the tasks ran.
"""

from __future__ import annotations

import pickle
import threading
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

import numpy as np

from .metrics import MetricsRegistry
from .partitioner import Partitioner
from .scheduler import SerialTaskRunner, TaskRunner
from .serialization import RecordSizeAccountant


@dataclass(frozen=True)
class MapOutputStatistics:
    """Per-reduce-partition histogram of one shuffle's map output.

    Collected unconditionally during the map phase of every shuffle: each
    map task prices its buckets separately through the same
    :class:`RecordSizeAccountant` that priced the whole partition before,
    so ``sum(bytes_per_partition)`` is integer-identical to the recorded
    ``shuffle_bytes`` contribution and collecting the histogram never
    perturbs a counter.  The adaptive layer reads these numbers to decide
    coalescing, skew splitting, and join-strategy downgrades.
    """

    bytes_per_partition: tuple[int, ...]
    records_per_partition: tuple[int, ...]

    @property
    def num_partitions(self) -> int:
        return len(self.bytes_per_partition)

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_per_partition)

    @property
    def total_records(self) -> int:
        return sum(self.records_per_partition)

    def merged_with(self, other: "MapOutputStatistics") -> "MapOutputStatistics":
        """Elementwise sum with another shuffle's histogram (cogroups)."""
        return MapOutputStatistics(
            tuple(a + b for a, b in zip(self.bytes_per_partition,
                                        other.bytes_per_partition)),
            tuple(a + b for a, b in zip(self.records_per_partition,
                                        other.records_per_partition)),
        )

    def summary(self) -> str:
        nonzero = [b for b in self.bytes_per_partition if b]
        top = max(self.bytes_per_partition) if self.bytes_per_partition else 0
        return (
            f"{self.num_partitions} partitions, {self.total_bytes} bytes "
            f"({len(nonzero)} non-empty, largest {top})"
        )


class ShuffleResult(list):
    """The in-memory partitions of one wide output, list-compatible.

    Behaves exactly like a ``list[list[record]]``; the map-output
    histogram rides along as :attr:`stats` so callers that want it (the
    adaptive layer) can read it without a signature change anywhere
    else.  Shares its interface with
    :class:`~repro.engine.block_manager.ManagedOutput`, the spill tier's
    container.
    """

    stats: Optional[MapOutputStatistics] = None

    def prefetch(self) -> None:
        """Nothing to restore: every partition is resident."""

    def release(self) -> None:
        """Nothing held outside this list."""


@dataclass
class Aggregator:
    """Spark-style map/reduce-side combining functions.

    ``create_combiner`` turns the first value for a key into a combiner,
    ``merge_value`` folds another value into an existing combiner, and
    ``merge_combiners`` merges two combiners on the reduce side.
    """

    create_combiner: Callable[[Any], Any]
    merge_value: Callable[[Any, Any], Any]
    merge_combiners: Callable[[Any, Any], Any]
    map_side_combine: bool = True


def _combine_map_side(
    records: Iterator[tuple[Any, Any]], aggregator: Aggregator
) -> list[tuple[Any, Any]]:
    """Fold values into one combiner per key within a map partition."""
    combiners: dict[Any, Any] = {}
    for key, value in records:
        if key in combiners:
            combiners[key] = aggregator.merge_value(combiners[key], value)
        else:
            combiners[key] = aggregator.create_combiner(value)
    return list(combiners.items())


def _merge_reduce_side(
    bucket: list[tuple[Any, Any]], aggregator: Aggregator
) -> list[tuple[Any, Any]]:
    """Merge the (pre-combined or raw) records of one reduce bucket."""
    merged: dict[Any, Any] = {}
    if aggregator.map_side_combine:
        for key, combiner in bucket:
            if key in merged:
                merged[key] = aggregator.merge_combiners(merged[key], combiner)
            else:
                merged[key] = combiner
    else:
        for key, value in bucket:
            if key in merged:
                merged[key] = aggregator.merge_value(merged[key], value)
            else:
                merged[key] = aggregator.create_combiner(value)
    return list(merged.items())


#: Below this many records the numpy batch setup costs more than the
#: per-record ``partition`` calls it saves.
_BATCH_SCATTER_MIN = 32


def _scatter_records(
    records: list[tuple[Any, Any]],
    partitioner: Partitioner,
    num_reducers: int,
) -> list[list]:
    """Bucket ``records`` by reducer, vectorizing when the keys allow.

    The batch path hashes every key in one numpy pass
    (:meth:`Partitioner.partition_batch`), then scatters with a *stable*
    argsort — each bucket keeps its records in original partition order,
    so the result is list-identical (hence byte- and counter-identical)
    to the per-record loop it replaces.
    """
    local_buckets: list[list] = [[] for _ in range(num_reducers)]
    bucket_ids = None
    if (
        num_reducers > 1
        and len(records) >= _BATCH_SCATTER_MIN
        and partitioner.num_partitions == num_reducers
    ):
        bucket_ids = partitioner.partition_batch(
            [record[0] for record in records]
        )
    if bucket_ids is None:
        partition = partitioner.partition
        for record in records:
            local_buckets[partition(record[0])].append(record)
        return local_buckets
    order = np.argsort(bucket_ids, kind="stable")
    starts = np.searchsorted(bucket_ids[order], np.arange(num_reducers + 1))
    for reducer in range(num_reducers):
        lo, hi = int(starts[reducer]), int(starts[reducer + 1])
        if lo != hi:
            local_buckets[reducer] = [records[i] for i in order[lo:hi]]
    return local_buckets


def _map_partition(
    partition_iter: Iterator[tuple[Any, Any]],
    partitioner: Partitioner,
    aggregator: Optional[Aggregator],
    accountant: RecordSizeAccountant,
    num_reducers: int,
) -> tuple[list[list], list[int], int]:
    """The map-side work for one partition: drain, combine, bucket, price.

    Pricing each bucket separately sums the same memoized per-record
    sizes as a single ``batch_size(records)`` call — the per-reducer
    histogram is free.
    """
    if aggregator is not None and aggregator.map_side_combine:
        records = _combine_map_side(partition_iter, aggregator)
    else:
        records = list(partition_iter)
    local_buckets = _scatter_records(records, partitioner, num_reducers)
    bucket_bytes = [
        accountant.batch_size(bucket) if bucket else 0
        for bucket in local_buckets
    ]
    return local_buckets, bucket_bytes, len(records)


def new_output(blocks: Any, owner: str, num_partitions: int) -> Any:
    """An empty container for one wide node's output partitions.

    The one place that decides where wide data lives: without a spill
    tier, a plain list filled in place; with one, a
    :class:`~repro.engine.block_manager.ManagedOutput` whose assignment
    adopts each partition under the memory budget (spillable at once).
    Both index like the list they stand for and carry ``stats``,
    ``prefetch()`` and ``release()``.  A :class:`Shuffle` keeps its map
    buckets in the same tier as its output.
    """
    if blocks is not None and blocks.spill_enabled:
        return blocks.managed_output(owner, num_partitions)
    return ShuffleResult([None] * num_partitions)


class _BucketSpiller:
    """Map-output buckets written straight to the spill store.

    With a spill tier the map phase never accumulates its buckets in
    memory: each map slot's non-empty buckets are serialized to the
    object store as soon as the slot lands.  A reducer's bucket is read
    back in ascending slot order — the in-memory concatenation order, so
    reduce inputs are byte-identical — consuming each object.  Spilled
    and restored bytes use the accountant's bucket sizes so the counters
    pair up exactly.
    """

    def __init__(self, store: Any, metrics: MetricsRegistry, label: str):
        self._store = store
        self._metrics = metrics
        self._label = label
        #: reducer -> {slot: accounted bucket bytes}.
        self._written: dict[int, dict[tuple, int]] = {}
        self._lock = threading.Lock()

    def _key(self, slot: tuple, reducer: int) -> str:
        return f"shufmap/{self._label}/{slot[0]}.{slot[1]}/{reducer}"

    def write(self, slot: tuple, local_buckets: list[list],
              bucket_bytes: list[int]) -> None:
        """Persist one map slot's non-empty buckets (idempotent)."""
        for reducer, bucket in enumerate(local_buckets):
            if not bucket:
                continue
            data = pickle.dumps(bucket, protocol=pickle.HIGHEST_PROTOCOL)
            self._store.put(self._key(slot, reducer), data)
            with self._lock:
                self._written.setdefault(reducer, {})[slot] = bucket_bytes[reducer]
            self._metrics.record_spill(bucket_bytes[reducer])

    def read_bucket(self, reducer: int) -> list:
        """One reducer's concatenated bucket, consumed from the store.

        Objects are only deleted after the whole bucket assembled, so a
        task retried partway through a read still finds every object.
        """
        with self._lock:
            sizes = dict(self._written.get(reducer, {}))
        slots = sorted(sizes)
        bucket: list = []
        for slot in slots:
            bucket.extend(pickle.loads(self._store.get(self._key(slot, reducer))))
        with self._lock:
            self._written.pop(reducer, None)
        for slot in slots:
            self._store.delete(self._key(slot, reducer))
            self._metrics.record_spill_restore(sizes[slot])
        return bucket


class Shuffle:
    """One shuffle: its map slots, buckets, statistics and reduce outputs.

    The only code that runs map and reduce work; the staged
    :meth:`ShuffleManager.shuffle` drives it behind two stage barriers
    and the task-graph compiler drives it task by task.  Map *slots* —
    ``(partition, chunk)`` keys, so a skew-split partition's chunks slot
    in where the original partition would — land independently and in
    any order via :meth:`run_map_slot`.  Once every slot has landed,
    :meth:`finish_map_phase` records the map stage and shuffle volume
    from the slots in ascending order, so counters and bucket contents
    never depend on completion order.

    Map buckets stay in memory without a spill tier and go through
    :class:`_BucketSpiller` with one; output partitions land in
    :attr:`output` (see :func:`new_output`).  Slot buckets are released
    as soon as the reduce phase (or, without an aggregator, the output)
    has consumed them.
    """

    def __init__(
        self,
        metrics: MetricsRegistry,
        runner: TaskRunner,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator],
        label: str,
        blocks: Any = None,
    ):
        self._metrics = metrics
        self._runner = runner
        self.partitioner = partitioner
        self.aggregator = aggregator
        self.num_reducers = partitioner.num_partitions
        self._map_label = f"map:{label}"
        self._reduce_label = f"reduce:{label}"
        self._accountant = RecordSizeAccountant()
        #: slot -> (buckets, bucket bytes, bucket record counts,
        #: records, own-seconds); buckets are ``None`` once spilled,
        #: counts ``None`` while they are in memory.
        self._slots: dict[tuple, tuple] = {}
        self._slots_lock = threading.Lock()
        self._buckets: Optional[list[Optional[list]]] = None
        self.stats: Optional[MapOutputStatistics] = None
        self.output = new_output(blocks, f"out/{label}", self.num_reducers)
        # Map buckets live in the tier the output lives in.
        self._spiller = (
            None if isinstance(self.output, ShuffleResult)
            else _BucketSpiller(blocks.spill_store, metrics, label)
        )

    def run_map_slot(
        self,
        slot: tuple,
        partition_iter: Iterator[tuple[Any, Any]],
        partition: int,
    ) -> None:
        """Execute the map work of one slot.

        Idempotent: a retried slot overwrites its own entry.  ``partition``
        feeds the fault point, so an injection targeting partition *p*
        hits every chunk of *p*.
        """
        with self._metrics.task_timer() as timer:
            self._runner.fault_point(self._map_label, partition)
            local_buckets, bucket_bytes, num_records = _map_partition(
                partition_iter, self.partitioner, self.aggregator,
                self._accountant, self.num_reducers,
            )
        counts = None
        if self._spiller is not None:
            # Spill I/O stays outside the timer so measured compute
            # matches the in-memory path.
            counts = [len(bucket) for bucket in local_buckets]
            self._spiller.write(slot, local_buckets, bucket_bytes)
            local_buckets = None
        with self._slots_lock:
            self._slots[slot] = (
                local_buckets, bucket_bytes, counts, num_records,
                timer.own_seconds,
            )

    def finish_map_phase(self) -> MapOutputStatistics:
        """Record the map stage and shuffle volume; returns the histogram.

        Without an aggregator the concatenated buckets *are* the output,
        which is complete on return.
        """
        num_reducers = self.num_reducers
        in_memory = self._spiller is None
        buckets: list = [[] for _ in range(num_reducers)] if in_memory else []
        partition_bytes = [0] * num_reducers
        partition_records = [0] * num_reducers
        task_seconds: list[float] = []
        shuffled_records = 0
        shuffled_bytes = 0
        with self._slots_lock:
            slots, self._slots = self._slots, {}
        for slot in sorted(slots):
            local_buckets, bucket_bytes, counts, num_records, seconds = slots[slot]
            for reducer, count in enumerate(counts or map(len, local_buckets)):
                if count:
                    partition_bytes[reducer] += bucket_bytes[reducer]
                    partition_records[reducer] += count
                    if in_memory:
                        buckets[reducer].extend(local_buckets[reducer])
            shuffled_records += num_records
            shuffled_bytes += sum(bucket_bytes)
            task_seconds.append(seconds)
        self.stats = self.output.stats = MapOutputStatistics(
            tuple(partition_bytes), tuple(partition_records)
        )
        self._metrics.record_stage(len(task_seconds), task_seconds)
        self._metrics.record_shuffle(shuffled_records, shuffled_bytes)
        self._buckets = buckets
        if self.aggregator is None:
            for reducer in range(num_reducers):
                self.output[reducer] = self._reduce_input(reducer)
            self._finish()
        return self.stats

    def _reduce_input(self, reducer: int) -> list:
        """One reducer's concatenated bucket, released once taken."""
        if self._spiller is not None:
            return self._spiller.read_bucket(reducer)
        bucket, self._buckets[reducer] = self._buckets[reducer], None
        return bucket

    def reduce_groups(self, adaptive: Any) -> list[list[int]]:
        """Reducer ids per reduce task: singletons unless the adaptive
        layer coalesces contiguous small buckets (each bucket is still
        merged separately and lands in its own output partition)."""
        groups = None
        if adaptive is not None:
            groups = adaptive.plan_reduce_groups(self.stats)
        if groups is None:
            groups = [[reducer] for reducer in range(self.num_reducers)]
        return groups

    def run_reduce_group(self, bucket_ids: list[int]) -> float:
        """Merge one reduce task's buckets into :attr:`output`; returns
        the task's own-seconds."""
        aggregator = self.aggregator
        with self._metrics.task_timer() as timer:
            self._runner.fault_point(self._reduce_label, bucket_ids[0])
            merged_buckets = [
                (bid, _merge_reduce_side(self._reduce_input(bid), aggregator))
                for bid in bucket_ids
            ]
        for bid, merged in merged_buckets:
            self.output[bid] = merged
        return timer.own_seconds

    def finish_reduce_phase(self, task_seconds: list[float]) -> None:
        """Record the reduce stage; :attr:`output` is complete."""
        self._metrics.record_stage(len(task_seconds), list(task_seconds))
        self._finish()

    def _finish(self) -> None:
        self._buckets = None
        # The next stage reads the output from split 0 up; restore the
        # early (spilled-first) partitions ahead of its tasks.
        self.output.prefetch()


class ShuffleManager:
    """Runs staged shuffles: a :class:`Shuffle` behind stage barriers."""

    def __init__(
        self,
        metrics: MetricsRegistry,
        runner: Optional[TaskRunner] = None,
        adaptive=None,
        blocks=None,
    ):
        self._metrics = metrics
        self._runner = runner or SerialTaskRunner()
        #: Optional :class:`~repro.engine.adaptive.AdaptiveManager`; when
        #: present and enabled it may regroup the reduce phase (partition
        #: coalescing).
        self._adaptive = adaptive
        #: Optional :class:`~repro.engine.block_manager.BlockManager`;
        #: with its spill tier active, shuffles run out-of-core.
        self._blocks = blocks

    def shuffle(
        self,
        map_outputs: Iterable[Iterator[tuple[Any, Any]]],
        partitioner: Partitioner,
        aggregator: Optional[Aggregator] = None,
        stage_label: Optional[str] = None,
    ) -> Any:
        """Run a full shuffle: every map task, a barrier, every reduce task.

        Args:
            map_outputs: one keyed-record iterator per map task.
            partitioner: reduce-side placement of keys.
            aggregator: combining semantics; ``None`` means plain
                re-partitioning (records pass through unmodified, possibly
                with duplicate keys).
            stage_label: identity suffix for fault-injection points
                (``map:<label>`` / ``reduce:<label>``) and spill keys.

        Returns:
            One list of ``(key, value)`` pairs per reduce partition (with
            an aggregator, the fully merged combiner per key), in the
            container :func:`new_output` chose; ``.stats`` holds the
            map-output histogram.
        """
        shuffle = Shuffle(
            self._metrics, self._runner, partitioner, aggregator,
            stage_label or "anon", self._blocks,
        )
        self._runner.run_stage([
            (lambda index=index, it=it:
                shuffle.run_map_slot((index, 0), it, index))
            for index, it in enumerate(map_outputs)
        ])
        shuffle.finish_map_phase()
        if aggregator is not None:
            groups = shuffle.reduce_groups(self._adaptive)
            shuffle.finish_reduce_phase(self._runner.run_stage([
                (lambda group=group: shuffle.run_reduce_group(group))
                for group in groups
            ]))
        return shuffle.output
