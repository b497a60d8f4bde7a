"""Resilient Distributed Datasets: lazy, partitioned, lineage-tracked.

This is the engine's Spark-RDD workalike.  An :class:`RDD` is a lazily
evaluated description of a partitioned dataset; transformations build
lineage and actions (``collect``, ``count``, ...) trigger execution through
the context's scheduler, which times tasks and accounts shuffles.

Narrow transformations (``map``, ``filter``, ``flatMap``, ...) pipeline
within a partition.  Wide transformations (``reduceByKey``, ``groupByKey``,
``join``, ``cogroup``, ``partitionBy``) insert a :class:`ShuffledRDD` or
:class:`CoGroupedRDD` whose first evaluation runs a measured shuffle.

The subset implemented is the one the SAC planner and the MLlib-workalike
baseline generate, plus the conveniences a user of the engine would expect.
"""

from __future__ import annotations

import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, TypeVar

from .partitioner import HashPartitioner, Partitioner
from .block_manager import SpillLostError
from .shuffle import Aggregator, MapOutputStatistics, new_output

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .context import EngineContext

T = TypeVar("T")
U = TypeVar("U")
K = TypeVar("K")
V = TypeVar("V")


class RDD:
    """A lazily evaluated, partitioned dataset.

    Subclasses implement :meth:`compute`; everything else — caching,
    transformations, actions — lives here.
    """

    def __init__(
        self,
        ctx: "EngineContext",
        num_partitions: int,
        partitioner: Optional[Partitioner] = None,
    ):
        if num_partitions <= 0:
            raise ValueError(f"num_partitions must be positive, got {num_partitions}")
        self.ctx = ctx
        self.id = ctx._register_rdd()
        self._num_partitions = num_partitions
        #: Known reduce-side partitioner, when this RDD is the direct
        #: output of a shuffle (lets later shuffles on the same key skip
        #: the network, as in Spark).
        self.partitioner = partitioner
        self._cached = False
        #: Per-lineage opt-in to shuffle-output reuse (set by the
        #: planner's CSE pass via :meth:`mark_shuffle_reuse`); lets the
        #: BlockManager retain/serve this RDD's map outputs even when
        #: the engine-wide ``reuse_shuffles`` flag is off.
        self._reuse_opt_in = False

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------

    @property
    def num_partitions(self) -> int:
        return self._num_partitions

    @property
    def dependencies(self) -> list["RDD"]:
        """Direct parent RDDs in the lineage graph."""
        return []

    def mark_shuffle_reuse(self) -> None:
        """Opt this RDD's whole lineage into shuffle-output reuse.

        A shuffle consuming a marked RDD registers its map outputs with
        the BlockManager and equal later shuffles over the same marked
        parent are served from them — regardless of the engine-wide
        ``reuse_shuffles`` setting.  Only the planner should call this,
        and only for plans whose IR fingerprint proves that re-executing
        reads the very same storages.
        """
        seen: set[int] = set()
        stack: list["RDD"] = [self]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            node._reuse_opt_in = True
            stack.extend(node.dependencies)

    def compute(self, split: int) -> Iterator:
        """Produce the records of partition ``split``."""
        raise NotImplementedError

    def iterator(self, split: int) -> Iterator:
        """Like :meth:`compute` but honouring :meth:`cache`.

        Cached partitions live in the context's
        :class:`~repro.engine.block_manager.BlockManager`; a partition
        evicted under memory pressure is transparently recomputed.
        """
        if not self._cached:
            return self.compute(split)
        blocks = self.ctx.block_manager
        stored = blocks.get(self.id, split)
        if stored is None:
            stored = list(self.compute(split))
            blocks.put(self.id, split, stored)
        return iter(stored)

    def prepare_execution(self, seen: set[int]) -> None:
        """Materialize wide dependencies bottom-up (driver side).

        Called by the scheduler before fanning a job's result tasks onto
        a parallel runner, so each shuffle runs its map tasks from the
        driver thread — where they fan out — instead of inside whichever
        result task happens to pull first.  Fully cached RDDs stop the
        walk: their partitions replay from the block manager without
        touching parents (exactly what lazy evaluation would do).
        """
        if id(self) in seen:
            return
        seen.add(id(self))
        if self._cached and self.ctx.block_manager.contains_all(
            self.id, self._num_partitions
        ):
            return
        for dep in self.dependencies:
            dep.prepare_execution(seen)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    def cache(self) -> "RDD":
        """Materialize partitions on first use and reuse them afterwards."""
        self._cached = True
        return self

    persist = cache

    def unpersist(self) -> "RDD":
        """Drop cached partitions."""
        self._cached = False
        self.ctx.block_manager.remove_rdd(self.id)
        return self

    # ------------------------------------------------------------------
    # Narrow transformations
    # ------------------------------------------------------------------

    def map_partitions(
        self,
        func: Callable[[Iterator], Iterator],
        preserves_partitioning: bool = False,
        elementwise: bool = False,
    ) -> "RDD":
        """Apply ``func`` to each whole partition iterator.

        Pass ``elementwise=True`` only when ``func`` maps each record
        independently of its neighbours and the split index (e.g. a
        fused per-record kernel); it licenses the skew splitter to
        replay the function over partition slices.
        """
        return MapPartitionsRDD(
            self, lambda _idx, it: func(it), preserves_partitioning,
            elementwise=elementwise,
        )

    def map_partitions_with_index(
        self,
        func: Callable[[int, Iterator], Iterator],
        preserves_partitioning: bool = False,
    ) -> "RDD":
        """Like :meth:`map_partitions` but ``func`` also receives the index."""
        return MapPartitionsRDD(self, func, preserves_partitioning)

    def map(self, func: Callable[[T], U]) -> "RDD":
        """Element-wise transform."""
        return MapPartitionsRDD(
            self, lambda _i, it: map(func, it), elementwise=True
        )

    def flat_map(self, func: Callable[[T], Iterable[U]]) -> "RDD":
        """Element-wise transform producing zero or more outputs each."""
        return MapPartitionsRDD(
            self,
            lambda _i, it: itertools.chain.from_iterable(map(func, it)),
            elementwise=True,
        )

    def filter(self, predicate: Callable[[T], bool]) -> "RDD":
        """Keep elements satisfying ``predicate`` (keyed partitioning survives)."""
        return MapPartitionsRDD(
            self,
            lambda _i, it: filter(predicate, it),
            preserves_partitioning=True,
            elementwise=True,
        )

    def map_values(self, func: Callable[[V], U]) -> "RDD":
        """Transform the value of each ``(key, value)`` pair, keeping keys."""
        return MapPartitionsRDD(
            self,
            lambda _i, it: ((k, func(v)) for k, v in it),
            preserves_partitioning=True,
            elementwise=True,
        )

    def flat_map_values(self, func: Callable[[V], Iterable[U]]) -> "RDD":
        """Expand each value to several, pairing each with the original key."""

        def expand(_i: int, it: Iterator) -> Iterator:
            for key, value in it:
                for out in func(value):
                    yield key, out

        return MapPartitionsRDD(
            self, expand, preserves_partitioning=True, elementwise=True
        )

    def keys(self) -> "RDD":
        return self.map(lambda kv: kv[0])

    def values(self) -> "RDD":
        return self.map(lambda kv: kv[1])

    def key_by(self, func: Callable[[T], K]) -> "RDD":
        """Pair each element with ``func(element)`` as its key."""
        return self.map(lambda item: (func(item), item))

    def glom(self) -> "RDD":
        """Each partition becomes a single list element."""
        return MapPartitionsRDD(self, lambda _i, it: iter([list(it)]))

    def zip_with_index(self) -> "RDD":
        """Pair each element with a global, partition-ordered index."""
        counts = self.ctx.run_job(
            self, lambda it: sum(1 for _ in it), description="zip_with_index sizes"
        )
        offsets = list(itertools.accumulate([0] + counts[:-1]))

        def number(idx: int, it: Iterator) -> Iterator:
            for position, item in enumerate(it):
                yield item, offsets[idx] + position

        return MapPartitionsRDD(self, number)

    def union(self, other: "RDD") -> "RDD":
        return UnionRDD(self.ctx, [self, other])

    def cartesian(self, other: "RDD") -> "RDD":
        """All pairs ``(a, b)``; partition count multiplies."""
        return CartesianRDD(self, other)

    def coalesce(self, num_partitions: int) -> "RDD":
        """Reduce partition count without a shuffle."""
        if num_partitions >= self._num_partitions:
            return self
        return CoalescedRDD(self, num_partitions)

    def repartition(self, num_partitions: int) -> "RDD":
        """Change partition count via a full shuffle of opaque records."""
        indexed = self.map(lambda item: (item, None))
        shuffled = ShuffledRDD(indexed, HashPartitioner(num_partitions), None)
        return shuffled.map(lambda kv: kv[0])

    def zip(self, other: "RDD") -> "RDD":
        """Pair elements position-wise; partition structure must match."""
        if self.num_partitions != other.num_partitions:
            raise ValueError(
                f"cannot zip RDDs with {self.num_partitions} and "
                f"{other.num_partitions} partitions"
            )
        return ZippedRDD(self, other)

    def sort_by(
        self,
        key_func: Callable[[T], Any] = lambda x: x,
        ascending: bool = True,
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        """Globally sort by ``key_func`` (range partition, then local sort).

        Samples keys to choose balanced range bounds, exactly like
        Spark's ``sortBy``.
        """
        from .partitioner import RangePartitioner

        partitions = num_partitions or self._num_partitions
        sample_keys = sorted(
            key_func(item)
            for item in self.map(lambda x: x).take(10000)
        )
        if partitions <= 1 or len(sample_keys) < partitions:
            bounds: list = []
        else:
            step = len(sample_keys) / partitions
            bounds = [
                sample_keys[int(step * (i + 1)) - 1] for i in range(partitions - 1)
            ]
        partitioner = RangePartitioner(bounds, ascending)
        keyed = self.map(lambda item: (key_func(item), item))
        shuffled = ShuffledRDD(keyed, partitioner, None)
        return shuffled.map_partitions(
            lambda it: iter(
                [
                    value
                    for _key, value in sorted(
                        it, key=lambda kv: kv[0], reverse=not ascending
                    )
                ]
            )
        )

    def top(self, n: int, key: Optional[Callable] = None) -> list:
        """The ``n`` largest elements, descending."""
        import heapq

        parts = self.ctx.run_job(
            self, lambda it: heapq.nlargest(n, it, key=key), description="top"
        )
        return heapq.nlargest(n, itertools.chain.from_iterable(parts), key=key)

    def take_ordered(self, n: int, key: Optional[Callable] = None) -> list:
        """The ``n`` smallest elements, ascending."""
        import heapq

        parts = self.ctx.run_job(
            self,
            lambda it: heapq.nsmallest(n, it, key=key),
            description="take_ordered",
        )
        return heapq.nsmallest(n, itertools.chain.from_iterable(parts), key=key)

    def subtract_by_key(self, other: "RDD") -> "RDD":
        """Keyed pairs whose key does not appear in ``other``."""

        def keep(groups: tuple[list, list]) -> Iterator:
            mine, theirs = groups
            if not theirs:
                yield from mine

        return self.cogroup(other).flat_map_values(keep)

    def subtract(self, other: "RDD") -> "RDD":
        """Elements of this RDD not present in ``other`` (set difference,
        preserving this side's duplicates like Spark)."""
        return (
            self.map(lambda x: (x, None))
            .subtract_by_key(other.map(lambda x: (x, None)))
            .keys()
        )

    def intersection(self, other: "RDD") -> "RDD":
        """Distinct elements present in both RDDs."""

        def both(groups: tuple[list, list]) -> Iterator:
            mine, theirs = groups
            if mine and theirs:
                yield None

        return (
            self.map(lambda x: (x, None))
            .cogroup(other.map(lambda x: (x, None)))
            .flat_map(lambda kv: [kv[0]] if kv[1][0] and kv[1][1] else [])
        )

    def stats(self) -> "StatCounter":
        """Count, mean, variance, min, max in one pass."""
        return self.aggregate(
            StatCounter(), lambda acc, x: acc.add(x), lambda a, b: a.merge(b)
        )

    def histogram(self, buckets: int) -> tuple[list, list]:
        """Evenly spaced histogram over the value range.

        Returns ``(bucket_boundaries, counts)`` like Spark's
        ``DoubleRDD.histogram(int)``.
        """
        if buckets <= 0:
            raise ValueError(f"buckets must be positive, got {buckets}")
        stats = self.stats()
        if stats.count == 0:
            raise ValueError("histogram() on an empty RDD")
        lo, hi = stats.minimum, stats.maximum
        if lo == hi:
            return [lo, hi], [stats.count]
        width = (hi - lo) / buckets
        boundaries = [lo + width * i for i in range(buckets)] + [hi]

        def count_partition(it: Iterator) -> list[int]:
            counts = [0] * buckets
            for value in it:
                index = min(int((value - lo) / width), buckets - 1)
                counts[index] += 1
            return counts

        parts = self.ctx.run_job(self, count_partition, description="histogram")
        totals = [sum(col) for col in zip(*parts)]
        return boundaries, totals

    def checkpoint(self) -> "RDD":
        """Materialize now (cache + force), cutting lazy lineage."""
        self.cache()
        self.count()
        return self

    def sample(self, fraction: float, seed: int = 17) -> "RDD":
        """Bernoulli sample of each partition (deterministic per seed).

        Sampling is filter-shaped — it only drops records — so a keyed
        parent's partitioner survives and a later shuffle on the same
        keys stays local.  (Not ``elementwise``: the per-partition RNG is
        seeded by the split index, so replaying a slice of a partition
        under a different fan-out would change which records survive.)
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")

        def sampler(idx: int, it: Iterator) -> Iterator:
            import random

            rng = random.Random(seed * 1_000_003 + idx)
            return (item for item in it if rng.random() < fraction)

        return MapPartitionsRDD(self, sampler, preserves_partitioning=True)

    # ------------------------------------------------------------------
    # Wide (shuffling) transformations
    # ------------------------------------------------------------------

    def _default_shuffle_partitions(self, num_partitions: Optional[int]) -> int:
        if num_partitions is not None:
            return num_partitions
        return self._num_partitions

    def partition_by(self, partitioner: Partitioner) -> "RDD":
        """Redistribute ``(key, value)`` pairs according to ``partitioner``."""
        if self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner, None)

    def combine_by_key(
        self,
        create_combiner: Callable[[V], U],
        merge_value: Callable[[U, V], U],
        merge_combiners: Callable[[U, U], U],
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
        map_side_combine: bool = True,
    ) -> "RDD":
        """General keyed aggregation (the primitive under reduce/fold/group)."""
        if partitioner is None:
            partitioner = HashPartitioner(self._default_shuffle_partitions(num_partitions))
        aggregator = Aggregator(
            create_combiner, merge_value, merge_combiners, map_side_combine
        )
        return ShuffledRDD(self, partitioner, aggregator)

    def reduce_by_key(
        self,
        func: Callable[[V, V], V],
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        """Merge values per key with ``func``, combining map-side first.

        This is the operation the paper's Rule (13) targets: grouped
        values are partially reduced *before* they are shuffled.
        """
        return self.combine_by_key(
            lambda v: v, func, func, num_partitions, partitioner
        )

    def fold_by_key(
        self,
        zero: V,
        func: Callable[[V, V], V],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        import copy

        return self.combine_by_key(
            lambda v: func(copy.deepcopy(zero), v), func, func, num_partitions
        )

    def aggregate_by_key(
        self,
        zero: U,
        seq_func: Callable[[U, V], U],
        comb_func: Callable[[U, U], U],
        num_partitions: Optional[int] = None,
    ) -> "RDD":
        import copy

        return self.combine_by_key(
            lambda v: seq_func(copy.deepcopy(zero), v),
            seq_func,
            comb_func,
            num_partitions,
        )

    def group_by_key(
        self,
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        """Collect all values per key into a list — no map-side combining.

        Deliberately shuffles every record, exactly like Spark: the paper's
        optimizations exist to *avoid* this operation when an aggregation
        follows.
        """
        if partitioner is None:
            partitioner = HashPartitioner(self._default_shuffle_partitions(num_partitions))
        aggregator = Aggregator(
            create_combiner=lambda v: [v],
            merge_value=lambda acc, v: acc + [v],
            merge_combiners=lambda a, b: a + b,
            map_side_combine=False,
        )
        return ShuffledRDD(self, partitioner, aggregator)

    def cogroup(
        self,
        other: "RDD",
        num_partitions: Optional[int] = None,
        partitioner: Optional[Partitioner] = None,
    ) -> "RDD":
        """Group both RDDs by key: ``(key, (values_self, values_other))``."""
        if partitioner is None:
            partitions = num_partitions or max(
                self._num_partitions, other._num_partitions
            )
            partitioner = HashPartitioner(partitions)
        return CoGroupedRDD(self.ctx, [self, other], partitioner)

    def join(self, other: "RDD", num_partitions: Optional[int] = None) -> "RDD":
        """Inner join on keys: ``(key, (v_self, v_other))`` per match pair."""

        def flatten(groups: tuple[list, list]) -> Iterator:
            left, right = groups
            for lv in left:
                for rv in right:
                    yield lv, rv

        cogrouped = self.cogroup(other, num_partitions)
        if isinstance(cogrouped, CoGroupedRDD):
            # The grouped record feeding ``flatten`` is a cartesian
            # product, so the adaptive skew splitter may break one side's
            # value list into chunks without changing the joined pair
            # multiset.  The cogroup object itself never escapes this
            # method, so the marking cannot affect user-visible grouping.
            cogrouped._splittable_values = True
        return cogrouped.flat_map_values(flatten)

    def left_outer_join(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        """Left outer join; missing right values appear as ``None``."""

        def flatten(groups: tuple[list, list]) -> Iterator:
            left, right = groups
            for lv in left:
                if right:
                    for rv in right:
                        yield lv, rv
                else:
                    yield lv, None

        return self.cogroup(other, num_partitions).flat_map_values(flatten)

    def right_outer_join(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        """Right outer join; missing left values appear as ``None``."""

        def flatten(groups: tuple[list, list]) -> Iterator:
            left, right = groups
            for rv in right:
                if left:
                    for lv in left:
                        yield lv, rv
                else:
                    yield None, rv

        return self.cogroup(other, num_partitions).flat_map_values(flatten)

    def full_outer_join(
        self, other: "RDD", num_partitions: Optional[int] = None
    ) -> "RDD":
        """Full outer join; missing sides appear as ``None``."""

        def flatten(groups: tuple[list, list]) -> Iterator:
            left, right = groups
            if not left:
                for rv in right:
                    yield None, rv
            elif not right:
                for lv in left:
                    yield lv, None
            else:
                for lv in left:
                    for rv in right:
                        yield lv, rv

        return self.cogroup(other, num_partitions).flat_map_values(flatten)

    def distinct(self, num_partitions: Optional[int] = None) -> "RDD":
        return (
            self.map(lambda item: (item, None))
            .reduce_by_key(lambda a, _b: a, num_partitions)
            .keys()
        )

    # ------------------------------------------------------------------
    # Actions
    # ------------------------------------------------------------------

    def collect(self) -> list:
        """All records, in partition order."""
        parts = self.ctx.run_job(self, list, description="collect")
        return list(itertools.chain.from_iterable(parts))

    def collect_as_map(self) -> dict:
        """Collect a keyed RDD into a dict (later duplicates win)."""
        return dict(self.collect())

    def count(self) -> int:
        parts = self.ctx.run_job(
            self, lambda it: sum(1 for _ in it), description="count"
        )
        return sum(parts)

    def is_empty(self) -> bool:
        return self.count() == 0

    def first(self) -> Any:
        taken = self.take(1)
        if not taken:
            raise ValueError("first() on an empty RDD")
        return taken[0]

    def take(self, n: int) -> list:
        """First ``n`` records in partition order (evaluates lazily per split)."""
        if n <= 0:
            return []
        out: list = []
        with self.ctx.metrics.job("take"):
            for split in range(self._num_partitions):
                self.ctx.metrics.record_stage(1)
                for item in self.iterator(split):
                    out.append(item)
                    if len(out) == n:
                        return out
        return out

    def reduce(self, func: Callable[[T, T], T]) -> T:
        """Reduce all records with an associative ``func``."""
        sentinel = object()

        def reduce_partition(it: Iterator) -> Any:
            acc: Any = sentinel
            for item in it:
                acc = item if acc is sentinel else func(acc, item)
            return acc

        parts = [
            p
            for p in self.ctx.run_job(self, reduce_partition, description="reduce")
            if p is not sentinel
        ]
        if not parts:
            raise ValueError("reduce() on an empty RDD")
        acc = parts[0]
        for item in parts[1:]:
            acc = func(acc, item)
        return acc

    def fold(self, zero: T, func: Callable[[T, T], T]) -> T:
        """Fold with a zero element.

        Like Spark, the zero is (deep-)copied per partition, so mutable
        accumulators are safe.
        """
        import copy

        parts = self.ctx.run_job(
            self,
            lambda it: _fold_iter(it, copy.deepcopy(zero), func),
            description="fold",
        )
        acc = copy.deepcopy(zero)
        for part in parts:
            acc = func(acc, part)
        return acc

    def aggregate(
        self,
        zero: U,
        seq_func: Callable[[U, T], U],
        comb_func: Callable[[U, U], U],
    ) -> U:
        """Aggregate with different within- and across-partition combines.

        The zero is (deep-)copied per partition (Spark serializes it per
        task), so mutable accumulators are safe.
        """
        import copy

        parts = self.ctx.run_job(
            self,
            lambda it: _fold_iter(it, copy.deepcopy(zero), seq_func),
            description="aggregate",
        )
        acc = copy.deepcopy(zero)
        for part in parts:
            acc = comb_func(acc, part)
        return acc

    def sum(self) -> Any:
        return self.fold(0, lambda a, b: a + b)

    def max(self) -> Any:
        return self.reduce(lambda a, b: a if a >= b else b)

    def min(self) -> Any:
        return self.reduce(lambda a, b: a if a <= b else b)

    def count_by_key(self) -> dict:
        return dict(self.map_values(lambda _v: 1).reduce_by_key(lambda a, b: a + b).collect())

    def lookup(self, key: Any) -> list:
        """All values for ``key`` (scans; uses partitioner if known)."""
        if self.partitioner is not None:
            split = self.partitioner.partition(key)
            with self.ctx.metrics.job("lookup"):
                self.ctx.metrics.record_stage(1)
                return [v for k, v in self.iterator(split) if k == key]
        return self.filter(lambda kv: kv[0] == key).values().collect()

    def foreach(self, func: Callable[[T], None]) -> None:
        def run(it: Iterator) -> None:
            for item in it:
                func(item)

        self.ctx.run_job(self, run, description="foreach")

    # ------------------------------------------------------------------

    def __repr__(self) -> str:
        return f"{type(self).__name__}(id={self.id}, partitions={self._num_partitions})"


def _fold_iter(it: Iterator, zero: Any, func: Callable[[Any, Any], Any]) -> Any:
    acc = zero
    for item in it:
        acc = func(acc, item)
    return acc


class StatCounter:
    """Streaming count/mean/variance/min/max (Welford merge, like Spark)."""

    def __init__(self):
        self.count = 0
        self.mean = 0.0
        self._m2 = 0.0
        self.minimum = float("inf")
        self.maximum = float("-inf")

    def add(self, value: float) -> "StatCounter":
        value = float(value)
        self.count += 1
        delta = value - self.mean
        self.mean += delta / self.count
        self._m2 += delta * (value - self.mean)
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        return self

    def merge(self, other: "StatCounter") -> "StatCounter":
        if other.count == 0:
            return self
        if self.count == 0:
            self.count = other.count
            self.mean = other.mean
            self._m2 = other._m2
            self.minimum = other.minimum
            self.maximum = other.maximum
            return self
        delta = other.mean - self.mean
        total = self.count + other.count
        self.mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * self.count * other.count / total
        self.count = total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        return self

    @property
    def variance(self) -> float:
        return self._m2 / self.count if self.count else float("nan")

    @property
    def stdev(self) -> float:
        return self.variance ** 0.5

    def __repr__(self) -> str:
        return (
            f"StatCounter(count={self.count}, mean={self.mean:.4f}, "
            f"stdev={self.stdev:.4f}, min={self.minimum}, max={self.maximum})"
        )


class ParallelCollectionRDD(RDD):
    """An RDD over an in-memory sequence, sliced into partitions."""

    def __init__(self, ctx: "EngineContext", data: Iterable, num_partitions: int):
        items = list(data)
        num_partitions = max(1, min(num_partitions, max(1, len(items))))
        super().__init__(ctx, num_partitions)
        self._slices = _slice(items, num_partitions)

    def compute(self, split: int) -> Iterator:
        return iter(self._slices[split])


def _slice(items: list, num_partitions: int) -> list[list]:
    """Split ``items`` into ``num_partitions`` contiguous, balanced runs."""
    length = len(items)
    slices = []
    for i in range(num_partitions):
        start = (i * length) // num_partitions
        end = ((i + 1) * length) // num_partitions
        slices.append(items[start:end])
    return slices


class MapPartitionsRDD(RDD):
    """Narrow transformation: ``func(index, parent_iterator)`` per split.

    ``elementwise`` marks functions that treat the partition as a plain
    record stream — each input record contributes outputs independently
    of its neighbours and of the split index (``map``, ``filter``,
    ``flat_map`` and the ``*_values`` variants).  The adaptive skew
    splitter may re-run such a function over a *slice* of a partition;
    opaque ``map_partitions`` functions (stateful scans, index-seeded
    samplers) never get that flag and stop the splitter's lineage walk.
    """

    def __init__(
        self,
        parent: RDD,
        func: Callable[[int, Iterator], Iterator],
        preserves_partitioning: bool = False,
        elementwise: bool = False,
    ):
        super().__init__(
            parent.ctx,
            parent.num_partitions,
            parent.partitioner if preserves_partitioning else None,
        )
        self._parent = parent
        self._func = func
        self._elementwise = elementwise

    @property
    def dependencies(self) -> list[RDD]:
        return [self._parent]

    def compute(self, split: int) -> Iterator:
        return iter(self._func(split, self._parent.iterator(split)))


class _PipelinedWide:
    """A wide node's output while a task graph produces it.

    A pipelined job claims the node (:attr:`_pipeline_job`) and fills the
    output container it will end up with (:attr:`_pipeline_output`, from
    :func:`~repro.engine.shuffle.new_output`) one partition at a time;
    downstream tasks whose dependency edges have fired read it through
    :meth:`compute` before the node is fully materialized.  When every
    partition has landed the compiler *promotes* the container to the
    permanent ``_output``, so later jobs see a node materialized exactly
    as a staged run leaves it.
    """

    _pipeline_output: Any = None
    _pipeline_job: Any = None

    def _pipeline_compute(self, split: int) -> Optional[Iterator]:
        """Partition ``split`` from the in-flight output, or ``None``.

        Raises when the partition has not landed: a pipelined task
        reading it means the task graph is missing a dependency edge,
        which must fail loudly rather than silently re-run the shuffle.
        """
        output = self._pipeline_output
        if output is None:
            return None
        value = output[split]
        if value is None:
            raise RuntimeError(
                f"pipelined read of partition {split} of rdd {self.id} "
                f"before it landed (missing task-graph dependency edge)"
            )
        return iter(value)

    def _check_not_pipelining(self) -> None:
        if self._pipeline_output is not None:
            raise RuntimeError(
                f"cannot materialize rdd {self.id} behind a stage barrier "
                f"while a pipelined job is producing it"
            )

    def _new_output(self, num_partitions: int) -> Any:
        return new_output(
            self.ctx.block_manager, f"out/{self.id}", num_partitions
        )


class ShuffledRDD(_PipelinedWide, RDD):
    """Wide dependency: repartitions (and optionally combines) by key.

    The shuffle runs once, on first access to any output partition, and its
    results are retained for the lifetime of the RDD object (mirroring
    Spark's shuffle files surviving for later stages).

    When the parent is already partitioned by an equal partitioner the
    records do not move: each output partition derives from exactly the
    matching parent partition, no shuffle bytes are recorded, and only the
    combining work runs (Spark's "shuffle avoided" narrow path).
    """

    def __init__(
        self,
        parent: RDD,
        partitioner: Partitioner,
        aggregator: Optional[Aggregator],
    ):
        super().__init__(parent.ctx, partitioner.num_partitions, partitioner)
        self._parent = parent
        self._aggregator = aggregator
        self._output: Optional[list[list[tuple[Any, Any]]]] = None
        self._map_stats: Optional[MapOutputStatistics] = None
        self._materialize_lock = threading.Lock()

    @property
    def dependencies(self) -> list[RDD]:
        return [self._parent]

    def output_statistics(self) -> Optional[MapOutputStatistics]:
        """Measured per-partition map-output histogram of this shuffle.

        Materializes the shuffle if needed (this is how the adaptive
        layer "runs wide stages one at a time": the upstream stage must
        finish before its statistics can steer the next one).  ``None``
        when the data never crossed the shuffle machinery (co-partitioned
        local combine).
        """
        self._materialize()
        return self._map_stats

    def prepare_execution(self, seen: set[int]) -> None:
        if id(self) in seen:
            return
        seen.add(id(self))
        if self._output is not None:
            return
        if self._cached and self.ctx.block_manager.contains_all(
            self.id, self._num_partitions
        ):
            return
        self._parent.prepare_execution(seen)
        self._materialize()

    def _materialize(self) -> list[list[tuple[Any, Any]]]:
        output = self._output
        if output is None:
            self._check_not_pipelining()
            # Concurrent result tasks race here; one thread runs (and
            # accounts) the shuffle, the rest reuse its output.
            with self._materialize_lock:
                if self._output is None:
                    self._output = self._run_shuffle()
                output = self._output
        return output

    def _run_shuffle(self) -> list[list[tuple[Any, Any]]]:
        if self._parent.partitioner == self.partitioner:
            return self._local_combine()
        blocks = self.ctx.block_manager
        opt_in = self._reuse_opt_in or self._parent._reuse_opt_in
        reused = blocks.lookup_shuffle(
            self._parent.id, self.partitioner, self._aggregator,
            opt_in=opt_in,
        )
        if reused is not None:
            self._map_stats = getattr(reused, "stats", None)
            return reused
        map_outputs: Any = (
            self._parent.iterator(i)
            for i in range(self._parent.num_partitions)
        )
        adaptive = getattr(self.ctx, "adaptive", None)
        if adaptive is not None and adaptive.enabled:
            # Skew mitigation: if an upstream materialized stage reports
            # a hot partition, fan its map work out over several tasks
            # whose partial combines merge in the reduce phase below.
            expanded = adaptive.plan_map_splits(self._parent)
            if expanded is not None:
                map_outputs = expanded
        output = self.ctx.shuffle_manager.shuffle(
            map_outputs, self.partitioner, self._aggregator,
            stage_label=str(self.id),
        )
        self._map_stats = getattr(output, "stats", None)
        blocks.register_shuffle(
            self._parent.id, self.partitioner, self._aggregator, output,
            opt_in=opt_in,
        )
        return output

    def _combine_into(self, output: Any, split: int) -> float:
        """Combine one co-partitioned partition into ``output[split]``.

        Shared by the staged :meth:`_local_combine` stage and the
        pipelined combine tasks; returns the task's own-seconds.
        """
        with self.ctx.metrics.task_timer() as timer:
            self.ctx.runner.fault_point(f"combine:{self.id}", split)
            records = self._parent.iterator(split)
            if self._aggregator is None:
                combined = list(records)
            else:
                combiners: dict[Any, Any] = {}
                agg = self._aggregator
                for key, value in records:
                    if key in combiners:
                        combiners[key] = agg.merge_value(combiners[key], value)
                    else:
                        combiners[key] = agg.create_combiner(value)
                combined = list(combiners.items())
        output[split] = combined
        return timer.own_seconds

    def _local_combine(self) -> Any:
        """Parent already partitioned correctly: combine in place."""
        count = self._parent.num_partitions
        output = self._new_output(count)
        task_seconds = self.ctx.runner.run_stage(
            [
                (lambda split=split: self._combine_into(output, split))
                for split in range(count)
            ]
        )
        self.ctx.metrics.record_stage(count, list(task_seconds))
        output.prefetch()
        return output

    def _discard_lost_output(self, output: Any) -> None:
        """Forget a materialized output whose spilled partition was lost.

        Only discards when ``output`` is still the current one, so a
        concurrent reader that failed on the *previous* generation never
        throws away a freshly rebuilt output.
        """
        with self._materialize_lock:
            if self._output is output:
                output.release()
                self._output = None
                self._map_stats = None

    def compute(self, split: int) -> Iterator:
        pipelined = self._pipeline_compute(split)
        if pipelined is not None:
            return pipelined
        # A spilled output partition that cannot be restored (deleted or
        # corrupt spill object) falls back to lineage recomputation: the
        # whole shuffle re-runs, exactly as if the output had never been
        # retained.
        for _attempt in range(2):
            output = None
            try:
                output = self._materialize()
                return iter(output[split])
            except SpillLostError:
                if output is not None:
                    self._discard_lost_output(output)
        raise SpillLostError(
            f"partition {split} of rdd {self.id} lost twice in a row"
        )


class CoGroupedRDD(_PipelinedWide, RDD):
    """Groups several keyed RDDs by key into ``(key, (list_0, list_1, ...))``.

    Each parent that is not already partitioned compatibly is shuffled
    (without combining — cogroup moves every record, like Spark).
    """

    def __init__(
        self, ctx: "EngineContext", parents: list[RDD], partitioner: Partitioner
    ):
        super().__init__(ctx, partitioner.num_partitions, partitioner)
        self._parents = parents
        self._output: Optional[list[list[tuple[Any, Any]]]] = None
        self._materialize_lock = threading.Lock()
        #: Per-parent map-output histograms, filled during materialization
        #: (``None`` for a parent that never crossed the shuffle).
        self._parent_stats: list[Optional[MapOutputStatistics]] = []
        #: Set by :meth:`RDD.join`: the grouped value lists only ever feed
        #: a cartesian flatten, so the skew splitter may chunk them.
        self._splittable_values = False

    @property
    def dependencies(self) -> list[RDD]:
        return list(self._parents)

    def output_statistics(self) -> Optional[MapOutputStatistics]:
        """Combined per-partition histogram over all shuffled parents.

        ``None`` when any parent was co-partitioned (its bytes never
        moved, so there is no measured histogram to combine).
        """
        self._materialize()
        if len(self._parent_stats) != len(self._parents):
            return None
        combined: Optional[MapOutputStatistics] = None
        for stats in self._parent_stats:
            if stats is None:
                return None
            combined = stats if combined is None else combined.merged_with(stats)
        return combined

    def prepare_execution(self, seen: set[int]) -> None:
        if id(self) in seen:
            return
        seen.add(id(self))
        if self._output is not None:
            return
        if self._cached and self.ctx.block_manager.contains_all(
            self.id, self._num_partitions
        ):
            return
        for parent in self._parents:
            parent.prepare_execution(seen)
        self._materialize()

    def _materialize(self) -> list[list[tuple[Any, Any]]]:
        output = self._output
        if output is None:
            self._check_not_pipelining()
            with self._materialize_lock:
                if self._output is None:
                    self._output = self._run_cogroup()
                output = self._output
        return output

    def _drain_into(
        self, scratch: Any, parent: RDD, index: int, split: int
    ) -> float:
        """Drain one co-partitioned parent partition into ``scratch``.

        Shared by the staged drain stage and the pipelined drain tasks;
        returns the task's own-seconds.
        """
        with self.ctx.metrics.task_timer() as timer:
            self.ctx.runner.fault_point(f"drain:{self.id}.{index}", split)
            records = list(parent.iterator(split))
        scratch[split] = records
        return timer.own_seconds

    def _merge_split(self, sources: list, output: Any, split: int) -> float:
        """Group split ``split`` of every parent's buckets into ``output``.

        Parents merge in order, so each key's value lists keep parent
        order; only one split's table is resident at a time.  Shared by
        the staged merge stage and the pipelined merge tasks; returns
        the task's own-seconds.
        """
        arity = len(sources)
        with self.ctx.metrics.task_timer() as timer:
            table: dict[Any, tuple[list, ...]] = {}
            for index, source in enumerate(sources):
                self.ctx.runner.fault_point(f"merge:{self.id}", split)
                for key, value in source[split]:
                    entry = table.get(key)
                    if entry is None:
                        entry = tuple([] for _ in range(arity))
                        table[key] = entry
                    entry[index].append(value)
        output[split] = list(table.items())
        return timer.own_seconds

    def _parent_buckets(self, parent: RDD, index: int) -> tuple[Any, bool]:
        """One bucket per output partition for one parent.

        Returns ``(buckets, disposable)``: disposable buckets are
        released once the merge has read them; reused or retained
        shuffle outputs are not.
        """
        blocks = self.ctx.block_manager
        if parent.partitioner == self.partitioner:
            # Already co-partitioned: drain parent partitions in place
            # (independent splits, so they fan out on the runner).
            count = parent.num_partitions
            scratch = new_output(blocks, f"scratch/{self.id}.{index}", count)
            task_seconds = self.ctx.runner.run_stage(
                [
                    (lambda i=i: self._drain_into(scratch, parent, index, i))
                    for i in range(count)
                ]
            )
            self.ctx.metrics.record_stage(count, list(task_seconds))
            self._parent_stats.append(None)
            return scratch, True
        opt_in = self._reuse_opt_in or parent._reuse_opt_in
        reused = blocks.lookup_shuffle(
            parent.id, self.partitioner, None, opt_in=opt_in
        )
        if reused is not None:
            self._parent_stats.append(getattr(reused, "stats", None))
            return reused, False
        map_outputs = (parent.iterator(i) for i in range(parent.num_partitions))
        buckets = self.ctx.shuffle_manager.shuffle(
            map_outputs, self.partitioner, None,
            stage_label=f"{self.id}.{index}",
        )
        self._parent_stats.append(buckets.stats)
        retained = blocks.register_shuffle(
            parent.id, self.partitioner, None, buckets, opt_in=opt_in
        )
        return buckets, not retained

    def _run_cogroup(self) -> Any:
        # Fresh per materialization: a lineage-fallback re-run (lost
        # spill) must not accumulate stale per-parent histograms.
        self._parent_stats = []
        # Every parent's buckets first, in parent order, then one merge
        # stage: the stage-recording order of the task graph too.
        parents = [
            self._parent_buckets(parent, index)
            for index, parent in enumerate(self._parents)
        ]
        sources = [buckets for buckets, _disposable in parents]
        for buckets in sources:
            buckets.prefetch()
        output = self._new_output(self.num_partitions)
        merge_seconds = self.ctx.runner.run_stage(
            [
                (lambda split=split: self._merge_split(sources, output, split))
                for split in range(self.num_partitions)
            ]
        )
        self.ctx.metrics.record_stage(self.num_partitions, list(merge_seconds))
        for buckets, disposable in parents:
            if disposable:
                buckets.release()
        output.prefetch()
        return output

    def _discard_lost_output(self, output: Any) -> None:
        """Forget a materialized cogroup whose spilled partition was lost."""
        with self._materialize_lock:
            if self._output is output:
                output.release()
                self._output = None
                self._parent_stats = []

    def compute(self, split: int) -> Iterator:
        pipelined = self._pipeline_compute(split)
        if pipelined is not None:
            return pipelined
        for _attempt in range(2):
            output = None
            try:
                output = self._materialize()
                return iter(output[split])
            except SpillLostError:
                if output is not None:
                    self._discard_lost_output(output)
        raise SpillLostError(
            f"partition {split} of rdd {self.id} lost twice in a row"
        )


class UnionRDD(RDD):
    """Concatenation of several RDDs; partitions are juxtaposed."""

    def __init__(self, ctx: "EngineContext", parents: list[RDD]):
        super().__init__(ctx, sum(p.num_partitions for p in parents))
        self._parents = parents

    @property
    def dependencies(self) -> list[RDD]:
        return list(self._parents)

    def compute(self, split: int) -> Iterator:
        for parent in self._parents:
            if split < parent.num_partitions:
                return parent.iterator(split)
            split -= parent.num_partitions
        raise IndexError(f"partition {split} out of range")


class CartesianRDD(RDD):
    """All pairs of two RDDs; ``n * m`` partitions."""

    def __init__(self, left: RDD, right: RDD):
        super().__init__(left.ctx, left.num_partitions * right.num_partitions)
        self._left = left
        self._right = right

    @property
    def dependencies(self) -> list[RDD]:
        return [self._left, self._right]

    def compute(self, split: int) -> Iterator:
        left_split, right_split = divmod(split, self._right.num_partitions)
        left_items = list(self._left.iterator(left_split))
        for right_item in self._right.iterator(right_split):
            for left_item in left_items:
                yield left_item, right_item


class ZippedRDD(RDD):
    """Position-wise pairing of two RDDs with identical partitioning."""

    def __init__(self, left: RDD, right: RDD):
        super().__init__(left.ctx, left.num_partitions)
        self._left = left
        self._right = right

    @property
    def dependencies(self) -> list[RDD]:
        return [self._left, self._right]

    def compute(self, split: int) -> Iterator:
        left_items = list(self._left.iterator(split))
        right_items = list(self._right.iterator(split))
        if len(left_items) != len(right_items):
            raise ValueError(
                f"cannot zip partition {split}: {len(left_items)} vs "
                f"{len(right_items)} elements"
            )
        return iter(list(zip(left_items, right_items)))


class CoalescedRDD(RDD):
    """Merges parent partitions into fewer, without moving data."""

    def __init__(self, parent: RDD, num_partitions: int):
        super().__init__(parent.ctx, num_partitions)
        self._parent = parent
        self._groups = _slice(list(range(parent.num_partitions)), num_partitions)

    @property
    def dependencies(self) -> list[RDD]:
        return [self._parent]

    def compute(self, split: int) -> Iterator:
        return itertools.chain.from_iterable(
            self._parent.iterator(i) for i in self._groups[split]
        )
