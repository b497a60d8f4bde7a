"""The group-by-join translation (paper Section 5.4).

A *group-by-join* is a join of two arrays followed by a group-by whose
key pairs one dimension from each side, and an aggregation::

    tiled(n,m)[ (k, ⊕/c) | ((i,j),a) <- A, ((ii,jj),b) <- B,
                kx(i,j) == ky(ii,jj), let c = h(a,b),
                group by k: (gx(i,j), gy(ii,jj)) ]

Matrix multiplication is the canonical instance (gx = i, kx = k,
ky = kk, gy = j, h = a*b, ⊕ = +).  Instead of shuffling one partial
product tile per (i, k, j) triple — what the Section 5.3 translation
does — this rule replicates each A-tile across the result's column
blocks and each B-tile across the result's row blocks, cogroups on the
*result* coordinate, and evaluates all contractions reducer-side,
accumulating directly into one output tile.  This generalizes the SUMMA
algorithm; total shuffle volume is ``|A|·m/N + |B|·n/N`` tiles instead
of ``n·l·m/N³`` partial products.

Matching and building are split so the planner can *cost* the
candidates first: :func:`match_group_by_join` recognizes the pattern
and returns a :class:`GbjMatch` carrying the quantities the cost model
needs (grids, dimensions, partition counts via the generators), then
:func:`emit_replicate` / :func:`emit_broadcast` emit the chosen
physical IR node, which :mod:`repro.planner.lower` turns into the RDD
program.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..comprehension.ast import Var, free_vars, to_source
from ..engine import RecordSizeAccountant
from ..engine.adaptive import AdaptiveDecision
from ..comprehension.monoids import Monoid, monoid
from ..storage import stats as density
from .cost import (
    STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT, STRATEGY_REPLICATE,
)
from .ir import (
    IRNode, OP_ASSEMBLE, OP_BROADCAST, OP_GROUP_BY_JOIN, OP_REPLICATE,
    scan_gen_node,
)
from .kernels import ContractKernel, KernelUnsupported, specialize_contract
from .plan import RULE_GROUP_BY_JOIN
from .tiling import (
    ResolvedGen, TiledSetup, _drop_if_dense, _out_classes, assemble_sig,
)

#: Bytes per float64 element (kept in sync with cost.ELEMENT_BYTES).
_ELEMENT_BYTES = 8


@dataclass
class GbjMatch:
    """A recognized group-by-join, plus the shape facts the cost model uses.

    ``left_gen`` owns the result's row dimension and ``right_gen`` the
    column dimension (generators are swapped during matching if the
    group key listed them the other way around).
    """

    left_gen: ResolvedGen
    right_gen: ResolvedGen
    #: Axis positions: result-row axis and join axis of the left
    #: generator; result-column axis and join axis of the right.
    left_row_axis: int
    left_join_axis: int
    right_col_axis: int
    right_join_axis: int
    #: Einsum-style axis names of the contraction.
    left_axes: tuple[str, ...]
    right_axes: tuple[str, ...]
    out_axes: tuple[str, str]
    #: Index classes of the result's dimensions and of the join.
    row_class: int
    col_class: int
    join_class: int
    #: Tile grids: result rows/cols and the contracted dimension.
    grid_rows: int
    grid_cols: int
    grid_join: int
    #: The aggregated term h(a, b) and its monoid.
    term: object
    mon: Monoid
    value_vars: tuple[str, str]
    #: The tile contraction, specialized once for this plan.
    kernel: ContractKernel
    #: Logical dimensions (elements, not tiles).
    row_dim: int = 0
    col_dim: int = 0
    join_dim: int = 0

    @property
    def flops(self) -> float:
        """Dense contraction work: two flops per multiply-add."""
        return 2.0 * self.row_dim * self.join_dim * self.col_dim

    @property
    def result_bytes(self) -> int:
        """Dense payload bytes of the full result."""
        return self.row_dim * self.col_dim * _ELEMENT_BYTES

    def tile_count(self, side: str) -> int:
        """Stored tile count of one side (for broadcast thresholds)."""
        gen = self.left_gen if side == "left" else self.right_gen
        storage = gen.storage
        if hasattr(storage, "grid_rows"):
            return storage.grid_rows * storage.grid_cols
        return storage.grid_size


def match_group_by_join(setup: TiledSetup) -> Optional[GbjMatch]:
    """Recognize the group-by-join pattern; None if it does not apply."""
    info = setup.info
    if info.group_key_vars is None or info.post_group_quals:
        return None
    if len(setup.gens) != 2 or len(info.slots) != 1 or info.residual_guards:
        return None
    if len(info.joins) != 1:
        return None
    key_exprs = info.group_key_exprs or []
    if len(key_exprs) != 2:
        return None
    out_classes = _out_classes(setup, key_exprs)
    if out_classes is None:
        return None

    left_gen, right_gen = setup.gens
    # The group key must take one dimension from each generator.
    gx, gy = key_exprs
    assert isinstance(gx, Var) and isinstance(gy, Var)
    if gx.name in left_gen.index_vars and gy.name in right_gen.index_vars:
        pass
    elif gx.name in right_gen.index_vars and gy.name in left_gen.index_vars:
        left_gen, right_gen = right_gen, left_gen
        out_classes = out_classes  # classes already dimension-ordered by key
    else:
        return None

    # The join condition must link the two generators on single index vars.
    join = info.joins[0]
    sides = {join.left_gen: join.left, join.right_gen: join.right}
    left_pos = setup.gens.index(left_gen)
    right_pos = setup.gens.index(right_gen)
    kx, ky = sides.get(left_pos), sides.get(right_pos)
    if not (isinstance(kx, Var) and isinstance(ky, Var)):
        return None
    if kx.name not in left_gen.index_vars or ky.name not in right_gen.index_vars:
        return None

    slot = info.slots[0]
    mon = monoid(slot.monoid)
    if mon.np_combine is None:
        return None
    value_vars = (left_gen.value_var, right_gen.value_var)
    if None in value_vars or not free_vars(slot.expr) <= set(value_vars):
        return None
    residual = info.residual_value
    if not (isinstance(residual, Var) and residual.name == slot.slot_var):
        return None  # non-identity f is handled by the 5.3 rule

    row_class, col_class = out_classes
    join_class = setup.classes[kx.name]

    left_row_axis = left_gen.index_vars.index(gx.name if gx.name in left_gen.index_vars else gy.name)
    left_join_axis = left_gen.index_vars.index(kx.name)
    right_col_axis = right_gen.index_vars.index(gy.name if gy.name in right_gen.index_vars else gx.name)
    right_join_axis = right_gen.index_vars.index(ky.name)

    class_names = {cls: f"c{cls}" for cls in setup.class_dim}
    left_axes = tuple(class_names[c] for c in left_gen.axis_classes)
    right_axes = tuple(class_names[c] for c in right_gen.axis_classes)
    out_axes = (class_names[row_class], class_names[col_class])
    try:
        kernel = specialize_contract(
            left_axes, right_axes, out_axes, slot.expr, mon,
            (value_vars[0], value_vars[1]),
        )
    except KernelUnsupported:
        return None

    return GbjMatch(
        left_gen=left_gen,
        right_gen=right_gen,
        left_row_axis=left_row_axis,
        left_join_axis=left_join_axis,
        right_col_axis=right_col_axis,
        right_join_axis=right_join_axis,
        left_axes=left_axes,
        right_axes=right_axes,
        out_axes=out_axes,
        row_class=row_class,
        col_class=col_class,
        join_class=join_class,
        grid_rows=setup.grid_size(row_class),
        grid_cols=setup.grid_size(col_class),
        grid_join=setup.grid_size(join_class),
        term=slot.expr,
        mon=mon,
        value_vars=(value_vars[0], value_vars[1]),
        kernel=kernel,
        row_dim=setup.class_dim[row_class],
        col_dim=setup.class_dim[col_class],
        join_dim=setup.class_dim[join_class],
    )


def _match_stats(match: GbjMatch):
    """Result density of the matched contraction (estimate; None = dense)."""
    return _drop_if_dense(
        density.contraction(
            match.left_gen.stats, match.right_gen.stats,
            match.join_dim, match.grid_join,
        )
    )


def _gbj_sig(match: GbjMatch) -> tuple:
    """Semantic signature of the matched contraction."""
    return (
        ("term", to_source(match.term)),
        ("monoid", match.mon.name),
        ("axes", match.left_axes, match.right_axes, match.out_axes),
        ("positions", match.left_row_axis, match.left_join_axis,
         match.right_col_axis, match.right_join_axis),
        ("grid", match.grid_rows, match.grid_cols, match.grid_join),
    )


def emit_replicate(
    setup: TiledSetup, match: GbjMatch, builder: str, args: tuple
) -> IRNode:
    """The SUMMA-style translation: replicate row/column tile bands."""
    left_scan = scan_gen_node(match.left_gen)
    right_scan = scan_gen_node(match.right_gen)
    left_rep = IRNode(
        op=OP_REPLICATE,
        children=(left_scan,),
        sig=(("axis", match.left_row_axis, match.left_join_axis),
             ("copies", match.grid_cols)),
        label="rows",
    )
    right_rep = IRNode(
        op=OP_REPLICATE,
        children=(right_scan,),
        sig=(("axis", match.right_col_axis, match.right_join_axis),
             ("copies", match.grid_rows)),
        label="cols",
    )
    join = IRNode(
        op=OP_GROUP_BY_JOIN,
        children=(left_rep, right_rep),
        sig=_gbj_sig(match) + (("strategy", STRATEGY_REPLICATE),),
        attrs={"strategy": STRATEGY_REPLICATE, "monoid": match.mon.name},
        label="summa",
    )
    root = IRNode(
        op=OP_ASSEMBLE,
        children=(join,),
        sig=assemble_sig(setup, builder, args),
    )
    root.attrs.update(
        rule=RULE_GROUP_BY_JOIN,
        builder=builder,
        strategy=STRATEGY_REPLICATE,
        reusable=True,
        description=(
            "group-by-join (SUMMA): replicate row/column tile bands, "
            "cogroup on result coordinates, contract reducer-side"
        ),
        pseudocode=(
            "Tiled(n, m, rdd[ (k, V) | (k, (__a, __b)) <- As.cogroup(Bs) ])\n"
            "As = A.tiles.flatMap { ((i,k),a) => (0 until m/N).map(q => ((gx(i,k),q),(kx(i,k),a))) }\n"
            "Bs = B.tiles.flatMap { ((kk,j),b) => (0 until n/N).map(p => ((p,gy(kk,j)),(ky(kk,j),b))) }\n"
            f"V accumulates ⊕/{to_source(match.term)} over matching tile pairs"
        ),
        details={
            "replication": f"A x{match.grid_cols}, B x{match.grid_rows}",
            "monoid": match.mon.name,
        },
        payload=dict(
            setup=setup, match=match, builder=builder, args=args,
        ),
    )
    return root


def emit_broadcast(
    setup: TiledSetup,
    match: GbjMatch,
    builder: str,
    args: tuple,
    side: str,
    reduce_partitions: Optional[int] = None,
) -> IRNode:
    """Map-side join: broadcast the small ``side``, stream the large side.

    ``reduce_partitions`` is the cost model's recommended partition
    count for the final reduceByKey (defaults to the large side's
    partitioning when omitted).
    """
    small_is_left = side == "left"
    strategy = (
        STRATEGY_BROADCAST_LEFT if small_is_left else STRATEGY_BROADCAST_RIGHT
    )
    small = match.left_gen if small_is_left else match.right_gen
    large = match.right_gen if small_is_left else match.left_gen
    small_node = IRNode(
        op=OP_BROADCAST,
        children=(scan_gen_node(small),),
        sig=(("side", side),),
        label=side,
    )
    large_node = scan_gen_node(large)
    children = (
        (small_node, large_node) if small_is_left else (large_node, small_node)
    )
    join = IRNode(
        op=OP_GROUP_BY_JOIN,
        children=children,
        sig=_gbj_sig(match) + (
            ("strategy", strategy),
            ("reduce_partitions", reduce_partitions),
        ),
        attrs={"strategy": strategy, "monoid": match.mon.name},
        label="broadcast",
    )
    root = IRNode(
        op=OP_ASSEMBLE,
        children=(join,),
        sig=assemble_sig(setup, builder, args),
    )
    root.attrs.update(
        rule=RULE_GROUP_BY_JOIN,
        builder=builder,
        strategy=strategy,
        reusable=True,
        description=(
            f"group-by-join (broadcast): small {side} side broadcast to "
            "every task; partial tiles merged with reduceByKey"
        ),
        pseudocode=(
            "small = sc.broadcast(S.tiles.collect().groupBy(join coord)"
            ".mapValues(stack tiles per shape))\n"
            "Tiled(n, m, L.tiles.flatMap { t => small(k(t)).flatMap(s =>"
            " keys(s).zip(matmul(s, t))) }\n"
            "            .reduceByKey(⊗′))"
        ),
        details={"broadcast_side": side, "monoid": match.mon.name},
        payload=dict(
            setup=setup, match=match, builder=builder, args=args,
            side=side, reduce_partitions=reduce_partitions,
        ),
    )
    return root


# ----------------------------------------------------------------------
# Adaptive re-optimization (runtime strategy downgrade)
# ----------------------------------------------------------------------


def measure_gen_size(gen: ResolvedGen) -> Optional[tuple[int, int]]:
    """Measured (bytes, stored records) of a generator's *materialized*
    tiles, or None when they are not materialized yet.

    Walks the generator's tile lineage through narrow maps to its base:
    a parallelized collection (driver-resident, so already "materialized")
    or a wide dependency that has run its shuffle.  The base's stored
    records are priced with a fresh :class:`RecordSizeAccountant` on the
    driver — no job runs and no engine counter moves, so measurement is
    free to call before deciding whether to re-plan.  The record count at
    the base equals the stored-tile count (the narrow chain above it is
    the storage's 1:1 tile finishing, not a replication).
    """
    from ..engine.rdd import (
        CoGroupedRDD, MapPartitionsRDD, ParallelCollectionRDD, ShuffledRDD,
    )

    node = gen.tiles
    while isinstance(node, MapPartitionsRDD):
        node = node._parent
    if isinstance(node, ParallelCollectionRDD):
        partitions = node._slices
    elif isinstance(node, (ShuffledRDD, CoGroupedRDD)):
        partitions = node._output
        if partitions is None:
            return None
    else:
        return None
    accountant = RecordSizeAccountant()
    nbytes = 0
    records = 0
    for part in partitions:
        part = list(part)
        nbytes += accountant.batch_size(part)
        records += len(part)
    return nbytes, records


def reconsider_join_strategy(
    engine,
    setup: TiledSetup,
    match: GbjMatch,
    candidates: dict,
    chosen: str,
    builder: str,
    args: tuple,
) -> Optional[tuple]:
    """Re-cost a cost-chosen group-by-join from measured input sizes.

    Called by the planner's adaptive wrapper just before the plan's
    thunk runs.  Both sides are measured (when materialized), the
    measurements are recorded on the engine's
    :class:`~repro.engine.adaptive.AdaptiveManager` so *later* compiles
    price with facts, and the candidates are re-costed with the measured
    overrides.  Only a **downgrade to broadcast** is acted on — the
    cheap, low-risk correction when a side turned out far smaller than
    its recorded statistics claimed (e.g. stats were stripped, or an
    upstream filter was underestimated) — and only when the measured
    side actually fits the cluster's per-copy broadcast budget.

    Returns ``(replacement_thunk, new_strategy)`` or None to keep the
    compile-time choice.
    """
    from .cost import (
        STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT, STRATEGY_REPLICATE,
        STRATEGY_TILED_REDUCE, CostModel, choose_strategy,
    )

    manager = getattr(engine, "adaptive", None)
    if manager is None or not manager.enabled:
        return None
    fresh = False
    for gen in (match.left_gen, match.right_gen):
        storage = getattr(gen, "storage", None)
        if storage is None:
            continue
        size = measure_gen_size(gen)
        if size is not None:
            manager.record_measured_size(storage, *size)
            fresh = True
    if not fresh:
        return None

    model = CostModel(
        engine.cluster, engine.default_parallelism,
        measured=manager.measured_sizes,
        memory_limit=getattr(engine, "memory_limit", None),
    )
    recost = model.candidates(setup, match)
    allowed = [
        STRATEGY_REPLICATE, STRATEGY_BROADCAST_LEFT,
        STRATEGY_BROADCAST_RIGHT, STRATEGY_TILED_REDUCE,
    ]
    new_strategy = choose_strategy(recost, allowed)
    if new_strategy == chosen or new_strategy not in (
        STRATEGY_BROADCAST_LEFT, STRATEGY_BROADCAST_RIGHT
    ):
        return None
    estimate = recost[new_strategy]
    per_copy = estimate.broadcast_bytes / (1 + engine.cluster.num_executors)
    if per_copy > engine.cluster.adaptive_broadcast_bytes:
        return None

    side = "left" if new_strategy == STRATEGY_BROADCAST_LEFT else "right"
    small = match.left_gen if side == "left" else match.right_gen
    small_size = manager.measured_sizes.get(id(small.storage))
    old_estimate = candidates.get(chosen)
    manager.record_decision(AdaptiveDecision(
        kind="broadcast-downgrade",
        description=(
            f"measured {side} side fits the broadcast budget; "
            f"switched {chosen} -> {new_strategy} before launching the join"
        ),
        measured={
            "side": side,
            "side_bytes": small_size[0] if small_size else None,
            "side_tiles": small_size[1] if small_size else None,
            "per_copy_bytes": int(per_copy),
            "new_total_seconds": round(estimate.total_seconds, 6),
            "new_shuffle_bytes": estimate.shuffle_bytes,
        },
        estimate={
            "strategy": chosen,
            "total_seconds": (
                round(old_estimate.total_seconds, 6) if old_estimate else None
            ),
            "shuffle_bytes": (
                old_estimate.shuffle_bytes if old_estimate else None
            ),
        },
    ))
    from .lower import build_broadcast_thunk

    replacement = build_broadcast_thunk(
        setup, match, builder, args, side,
        reduce_partitions=estimate.reduce_partitions,
    )
    return replacement, new_strategy
