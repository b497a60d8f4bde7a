"""Tile-level kernels: NumPy realizations of per-block computations.

The paper's generated Scala processes each tile with parallel loops
(Scala's ``.par``).  The Python equivalent of "fast dense loops inside a
block" is a vectorized NumPy expression, so this module provides:

* :func:`compile_vectorized` — compiles a scalar DSL expression into a
  function over NumPy arrays (index grids and tile values), preserving
  the DSL's integer-division semantics.  Raises
  :class:`KernelUnsupported` for constructs with no vectorized form, in
  which case the planner falls back to slower reference evaluation.

* :func:`gather` — realigns a source tile to the output tile's local
  index grids according to the variable mapping the analysis derived
  (identity for aligned element-wise ops, a transpose for ``((j,i),v)``
  heads, a diagonal gather for ``i == j``, ...).

* :func:`specialize_contract` — the Section 5.3/5.4 per-tile-pair
  aggregation, decided once per plan rather than once per tile pair.
  The multiply-add case becomes ``np.matmul`` (BLAS-backed: this *is*
  the optimal tile kernel the paper gets from its generic rules); any
  other monoid/term pair uses a broadcast-and-reduce with the monoid's
  ufunc.  The returned :class:`ContractKernel` also has a *batch* form:
  the broadcast group-by-join stacks every contraction one tile takes
  part in (:func:`stack_by_shape`) into a 3-D ``np.matmul``, whose
  slices are byte-identical to the per-pair products.  Concatenating
  the tiles into one 2-D panel GEMM would be a single BLAS call too,
  but it sums in a different order, so results would no longer match
  the per-pair kernel bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional, Sequence

import numpy as np

from ..comprehension.ast import (
    BinOp, Call, Expr, IfExpr, Lit, TupleExpr, UnOp, Var,
)
from ..comprehension.monoids import Monoid


class KernelUnsupported(Exception):
    """The expression has no vectorized NumPy form."""


Env = dict[str, Any]
Kernel = Callable[[Env], Any]

_NP_BINOPS: dict[str, Callable] = {
    "+": np.add,
    "-": np.subtract,
    "*": np.multiply,
    "%": np.mod,
    "==": np.equal,
    "!=": np.not_equal,
    "<": np.less,
    "<=": np.less_equal,
    ">": np.greater,
    ">=": np.greater_equal,
    "&&": np.logical_and,
    "||": np.logical_or,
}

_NP_CALLS: dict[str, Callable] = {
    "abs": np.abs,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "floor": np.floor,
    "ceil": np.ceil,
    "pow": np.power,
    "min": np.minimum,
    "max": np.maximum,
}


def _div(a: Any, b: Any) -> Any:
    """DSL division: floor division when both operands are integral."""
    a_int = isinstance(a, (int, np.integer)) or (
        isinstance(a, np.ndarray) and np.issubdtype(a.dtype, np.integer)
    )
    b_int = isinstance(b, (int, np.integer)) or (
        isinstance(b, np.ndarray) and np.issubdtype(b.dtype, np.integer)
    )
    if a_int and b_int:
        return a // b
    return a / b


def compile_vectorized(expr: Expr) -> Kernel:
    """Compile ``expr`` into a function of an array environment.

    Every free variable must be present in the environment at call time,
    bound to a scalar or a broadcastable NumPy array.
    """
    if isinstance(expr, Lit):
        value = expr.value
        return lambda _env: value
    if isinstance(expr, Var):
        name = expr.name
        return lambda env: env[name]
    if isinstance(expr, TupleExpr):
        parts = [compile_vectorized(item) for item in expr.items]
        return lambda env: tuple(part(env) for part in parts)
    if isinstance(expr, BinOp):
        left = compile_vectorized(expr.left)
        right = compile_vectorized(expr.right)
        if expr.op == "/":
            return lambda env: _div(left(env), right(env))
        try:
            op = _NP_BINOPS[expr.op]
        except KeyError:
            raise KernelUnsupported(f"operator {expr.op!r}") from None
        return lambda env: op(left(env), right(env))
    if isinstance(expr, UnOp):
        operand = compile_vectorized(expr.operand)
        if expr.op == "-":
            return lambda env: np.negative(operand(env))
        return lambda env: np.logical_not(operand(env))
    if isinstance(expr, IfExpr):
        cond = compile_vectorized(expr.cond)
        then = compile_vectorized(expr.then)
        orelse = compile_vectorized(expr.orelse)
        return lambda env: np.where(cond(env), then(env), orelse(env))
    if isinstance(expr, Call):
        try:
            fn = _NP_CALLS[expr.func]
        except KeyError:
            raise KernelUnsupported(f"function {expr.func!r}") from None
        args = [compile_vectorized(arg) for arg in expr.args]
        return lambda env: fn(*(arg(env) for arg in args))
    raise KernelUnsupported(f"expression {type(expr).__name__}")


#: Source spellings of the vectorized operator tables above.  The fused
#: per-partition codegen (:mod:`repro.planner.codegen`) renders the same
#: ufunc calls :func:`compile_vectorized` would make, so the generated
#: text evaluates bit-identically to the interpreter's closure kernels.
_NP_BINOP_SOURCE: dict[str, str] = {
    "+": "np.add",
    "-": "np.subtract",
    "*": "np.multiply",
    "%": "np.mod",
    "==": "np.equal",
    "!=": "np.not_equal",
    "<": "np.less",
    "<=": "np.less_equal",
    ">": "np.greater",
    ">=": "np.greater_equal",
    "&&": "np.logical_and",
    "||": "np.logical_or",
}

_NP_CALL_SOURCE: dict[str, str] = {
    "abs": "np.abs",
    "exp": "np.exp",
    "log": "np.log",
    "sqrt": "np.sqrt",
    "floor": "np.floor",
    "ceil": "np.ceil",
    "pow": "np.power",
    "min": "np.minimum",
    "max": "np.maximum",
}


def emit_vectorized_source(expr: Expr, names: dict[str, str]) -> str:
    """Render ``expr`` as NumPy source text over pre-bound ``names``.

    ``names`` maps each DSL variable to the Python expression that holds
    its value in the generated scope (a local identifier, or a literal
    for closed-over constants).  The rendering calls exactly the ufuncs
    :func:`compile_vectorized` dispatches to (including ``_div`` for the
    DSL's integral division), so evaluating the text reproduces the
    interpreter kernel bit for bit.  Raises :class:`KernelUnsupported`
    in precisely the cases :func:`compile_vectorized` would, plus for
    variables absent from ``names``.
    """
    if isinstance(expr, Lit):
        return repr(expr.value)
    if isinstance(expr, Var):
        try:
            return names[expr.name]
        except KeyError:
            raise KernelUnsupported(f"unbound variable {expr.name!r}") from None
    if isinstance(expr, TupleExpr):
        parts = [emit_vectorized_source(item, names) for item in expr.items]
        if len(parts) == 1:
            return f"({parts[0]},)"
        return "(" + ", ".join(parts) + ")"
    if isinstance(expr, BinOp):
        left = emit_vectorized_source(expr.left, names)
        right = emit_vectorized_source(expr.right, names)
        if expr.op == "/":
            return f"_div({left}, {right})"
        try:
            op = _NP_BINOP_SOURCE[expr.op]
        except KeyError:
            raise KernelUnsupported(f"operator {expr.op!r}") from None
        return f"{op}({left}, {right})"
    if isinstance(expr, UnOp):
        operand = emit_vectorized_source(expr.operand, names)
        if expr.op == "-":
            return f"np.negative({operand})"
        return f"np.logical_not({operand})"
    if isinstance(expr, IfExpr):
        cond = emit_vectorized_source(expr.cond, names)
        then = emit_vectorized_source(expr.then, names)
        orelse = emit_vectorized_source(expr.orelse, names)
        return f"np.where({cond}, {then}, {orelse})"
    if isinstance(expr, Call):
        try:
            fn = _NP_CALL_SOURCE[expr.func]
        except KeyError:
            raise KernelUnsupported(f"function {expr.func!r}") from None
        args = ", ".join(emit_vectorized_source(arg, names) for arg in expr.args)
        return f"{fn}({args})"
    raise KernelUnsupported(f"expression {type(expr).__name__}")


#: Attribute memoizing compiled kernels on the (frozen, immutable) AST
#: node: iterative workloads re-plan the same normalized tree every
#: step, and a kernel depends only on the expression.
_KERNEL_MEMO = "_sac_kernel_memo"


def compile_vectorized_cached(expr: Expr) -> Kernel:
    """:func:`compile_vectorized` memoized on the node (failures too)."""
    memo = getattr(expr, _KERNEL_MEMO, None)
    if memo is None:
        try:
            memo = compile_vectorized(expr)
        except KernelUnsupported as exc:
            memo = exc
        object.__setattr__(expr, _KERNEL_MEMO, memo)
    if isinstance(memo, KernelUnsupported):
        raise memo
    return memo


# ----------------------------------------------------------------------
# Tile realignment
# ----------------------------------------------------------------------


def gather(
    tile: np.ndarray,
    axis_map: Sequence[int],
    grids: Sequence[np.ndarray],
) -> np.ndarray:
    """Realign ``tile`` so its axes follow the output's local index grids.

    ``axis_map[d]`` names the output dimension that indexes axis ``d`` of
    the tile; ``grids`` are ``np.indices(out_shape)``.  The identity map
    on a matching shape returns the tile itself (no copy).
    """
    if list(axis_map) == list(range(len(grids))) and tile.shape == tuple(
        g.shape[d] for d, g in enumerate(grids)
    ):
        if tile.ndim == len(grids):
            return tile
    index = tuple(grids[out_dim] for out_dim in axis_map)
    return tile[index]


# ----------------------------------------------------------------------
# Contractions (Sections 5.3 / 5.4)
# ----------------------------------------------------------------------

#: A specialized contraction over two operands (tiles, or tile stacks).
ContractFn = Callable[[Any, Any], Any]


@dataclass(frozen=True)
class ContractKernel:
    """One tile contraction ``⊕/h(a, b)``, specialized at plan time.

    ``pair(left, right)`` contracts one tile pair.  ``batch(lefts,
    rights)`` contracts one tile with many: each operand carries a
    leading batch axis, one of them of length 1, and its tile is paired
    with every tile of the other.  Item ``i`` of the batch result is
    byte-identical to ``pair`` on the ``i``-th pair.

    ``kind`` says how the work is done: ``"matmul"`` runs a batch as one
    stacked 3-D ``np.matmul``; ``"dot"``, ``"einsum"`` and ``"ufunc"``
    (broadcast the tiles, evaluate ``h``, reduce with the monoid's
    ufunc) run ``pair`` once per pair of the batch.
    """

    kind: str
    pair: ContractFn
    batch: ContractFn


def specialize_contract(
    left_axes: tuple[str, ...],
    right_axes: tuple[str, ...],
    out_axes: tuple[str, ...],
    term: Optional[Expr],
    mon: Monoid,
    value_vars: tuple[str, str],
) -> ContractKernel:
    """Choose the kernel that aggregates ``⊕/h(a, b)`` over shared classes.

    ``left_axes``/``right_axes``/``out_axes`` name each tensor dimension by
    its index *class*; classes present in the inputs but not the output
    are contracted.  ``term`` is ``h`` (``None`` means plain ``a*b``).

    The decision is made once per plan.  The canonical multiply-add case
    becomes BLAS: for the matrix multiplication comprehension this is
    exactly the per-tile GEMM the paper's translation produces.
    Multiply-add shapes BLAS does not cover use ``einsum``.  Other
    (monoid, term) pairs broadcast both tiles over the union of classes,
    evaluate ``h`` vectorized, and reduce the contracted axes with the
    monoid's ufunc.  Raises :class:`KernelUnsupported` when ``h`` has no
    vectorized form or the monoid has no ufunc.
    """
    if _is_multiply_add(term, mon, value_vars):
        kernel = _blas_kernel(left_axes, right_axes, out_axes)
        if kernel is not None:
            return kernel
        subscripts = _einsum_subscripts(left_axes, right_axes, out_axes)

        def einsum_pair(left: np.ndarray, right: np.ndarray) -> np.ndarray:
            return np.einsum(subscripts, left, right)

        return ContractKernel("einsum", einsum_pair, _looped(einsum_pair))
    return _ufunc_kernel(left_axes, right_axes, out_axes, term, mon, value_vars)


def contract(kernel: ContractFn, left: Any, right: Any) -> Any:
    """Run a :class:`ContractKernel`'s ``pair`` or ``batch`` on operands.

    Every tile contraction the lowered programs run goes through this
    one call, so a profiler or tracer that wraps it sees each dispatch
    (``perfbench/tracer.py`` wraps it where :mod:`repro.planner.lower`
    and :mod:`repro.planner.tiling` import it).
    """
    return kernel(left, right)


def _mT(x: np.ndarray) -> np.ndarray:
    """Transpose the last two axes (a tile, or every tile of a stack)."""
    return np.swapaxes(x, -1, -2)


def _blas_kernel(
    left_axes: tuple[str, ...],
    right_axes: tuple[str, ...],
    out_axes: tuple[str, ...],
) -> Optional[ContractKernel]:
    """Specialize common multiply-add contractions to ``np.matmul``.

    ``einsum`` without a precomputed path runs a C loop an order of
    magnitude slower than ``dot`` at tile sizes, so the matrix-matrix and
    matrix-vector orientations go to ``matmul`` with transposes.  A
    batch is one ``np.matmul`` over a 3-D stack: it makes the same BLAS
    call for each stacked pair as for the pair alone, so every slice is
    byte-identical to the pair's product.  Returns ``None`` for shapes
    this does not cover.
    """
    out_axes = tuple(out_axes)
    # Matrix x matrix with one contracted axis.
    if len(left_axes) == 2 and len(right_axes) == 2 and len(out_axes) == 2:
        shared = set(left_axes) & set(right_axes)
        if len(shared) != 1:
            return None
        k = shared.pop()
        left_t = left_axes[1] != k
        a_out = left_axes[1] if left_t else left_axes[0]
        right_t = right_axes[0] != k
        b_out = right_axes[0] if right_t else right_axes[1]
        if (a_out, b_out) == out_axes:
            out_t = False
        elif (b_out, a_out) == out_axes:
            out_t = True
        else:
            return None

        def matmul(left: np.ndarray, right: np.ndarray) -> np.ndarray:
            product = np.matmul(
                _mT(left) if left_t else left, _mT(right) if right_t else right
            )
            return _mT(product) if out_t else product

        return ContractKernel("matmul", matmul, matmul)
    # Matrix x vector.
    if len(left_axes) == 2 and len(right_axes) == 1 and len(out_axes) == 1:
        (k,) = right_axes
        if k not in left_axes:
            return None
        left_t = left_axes[1] != k
        a_out = left_axes[1] if left_t else left_axes[0]
        if (a_out,) != out_axes:
            return None

        def matvec(left: np.ndarray, right: np.ndarray) -> np.ndarray:
            return (_mT(left) if left_t else left) @ right

        def matvec_batch(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
            a = _mT(lefts) if left_t else lefts
            return np.matmul(a, rights[..., None])[..., 0]

        return ContractKernel("matmul", matvec, matvec_batch)
    if len(left_axes) == 1 and len(right_axes) == 2 and len(out_axes) == 1:
        (k,) = left_axes
        if k not in right_axes:
            return None
        right_t = right_axes[0] != k
        b_out = right_axes[0] if right_t else right_axes[1]
        if (b_out,) != out_axes:
            return None

        def vecmat(left: np.ndarray, right: np.ndarray) -> np.ndarray:
            return left @ (_mT(right) if right_t else right)

        def vecmat_batch(lefts: np.ndarray, rights: np.ndarray) -> np.ndarray:
            b = _mT(rights) if right_t else rights
            return np.matmul(lefts[..., None, :], b)[..., 0, :]

        return ContractKernel("matmul", vecmat, vecmat_batch)
    # Vector x vector inner product.
    if len(left_axes) == 1 and len(right_axes) == 1 and len(out_axes) == 0:
        if left_axes != right_axes:
            return None

        def dot(left: np.ndarray, right: np.ndarray) -> np.ndarray:
            return np.asarray(left @ right)

        return ContractKernel("dot", dot, _looped(dot))
    return None


def _ufunc_kernel(
    left_axes: tuple[str, ...],
    right_axes: tuple[str, ...],
    out_axes: tuple[str, ...],
    term: Optional[Expr],
    mon: Monoid,
    value_vars: tuple[str, str],
) -> ContractKernel:
    """Broadcast-and-reduce for any (monoid, term) pair with a ufunc."""
    combine = mon.np_combine
    if combine is None:
        raise KernelUnsupported(f"monoid {mon.name!r} has no ufunc")
    all_axes = list(out_axes) + [
        c for c in dict.fromkeys(list(left_axes) + list(right_axes))
        if c not in out_axes
    ]
    left_view = _axis_view(left_axes, all_axes)
    right_view = _axis_view(right_axes, all_axes)
    h = None if term is None else compile_vectorized_cached(term)
    left_var, right_var = value_vars
    # Contracted axes, innermost first.
    reduce_axes = tuple(range(len(all_axes) - 1, len(out_axes) - 1, -1))

    def reduce_pair(left: np.ndarray, right: np.ndarray) -> np.ndarray:
        left_b, right_b = left_view(left), right_view(right)
        if h is None:
            values = left_b * right_b
        else:
            values = h({left_var: left_b, right_var: right_b})
        if not reduce_axes:
            return np.asarray(values)
        for axis in reduce_axes:
            values = combine.reduce(values, axis=axis)
        return values

    return ContractKernel("ufunc", reduce_pair, _looped(reduce_pair))


def _looped(pair: ContractFn) -> ContractFn:
    """A batch form of ``pair`` that calls it once per pair."""

    def batch(lefts: Sequence[np.ndarray], rights: Sequence[np.ndarray]) -> list:
        if len(lefts) == 1:
            return [pair(lefts[0], right) for right in rights]
        return [pair(left, rights[0]) for left in lefts]

    return batch


def stack_by_shape(
    tiles: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], list[tuple[int, int]]]:
    """Stack ``tiles`` into one array per distinct tile shape.

    Each stack has a leading batch axis, so ragged edge tiles form
    stacks of their own; a stack of one tile is a view, not a copy.
    Returns the stacks and, for each tile in order, its ``(stack,
    slot)`` position.
    """
    stack_of: dict[tuple, int] = {}
    members: list[list[np.ndarray]] = []
    where: list[tuple[int, int]] = []
    for tile in tiles:
        index = stack_of.get(tile.shape)
        if index is None:
            index = stack_of[tile.shape] = len(members)
            members.append([])
        group = members[index]
        where.append((index, len(group)))
        group.append(tile)
    stacks = [
        np.array(group) if len(group) > 1 else group[0][None]
        for group in members
    ]
    return stacks, where


def _is_multiply_add(
    term: Optional[Expr], mon: Monoid, value_vars: tuple[str, str]
) -> bool:
    if mon.name != "+":
        return False
    if term is None:
        return True
    return (
        isinstance(term, BinOp)
        and term.op == "*"
        and {_var_name(term.left), _var_name(term.right)} == set(value_vars)
    )


def _var_name(expr: Expr) -> Optional[str]:
    return expr.name if isinstance(expr, Var) else None


def _einsum_subscripts(
    left_axes: tuple[str, ...],
    right_axes: tuple[str, ...],
    out_axes: tuple[str, ...],
) -> str:
    letters: dict[str, str] = {}
    alphabet = iter("abcdefghijklmnopqrstuvwxyz")
    for cls in list(left_axes) + list(right_axes) + list(out_axes):
        if cls not in letters:
            letters[cls] = next(alphabet)
    lhs = "".join(letters[c] for c in left_axes)
    rhs = "".join(letters[c] for c in right_axes)
    out = "".join(letters[c] for c in out_axes)
    return f"{lhs},{rhs}->{out}"


def _axis_view(
    axes: tuple[str, ...], all_axes: list[str]
) -> Callable[[np.ndarray], np.ndarray]:
    """View a tile with singleton dimensions inserted for absent classes."""
    order = [axes.index(cls) for cls in all_axes if cls in axes]
    present = [cls in axes for cls in all_axes]
    identity = order == list(range(len(axes)))

    def view(tile: np.ndarray) -> np.ndarray:
        permuted = tile if identity else np.transpose(tile, order)
        dims = iter(permuted.shape)
        return permuted.reshape([next(dims) if p else 1 for p in present])

    return view


def combine_tiles(
    mon: Monoid,
    left: np.ndarray,
    right: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Pairwise tile combination — the ``⊗′`` monoid of Section 5.3.

    ``out`` (typically ``left``) folds in place into a buffer the caller
    owns; the values equal the allocating form's exactly.
    """
    if mon.np_combine is None:
        raise KernelUnsupported(f"monoid {mon.name!r} has no ufunc")
    return mon.np_combine(left, right, out=out)
