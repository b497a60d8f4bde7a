"""Tests for comprehension analysis and the NumPy tile kernels."""

import numpy as np
import pytest

from repro.comprehension import Lit, Reduce, Var, desugar, normalize, parse
from repro.comprehension.monoids import MONOIDS, is_monoid, monoid
from repro.comprehension.errors import SacTypeError
from repro.planner import (
    analyze, compile_vectorized, contract, gather, specialize_contract,
)
from repro.planner.kernels import KernelUnsupported, stack_by_shape


def analyzed(source):
    expr = normalize(desugar(parse(source)))
    # Strip a builder wrapper if present.
    from repro.comprehension import BuilderApp

    if isinstance(expr, BuilderApp):
        expr = expr.source
    return analyze(expr)


# ----------------------------------------------------------------------
# Monoids
# ----------------------------------------------------------------------


def test_monoid_identities():
    assert monoid("+").fold([]) == 0
    assert monoid("*").fold([]) == 1
    assert monoid("&&").fold([]) is True
    assert monoid("||").fold([]) is False
    assert monoid("min").fold([3, 1, 2]) == 1
    assert monoid("max").fold([3, 1, 2]) == 3
    assert monoid("++").fold([[1], [2, 3]]) == [1, 2, 3]


def test_monoid_associativity_spot_check():
    for name in ("+", "*", "min", "max"):
        m = monoid(name)
        assert m.combine(m.combine(2, 3), 4) == m.combine(2, m.combine(3, 4))


def test_unknown_monoid():
    assert not is_monoid("weird")
    with pytest.raises(SacTypeError):
        monoid("weird")


def test_all_numeric_monoids_have_ufuncs():
    for name in ("+", "*", "min", "max", "&&", "||"):
        assert MONOIDS[name].np_combine is not None


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------


def test_analyze_matmul_structure():
    info = analyzed(
        "[ ((i,j),+/v) | ((i,k),a) <- A, ((kk,j),b) <- B, kk == k,"
        " let v = a*b, group by (i,j) ]"
    )
    assert len(info.generators) == 2
    assert info.generators[0].index_vars == ["i", "k"]
    assert info.generators[0].value_var == "a"
    assert len(info.joins) == 1
    assert info.group_key_vars == ["i", "j"]
    assert len(info.slots) == 1
    slot = info.slots[0]
    assert slot.monoid == "+"
    # let v = a*b was inlined into the slot expression.
    assert str(slot.expr) == "a * b"
    assert info.residual_value == Var(slot.slot_var)


def test_analyze_classes_unify_join_vars():
    info = analyzed("[ ((i,j),a+b) | ((i,j),a) <- A, ((ii,jj),b) <- B, ii == i, jj == j ]")
    classes = info.var_class()
    assert classes["i"] == classes["ii"]
    assert classes["j"] == classes["jj"]
    assert classes["i"] != classes["j"]


def test_analyze_residual_guard_kept():
    info = analyzed("[ (i, v) | ((i,j),v) <- A, v > 10 ]")
    assert len(info.joins) == 0
    assert len(info.residual_guards) == 1


def test_analyze_same_generator_equality_is_residual():
    # i == j within one generator is not a join, but it does unify the
    # two dimensions (the diagonal case of Section 5.1).
    info = analyzed("[ (i, v) | ((i,j),v) <- A, i == j ]")
    assert len(info.joins) == 0
    assert len(info.residual_guards) == 1
    classes = info.var_class()
    assert classes["i"] == classes["j"]


def test_analyze_count_becomes_plus_over_one():
    info = analyzed("[ (i, count/v) | ((i,j),v) <- A, group by i ]")
    assert info.slots[0].monoid == "+"
    assert info.slots[0].expr == Lit(1)


def test_analyze_avg_two_slots():
    info = analyzed("[ (i, avg/v) | ((i,j),v) <- A, group by i ]")
    assert len(info.slots) == 2
    assert {s.monoid for s in info.slots} == {"+"}


def test_analyze_range_generator():
    info = analyzed("[ (i, v) | (i,v) <- A, j <- 0 until 5 ]")
    assert len(info.ranges) == 1
    assert info.ranges[0].var == "j"


def test_analyze_expression_join_sides():
    info = analyzed(
        "[ (k, +/c) | ((i,j),a) <- A, ((ii,jj),b) <- B, i+j == ii*jj,"
        " let c = a*b, group by k: (i, jj) ]"
    )
    assert len(info.joins) == 1
    join = info.joins[0]
    assert {join.left_gen, join.right_gen} == {0, 1}


# ----------------------------------------------------------------------
# Vectorized expression compilation
# ----------------------------------------------------------------------


def compiled(source):
    return compile_vectorized(parse(source))


def test_compile_arithmetic():
    fn = compiled("a * 2 + b")
    env = {"a": np.array([1.0, 2.0]), "b": np.array([10.0, 20.0])}
    np.testing.assert_allclose(fn(env), [12.0, 24.0])


def test_compile_integer_division_on_int_arrays():
    fn = compiled("i / 3")
    np.testing.assert_array_equal(fn({"i": np.arange(6)}), [0, 0, 0, 1, 1, 1])


def test_compile_float_division():
    fn = compiled("a / 2")
    np.testing.assert_allclose(fn({"a": np.array([3.0])}), [1.5])


def test_compile_modulo_and_comparison():
    fn = compiled("i % 2 == 0")
    np.testing.assert_array_equal(
        fn({"i": np.arange(4)}), [True, False, True, False]
    )


def test_compile_if_becomes_where():
    fn = compiled("if (a > 0.0) a else 0.0 - a")
    np.testing.assert_allclose(fn({"a": np.array([-1.0, 2.0])}), [1.0, 2.0])


def test_compile_calls():
    fn = compiled("min(a, b) + abs(c)")
    env = {"a": 1.0, "b": 2.0, "c": -3.0}
    assert fn(env) == 4.0


def test_compile_logical_ops():
    fn = compiled("a > 0 && b > 0 || c > 0")
    assert fn({"a": 1, "b": 1, "c": -1})
    assert fn({"a": -1, "b": 1, "c": 1})


def test_compile_tuple():
    fn = compiled("(a + 1, a - 1)")
    assert fn({"a": 5}) == (6, 4)


def test_compile_unsupported_raises():
    with pytest.raises(KernelUnsupported):
        compile_vectorized(parse("[ v | (i,v) <- V ]"))
    with pytest.raises(KernelUnsupported):
        compile_vectorized(parse("mystery(a)"))


# ----------------------------------------------------------------------
# gather / contract
# ----------------------------------------------------------------------


def test_gather_identity_returns_same_object():
    tile = np.arange(6.0).reshape(2, 3)
    grids = np.indices((2, 3))
    assert gather(tile, [0, 1], grids) is tile


def test_gather_transpose():
    tile = np.arange(6.0).reshape(2, 3)
    grids = np.indices((3, 2))
    np.testing.assert_allclose(gather(tile, [1, 0], grids), tile.T)


def test_gather_diagonal():
    tile = np.arange(9.0).reshape(3, 3)
    grids = np.indices((3,))
    np.testing.assert_allclose(gather(tile, [0, 0], grids), np.diag(tile))


def pair_contract(a, b, left_axes, right_axes, out_axes, term, mon):
    kernel = specialize_contract(
        left_axes, right_axes, out_axes, term, mon, ("x", "y")
    )
    return contract(kernel.pair, a, b)


def test_contract_matmul_uses_blas():
    a = np.random.default_rng(0).normal(size=(3, 4))
    b = np.random.default_rng(1).normal(size=(4, 2))
    kernel = specialize_contract(
        ("i", "k"), ("k", "j"), ("i", "j"), parse("x * y"), monoid("+"),
        ("x", "y"),
    )
    assert kernel.kind == "matmul"
    np.testing.assert_allclose(contract(kernel.pair, a, b), a @ b)


def test_contract_transposed_orientations():
    a = np.random.default_rng(2).normal(size=(3, 4))
    b = np.random.default_rng(3).normal(size=(5, 4))
    # A @ B.T: join both on their second axis.
    out = pair_contract(
        a, b, ("i", "k"), ("j", "k"), ("i", "j"), None, monoid("+")
    )
    np.testing.assert_allclose(out, a @ b.T)


def test_contract_general_monoid_broadcast():
    a = np.array([[1.0, 5.0], [2.0, 0.0]])
    b = np.array([[3.0, 1.0], [4.0, 2.0]])
    # max over k of (x + y): not multiply-add, uses the broadcast path.
    out = pair_contract(
        a, b, ("i", "k"), ("k", "j"), ("i", "j"), parse("x + y"), monoid("max")
    )
    expected = np.max(a[:, :, None] + b[None, :, :], axis=1)
    np.testing.assert_allclose(out, expected)


def test_contract_matvec():
    a = np.random.default_rng(4).normal(size=(3, 4))
    v = np.random.default_rng(5).normal(size=4)
    out = pair_contract(a, v, ("i", "j"), ("j",), ("i",), None, monoid("+"))
    np.testing.assert_allclose(out, a @ v)


#: Every orientation the BLAS kernel covers: (left axes, right axes,
#: output axes, reference on one pair).
BLAS_ORIENTATIONS = {
    "A.B": (("i", "k"), ("k", "j"), ("i", "j"), lambda a, b: a @ b),
    "At.B": (("k", "i"), ("k", "j"), ("i", "j"), lambda a, b: a.T @ b),
    "A.Bt": (("i", "k"), ("j", "k"), ("i", "j"), lambda a, b: a @ b.T),
    "(A.B)t": (("i", "k"), ("k", "j"), ("j", "i"), lambda a, b: (a @ b).T),
    "B.A": (("k", "j"), ("i", "k"), ("i", "j"), lambda a, b: b @ a),
    "A.v": (("i", "k"), ("k",), ("i",), lambda a, b: a @ b),
    "At.v": (("k", "i"), ("k",), ("i",), lambda a, b: a.T @ b),
    "v.B": (("k",), ("k", "j"), ("j",), lambda a, b: a @ b),
    "v.Bt": (("k",), ("j", "k"), ("j",), lambda a, b: a @ b.T),
}


def _operand(axes, extent, rng, count):
    """``count`` random tiles with ``extent[cls]`` along each axis."""
    return rng.normal(size=(count,) + tuple(extent[c] for c in axes))


def _assert_batch_matches_pairs(kernel, lefts, rights):
    products = contract(kernel.batch, lefts, rights)
    count = max(len(lefts), len(rights))
    assert len(products) == count
    for index in range(count):
        left = lefts[index if len(lefts) > 1 else 0]
        right = rights[index if len(rights) > 1 else 0]
        expected = contract(kernel.pair, left, right)
        got = np.asarray(products[index])
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("tile", [13, 25, 40, 50, 100])
@pytest.mark.parametrize("name", sorted(BLAS_ORIENTATIONS))
def test_batch_kernel_is_byte_identical_to_pair_kernel(name, tile):
    left_axes, right_axes, out_axes, reference = BLAS_ORIENTATIONS[name]
    kernel = specialize_contract(
        left_axes, right_axes, out_axes, parse("x * y"), monoid("+"),
        ("x", "y"),
    )
    assert kernel.kind == "matmul"
    rng = np.random.default_rng(tile)
    extent = {"i": tile, "j": tile, "k": tile}
    lefts = _operand(left_axes, extent, rng, 4)
    rights = _operand(right_axes, extent, rng, 4)
    np.testing.assert_allclose(
        contract(kernel.pair, lefts[0], rights[0]), reference(lefts[0], rights[0])
    )
    # One tile against a stack, on either side (broadcast).
    _assert_batch_matches_pairs(kernel, lefts[:1], rights)
    _assert_batch_matches_pairs(kernel, lefts, rights[:1])


@pytest.mark.parametrize("term", ["x * y", "y * x"])
def test_batch_kernel_ragged_tiles_and_commuted_term(term):
    """n=130 at tile 25 leaves 5-wide edge tiles.  As in the broadcast
    group-by-join, each join coordinate's left tiles are stacked per
    shape and contracted against one right tile; every slice must match
    the pair kernel byte for byte."""
    kernel = specialize_contract(
        ("i", "k"), ("k", "j"), ("i", "j"), parse(term), monoid("+"),
        ("x", "y"),
    )
    assert kernel.kind == "matmul"
    rng = np.random.default_rng(130)
    a = rng.normal(size=(130, 130))
    b = rng.normal(size=(130, 130))
    edges = list(range(0, 130, 25))
    for k in edges:
        column = [a[i:i + 25, k:k + 25] for i in edges]
        stacks, where = stack_by_shape(column)
        assert len(stacks) == 2
        for j in edges:
            right = b[k:k + 25, j:j + 25]
            products = [
                contract(kernel.batch, stack, right[None]) for stack in stacks
            ]
            for left, (index, slot) in zip(column, where):
                expected = contract(kernel.pair, left, right)
                assert products[index][slot].tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "mon,reference",
    [
        ("min", lambda a, b: np.min(a[:, :, None] + b[None, :, :], axis=1)),
        ("max", lambda a, b: np.max(a[:, :, None] + b[None, :, :], axis=1)),
    ],
)
def test_non_plus_monoid_takes_the_ufunc_reduce_path(mon, reference):
    kernel = specialize_contract(
        ("i", "k"), ("k", "j"), ("i", "j"), parse("x + y"), monoid(mon),
        ("x", "y"),
    )
    assert kernel.kind == "ufunc"
    rng = np.random.default_rng(7)
    lefts = rng.normal(size=(3, 6, 5))
    rights = rng.normal(size=(3, 5, 4))
    np.testing.assert_array_equal(
        contract(kernel.pair, lefts[0], rights[0]), reference(lefts[0], rights[0])
    )
    _assert_batch_matches_pairs(kernel, lefts[:1], rights)
    _assert_batch_matches_pairs(kernel, lefts, rights[:1])


def test_unvectorizable_term_is_rejected_at_specialization():
    with pytest.raises(KernelUnsupported):
        specialize_contract(
            ("i", "k"), ("k", "j"), ("i", "j"), parse("mystery(x, y)"),
            monoid("max"), ("x", "y"),
        )
