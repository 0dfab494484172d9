import math

import numpy as np
import pytest

from excel import numerics as nm
from excel.errors import DataError, NumericError
from excel.numerics import Rng
from conftest import SPECIAL_VALUES, oracle_sigmoid, oracle_softmax


# --------------------------------------------------------------------------
# softmax_rows


def test_softmax_uniform_row():
    out = nm.softmax_rows(np.array([[0.0, 0.0, 0.0]], dtype=np.float32))
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-7)


def test_softmax_analytic_row():
    out = nm.softmax_rows(np.array([[0.0, math.log(2.0)]], dtype=np.float32))
    np.testing.assert_allclose(out, [[1 / 3, 2 / 3]], atol=1e-6)


def test_softmax_masked_entry_exactly_zero():
    out = nm.softmax_rows(np.array([[5.0, -np.inf, 5.0]], dtype=np.float32))
    assert out[0, 1] == 0.0
    np.testing.assert_allclose(out[0], [0.5, 0.0, 0.5], atol=1e-7)


def test_softmax_degenerate_row_raises():
    row = np.full((1, 4), -np.inf, dtype=np.float32)
    with pytest.raises(NumericError, match="degenerate attention row"):
        nm.softmax_rows(row)


def test_softmax_unchecked_on_a_stack_equals_per_matrix_calls():
    gen = Rng(102).generator()
    stack = gen.standard_normal((4, 17, 17)).astype(np.float32) * 5
    stack[gen.random(stack.shape) < 0.25] = -np.inf
    stack[..., 0] = 0.0  # no row is entirely masked
    got = nm.softmax_rows_unchecked(stack)
    want = np.stack([nm.softmax_rows_unchecked(m) for m in stack])
    assert got.tobytes() == want.tobytes()


def test_softmax_unchecked_into_work_arrays_gives_the_same_bytes():
    # the float64 steps in a work array holding a stale NaN, the result
    # written over the input itself
    gen = Rng(103).generator()
    stack = gen.standard_normal((2, 4, 17, 17)).astype(np.float32) * 5
    stack[gen.random(stack.shape) < 0.25] = -np.inf
    stack[..., 0] = 0.0
    want = nm.softmax_rows_unchecked(stack)
    work = np.full(stack.shape, np.nan)
    got = nm.softmax_rows_unchecked(stack, out=stack, work=work)
    assert got is stack
    assert got.tobytes() == want.tobytes()
    dead = np.zeros((3, 4, 5), dtype=np.float32)
    dead[2, 1] = -np.inf
    with pytest.raises(NumericError, match="degenerate attention row 1"):
        nm.softmax_rows_unchecked(dead, out=dead, work=np.empty(dead.shape))


def test_softmax_unchecked_bytes_equal_the_widened_formula():
    # rows with masks, one finite entry, ties at the max, subnormal and
    # signed-zero logits, and a random masked stack; the float32 row max
    # must give the widened copy's bytes, into work arrays too
    f32 = np.finfo(np.float32)
    tiny = np.float32(1e-40)
    inf = np.inf
    rows = np.array(
        [
            [0.0, -inf, 1.5, -inf, 2.0, -inf],
            [-inf, -inf, 3.0, -inf, -inf, -inf],
            [2.0, 2.0, -1.0, 2.0, 2.0, -inf],
            [tiny, -tiny, 0.0, -0.0, 3 * tiny, -inf],
            [-0.0, -0.0, -0.0, -0.0, -0.0, -0.0],
            [f32.max, -f32.max, f32.tiny, -f32.tiny, 80.0, -80.0],
        ],
        np.float32,
    )
    gen = Rng(104).generator()
    stack = gen.standard_normal((3, 2, 6, 6)).astype(np.float32) * 20
    stack[gen.random(stack.shape) < 0.4] = -np.inf
    stack[..., 0, :] = rows[1]
    stack[..., 1:, :] = rows[None, None, 1:]
    for m in (rows, stack):
        want = oracle_softmax(m)
        assert nm.softmax_rows_unchecked(m).tobytes() == want.tobytes()
        got = nm.softmax_rows_unchecked(m.copy(), out=np.empty_like(m), work=np.full(m.shape, np.nan))
        assert got.tobytes() == want.tobytes()
    dead = rows.copy()
    dead[4] = -np.inf
    with pytest.raises(NumericError, match="degenerate attention row 4"):
        nm.softmax_rows_unchecked(dead)


def test_softmax_unchecked_degenerate_row_in_a_stack_raises():
    stack = np.zeros((3, 4, 5), dtype=np.float32)
    stack[2, 1] = -np.inf
    with pytest.raises(NumericError, match="degenerate attention row 1"):
        nm.softmax_rows_unchecked(stack)


def test_softmax_rejects_nan_and_posinf():
    with pytest.raises(NumericError):
        nm.softmax_rows(np.array([[np.nan, 0.0]], dtype=np.float32))
    with pytest.raises(NumericError):
        nm.softmax_rows(np.array([[np.inf, 0.0]], dtype=np.float32))


def test_softmax_rows_sum_to_one_many_random():
    gen = Rng(101).generator()
    for _ in range(1000):
        rows = gen.integers(1, 6)
        cols = gen.integers(2, 12)
        m = gen.standard_normal((rows, cols)).astype(np.float32) * 5
        mask = gen.random((rows, cols)) < 0.25
        # keep at least one live entry per row
        mask[np.arange(rows), gen.integers(0, cols, rows)] = False
        m[mask] = -np.inf
        out = nm.softmax_rows(m)
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-5)
        assert (out[mask] == 0.0).all()


# --------------------------------------------------------------------------
# cosine_matrix


def test_cosine_identical_unit_vectors():
    v = np.array([[0.6], [0.8]], dtype=np.float32)
    assert nm.cosine_matrix(v, v)[0, 0] == pytest.approx(1.0, abs=1e-6)


def test_cosine_orthogonal_basis():
    e1 = np.array([[1.0], [0.0]], dtype=np.float32)
    e2 = np.array([[0.0], [1.0]], dtype=np.float32)
    assert nm.cosine_matrix(e1, e2)[0, 0] == pytest.approx(0.0, abs=1e-7)


def naive_cosine(a, b):
    out = np.zeros((a.shape[1], b.shape[1]))
    for i in range(a.shape[1]):
        for j in range(b.shape[1]):
            x, y = a[:, i].astype(np.float64), b[:, j].astype(np.float64)
            out[i, j] = x @ y / (np.linalg.norm(x) * np.linalg.norm(y))
    return out


def test_cosine_two_by_two_hand_value():
    # columns (1,0) and (1,1); off-diagonal cosine is 1/sqrt(2)
    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.float32)
    out = nm.cosine_matrix(a, a)
    assert out[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    np.testing.assert_allclose(out, naive_cosine(a, a), atol=1e-6)


def test_cosine_random_matches_naive_oracle():
    gen = Rng(5).generator()
    a = gen.standard_normal((6, 4)).astype(np.float32)
    b = gen.standard_normal((6, 3)).astype(np.float32)
    np.testing.assert_allclose(nm.cosine_matrix(a, b), naive_cosine(a, b), atol=1e-6)


def test_cosine_self_symmetric_unit_diagonal():
    gen = Rng(6).generator()
    for _ in range(50):
        a = gen.standard_normal((8, 5)).astype(np.float32)
        out = nm.cosine_matrix(a, a)
        np.testing.assert_allclose(out, out.T, atol=1e-6)
        np.testing.assert_allclose(np.diag(out), 1.0, atol=1e-6)
        assert np.abs(out).max() <= 1 + 1e-6


def test_cosine_zero_norm_column_names_index():
    a = np.ones((3, 4), dtype=np.float32)
    a[:, 2] = 0.0
    with pytest.raises(NumericError, match="column 2"):
        nm.cosine_matrix(a, a)


# --------------------------------------------------------------------------
# minmax_norm


def test_minmax_affine():
    np.testing.assert_allclose(
        nm.minmax_norm(np.array([2.0, 4.0, 6.0], dtype=np.float32)), [0.0, 0.5, 1.0], atol=0
    )


def test_minmax_constant_maps_to_zero():
    out = nm.minmax_norm(np.array([5.0, 5.0, 5.0], dtype=np.float32))
    assert (out == 0.0).all()


def test_minmax_matches_formula_oracle():
    v = np.array([-1.0, 0.0, 3.0], dtype=np.float32)
    expected = (v - v.min()) / (v.max() - v.min())
    np.testing.assert_allclose(nm.minmax_norm(v), expected, atol=1e-7)
    np.testing.assert_allclose(nm.minmax_norm(v), [0.0, 0.25, 1.0], atol=1e-7)


def test_minmax_idempotent_bitwise():
    gen = Rng(7).generator()
    for _ in range(100):
        v = gen.standard_normal(gen.integers(2, 30)).astype(np.float32)
        once = nm.minmax_norm(v)
        twice = nm.minmax_norm(once)
        assert np.array_equal(once, twice)


def test_minmax_preserves_order():
    gen = Rng(8).generator()
    v = gen.standard_normal(40).astype(np.float32)
    out = nm.minmax_norm(v)
    assert np.array_equal(np.argsort(v, kind="stable"), np.argsort(out, kind="stable"))


def test_minmax_empty_raises():
    with pytest.raises(DataError, match="empty"):
        nm.minmax_norm(np.zeros(0, dtype=np.float32))


# --------------------------------------------------------------------------
# matmul and friends


def test_matmul_identity():
    gen = Rng(9).generator()
    m = gen.standard_normal((4, 4)).astype(np.float32)
    np.testing.assert_array_equal(nm.matmul_unchecked(np.eye(4, dtype=np.float32), m), m)


def test_matmul_matches_triple_loop_oracle():
    gen = Rng(10).generator()
    a = gen.standard_normal((2, 3)).astype(np.float32)
    b = gen.standard_normal((3, 2)).astype(np.float32)
    expected = np.zeros((2, 2))
    for i in range(2):
        for j in range(2):
            for k in range(3):
                expected[i, j] += float(a[i, k]) * float(b[k, j])
    np.testing.assert_allclose(nm.matmul_unchecked(a, b), expected, atol=1e-6)


def test_sigmoid_zero_is_half():
    assert nm.sigmoid_unchecked(np.array([0.0], dtype=np.float32))[0] == pytest.approx(0.5)


def test_sigmoid_open_interval():
    out = nm.sigmoid_unchecked(np.array([-80.0, 80.0], dtype=np.float32))
    assert 0.0 < out[0] < 1.0 and 0.0 < out[1] < 1.0


def test_sigmoid_bytes_equal_two_branch_formula():
    f32 = np.finfo(np.float32)
    gen = Rng(19).generator()
    draws = [scale * gen.standard_normal(500_000).astype(np.float32) for scale in (1, 10, 100, 1000)]
    special = np.array([0.0, -0.0, 100.0, -100.0, 1e30, -1e30, f32.max, -f32.max, f32.tiny, -f32.tiny], np.float32)
    a = np.concatenate(draws + [special]).astype(np.float32)
    x = a.astype(np.float64)
    expected = np.empty_like(x)
    pos = x >= 0
    expected[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    expected[~pos] = ex / (1.0 + ex)
    lo, hi = np.nextafter(np.float32(0), np.float32(1)), np.nextafter(np.float32(1), np.float32(0))
    expected = np.clip(expected.astype(np.float32), lo, hi)
    assert nm.sigmoid_unchecked(a).tobytes() == expected.tobytes()


def test_sigmoid_bytes_equal_the_where_formula():
    # the branch-free numerator against `where` on NaN, signed zeros and
    # infinities, subnormals, saturating values and an MLP-sized draw
    gen = Rng(20).generator()
    a = np.concatenate([SPECIAL_VALUES, 3 * gen.standard_normal(257 * 1024).astype(np.float32)])
    assert nm.sigmoid_unchecked(a).tobytes() == oracle_sigmoid(a).tobytes()
    assert np.isnan(nm.sigmoid_unchecked(SPECIAL_VALUES)[0])


def _float32_pairs(seed):
    """Two float32 vectors: every pair of the special values (NaN, signed
    zeros and infinities, subnormals, the largest finite values), then
    draws of both signs at magnitudes from the subnormals to 3.4e38."""
    f32 = np.finfo(np.float32)
    extremes = np.array([f32.max, -f32.max, f32.tiny, -f32.tiny, f32.smallest_subnormal], np.float32)
    special = np.concatenate([SPECIAL_VALUES, extremes])
    pairs = [grid.ravel() for grid in np.meshgrid(special, special)]
    gen = Rng(seed).generator()
    with np.errstate(over="ignore"):  # a draw past 3.4e38 rounds to an infinity
        draws = [
            (gen.standard_normal(1 << 19) * 10.0 ** gen.uniform(-46, 38.5, 1 << 19)).astype(np.float32) for _ in pairs
        ]
    return [np.concatenate([p, d]) for p, d in zip(pairs, draws)]


@pytest.mark.parametrize("op", [np.multiply, np.add])
def test_float32_product_and_sum_bytes_equal_the_float64_ones_rounded(op):
    # the GELU's product and the encoder's residual adds run in float32:
    # a product of float32 values is exact in float64, and a float64 sum
    # rounded to float32 is the float32 sum (53 >= 2 * 24 + 2 bits)
    a, b = _float32_pairs(21)
    with np.errstate(over="ignore", invalid="ignore"):
        want = op(a, b, dtype=np.float64).astype(np.float32)
        got = op(a, b)
    assert got.dtype == np.float32
    assert got.tobytes() == want.tobytes()


def test_transpose():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
    np.testing.assert_array_equal(nm.transpose(a), a.T)


# --------------------------------------------------------------------------
# determinism and rng


def test_primitives_bit_identical_across_runs():
    gen1 = Rng(55).generator()
    gen2 = Rng(55).generator()
    a1 = gen1.standard_normal((7, 7)).astype(np.float32)
    a2 = gen2.standard_normal((7, 7)).astype(np.float32)
    assert np.array_equal(a1, a2)
    assert nm.matmul_unchecked(a1, a1).tobytes() == nm.matmul_unchecked(a2, a2).tobytes()
    assert nm.softmax_rows(a1).tobytes() == nm.softmax_rows(a2).tobytes()
    assert nm.cosine_matrix(a1, a1).tobytes() == nm.cosine_matrix(a2, a2).tobytes()
    assert nm.minmax_norm(a1).tobytes() == nm.minmax_norm(a2).tobytes()


def test_rng_child_streams_differ_and_reproduce():
    r = Rng(99)
    assert r.child("a").seed == r.child("a").seed
    assert r.child("a").seed != r.child("b").seed
    g1 = r.child("a").generator().standard_normal(5)
    g2 = r.child("a").generator().standard_normal(5)
    assert np.array_equal(g1, g2)
