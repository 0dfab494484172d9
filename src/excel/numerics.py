"""Deterministic float32 array primitives shared by every stage.

Arrays are plain numpy ndarrays in C (row-major) order with float32
storage. Every reduction or product accumulates in float64 and rounds
back to float32 once. Every matrix product here and in the encoder and
CAM stages is float64 `@` (BLAS); the relation adapter's passes and
AdamW (`dynamic_calibration`, `training_eval`) run in the dtype of the
adapter's tensors, float32 `@` for the pipeline's adapter. What is
tested is that outputs are byte-identical across runs and across 1 or 2
BLAS/OpenMP threads on one machine, at T=17 and at T=257 tokens; equal
bits across CPUs are not promised. -inf is admitted only as the masking sentinel of relation
matrices fed to softmax_rows; NaN and +inf are rejected at every checked
boundary. The `*_unchecked` functions skip that input check for the
encoder's hot loops, which check what they compute instead.

The attention kernels (`softmax_rows_unchecked` and the encoder's
`_attention` and `_head_attention`), the logistic, the GELU and the
encoder's residual adds call no ufunc that mixes float32 and float64
operands (a float32 operand or output with `dtype=np.float64`): numpy
runs such a call through its buffered casting loop, several times slower
than a same-dtype loop. They widen with `np.copyto` and work in place in
one dtype instead. A float32 operation stands in for a float64 one
rounded to float32 only where the bits are the same: the GELU's product,
which is exact in float64; the residual sums; and the attention logits,
scaled in float32 when sqrt(D_s) is exact in float32 (D_s = 4, 9, 16,
64; not 8). A float64 sum or quotient of float32 operands rounds to the
float32 one, since 53 >= 2 * 24 + 2 bits (Figueroa 1995).
"""

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DataError, NumericError
from .hashing import fnv1a64

F32 = np.float32
NEG_INF = np.float32(-np.inf)


def as_f32(x, name: str = "array", allow_neg_inf: bool = False) -> np.ndarray:
    """Validate and return a C-contiguous float32 view of `x`."""
    arr = np.ascontiguousarray(x, dtype=F32)
    bad = ~np.isfinite(arr)
    if allow_neg_inf:
        bad &= ~np.isneginf(arr)
    if bad.any():
        raise NumericError(f"{name} contains non-finite values")
    return arr


def matmul_unchecked(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with float64 accumulation and no input check, for
    callers that check the finiteness of what they compute from the
    result. Operands may be transposed views or (H, ., .) stacks."""
    return (a.astype(np.float64) @ b.astype(np.float64)).astype(F32)


def openblas_threads():
    """The (get, set) thread-count functions of the OpenBLAS that numpy's
    products run on, or None where numpy's build information names
    another BLAS or the functions are not found. The names follow the
    build: `scipy_openblas_set_num_threads64_` for numpy's bundled 64-bit
    scipy-openblas, `openblas_set_num_threads` for a plain OpenBLAS."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        prefix = "scipy_" if blas["name"].startswith("scipy-") else ""
        suffix = "64_" if "USE64BITINT" in blas.get("openblas configuration", "") else ""
        # the BLAS is a dependency of numpy's core extension, so its symbols
        # resolve through that library's handle
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        get, set_ = (getattr(lib, f"{prefix}openblas_{op}_num_threads{suffix}") for op in ("get", "set"))
    except (AttributeError, KeyError, OSError, TypeError):  # another BLAS, an older numpy, no build information
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextmanager
def one_blas_thread():
    """Hold OpenBLAS to one thread inside the block and restore its count
    on leaving, also on a raise; nothing changes where `openblas_threads`
    finds no functions. Output bytes do not depend on the count."""
    calls = openblas_threads()
    if calls is None:
        yield
        return
    get, set_ = calls
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def transpose(a) -> np.ndarray:
    a = as_f32(a, "transpose input")
    return np.ascontiguousarray(a.T)


_SIGMOID_LO = np.nextafter(np.float32(0.0), np.float32(1.0))
_SIGMOID_HI = np.nextafter(np.float32(1.0), np.float32(0.0))


def sigmoid_unchecked(a: np.ndarray) -> np.ndarray:
    """Numerically stable elementwise logistic function, without a
    finiteness check.

    Outputs stay strictly inside (0, 1): saturated values clamp to the
    nearest representable float32 neighbors of 0 and 1.
    """
    x = a.astype(np.float64)
    # 1 / (1 + exp(-x)) for x >= 0, exp(x) / (1 + exp(x)) below; e <= 1
    # cannot overflow. The steps run in place where they can.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    # the numerator without a branch: max(x >= 0, e) is 1 where x >= 0
    # and e below it, since e <= 1, and NaN where e is NaN
    np.greater_equal(x, 0.0, out=x)
    np.maximum(x, e, out=x)
    e += 1.0
    x /= e
    out = x.astype(F32)
    return np.clip(out, _SIGMOID_LO, _SIGMOID_HI, out=out)


def softmax_rows(m) -> np.ndarray:
    """Row-wise softmax with per-row max subtraction.

    -inf entries are masking sentinels and map to exactly 0. A row that is
    entirely -inf has no admissible distribution and raises.
    """
    m = as_f32(m, "softmax input", allow_neg_inf=True)
    if m.ndim != 2:
        raise DataError(f"softmax_rows expects a matrix, got shape {m.shape}")
    return softmax_rows_unchecked(m)


def softmax_rows_unchecked(
    m: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
) -> np.ndarray:
    """`softmax_rows` over the last axis of a float32 matrix or stack of
    matrices, without the finiteness check; an all -inf row still raises.
    Works in place on one float64 copy of `m`: `work`, a float64 array of
    m's shape, when given. The float32 result is written to `out`, an
    array of m's shape (it may be `m`), or to a new array."""
    # the float32 row max is the float64 copy's, since widening is exact
    row_max = np.max(m, axis=-1, keepdims=True)
    dead = np.isneginf(row_max)
    if dead.any():
        raise NumericError(f"degenerate attention row {int(np.argmax(dead)) % m.shape[-2]}")
    x = np.empty(m.shape, np.float64) if work is None else work
    np.copyto(x, m)
    x -= row_max.astype(np.float64)
    np.exp(x, out=x)  # exp(-inf) == 0 exactly
    x /= x.sum(axis=-1, keepdims=True)
    out = np.empty(m.shape, F32) if out is None else out
    np.copyto(out, x)
    return out


def cosine_matrix(a, b) -> np.ndarray:
    """Pairwise cosine similarity between columns of `a` (d x n) and `b` (d x m)."""
    a = as_f32(a, "cosine lhs")
    b = as_f32(b, "cosine rhs")
    if a.ndim != 2 or b.ndim != 2 or a.shape[0] != b.shape[0]:
        raise DataError(f"cosine shape mismatch: {a.shape} vs {b.shape}")
    a64 = a.astype(np.float64)
    b64 = b.astype(np.float64)
    na = np.sqrt(np.einsum("di,di->i", a64, a64))
    nb = np.sqrt(np.einsum("dj,dj->j", b64, b64))
    for side, norms in (("lhs", na), ("rhs", nb)):
        if norms.min(initial=np.inf) < 1e-12:
            raise NumericError(f"zero-norm column {int(np.argmin(norms))} in cosine {side}")
    sim = (a64 / na).T @ (b64 / nb)
    return sim.astype(F32)


def minmax_norm(v) -> np.ndarray:
    """Affine rescale to [0, 1]; a constant input maps to all zeros."""
    v = as_f32(v, "minmax input")
    if v.size == 0:
        raise DataError("minmax_norm: empty input")
    x = v.astype(np.float64)
    lo = x.min()
    hi = x.max()
    if hi == lo:
        return np.zeros_like(v)
    return ((x - lo) / (hi - lo)).astype(F32)


@dataclass(frozen=True)
class Rng:
    """Named deterministic random stream.

    Wraps numpy's PCG64 bit generator, whose stream for a given seed is
    pinned across platforms and numpy releases. `child` derives an
    independent substream from a tag, so separate pipeline stages never
    share or reorder draws.
    """

    seed: int

    def __post_init__(self):
        object.__setattr__(self, "seed", int(self.seed) & 0xFFFFFFFFFFFFFFFF)

    def generator(self) -> np.random.Generator:
        """Fresh generator at the start of this stream."""
        return np.random.Generator(np.random.PCG64(self.seed))

    def child(self, tag: str) -> "Rng":
        return Rng(seed=fnv1a64(f"{self.seed}:{tag}".encode("utf-8")))
