"""Extended-integer scalars and the dense matrix kernels everything else consumes.

Weight matrices are plain float64 ndarrays whose finite entries are integers;
the two infinities are numpy's ``inf``/``-inf``.  ``+inf`` encodes "no edge /
no walk" and ``-inf`` encodes "arbitrarily short" (negative-cycle influence).
Finite values stay far inside the exact-integer range of float64, so every
comparison and sum below is exact.

Boolean matrices are plain bool ndarrays as well: ``bool_product`` and
``bool_closure`` return them, and ``bool_product``'s two operands are bool
arrays wrapped in ``BitMatrix``.  Every cubic stage of a solve runs on one
float32 kernel, ``count_product``: the Boolean products test its counts
> 0, and the two-hop halving and the canonical composites threshold
power-encoded counts.
"""

from __future__ import annotations

import math
import operator

import numpy as np

POS_INF = math.inf
NEG_INF = -math.inf


class VerificationError(RuntimeError):
    """An enabled self-check failed: the input or an internal stage is inconsistent."""


def ext_add(a, b):
    """Add two extended integers; +inf absorbs (a missing edge kills any walk)."""
    if a == POS_INF or b == POS_INF:
        return POS_INF
    if a == NEG_INF or b == NEG_INF:
        return NEG_INF
    return a + b


def ext_ceil_half(a):
    """Round half of ``a`` toward +inf; both infinities are fixed points.

    Works elementwise on ndarrays as well as on scalars.
    """
    return np.ceil(np.asarray(a, dtype=np.float64) / 2.0)


def as_square(matrix, name="matrix"):
    """Coerce to a square float64 ndarray or raise ValueError."""
    out = np.asarray(matrix, dtype=np.float64)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise ValueError(f"{name} must be square, got shape {out.shape}")
    return out


def _conform_square_pair(a, b):
    a = as_square(a, "left operand")
    b = as_square(b, "right operand")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a, b


def minplus_product(a, b):
    """(min, +) product: out[i, j] = min_k ext_add(a[i, k], b[k, j]).  An
    oracle: a solve calls it only with verify on, through is_delta_regular."""
    a, b = _conform_square_pair(a, b)
    n = a.shape[0]
    # inf + (-inf) -> nan under IEEE; only possible when both signs are present
    mixed = ((a == NEG_INF).any() or (b == NEG_INF).any()) and (
        (a == POS_INF).any() or (b == POS_INF).any()
    )
    out = np.empty_like(a)
    with np.errstate(invalid="ignore"):  # the nans are repaired right below
        for i in range(n):
            sums = a[i][:, None] + b
            if mixed:
                sums[np.isnan(sums)] = POS_INF
            out[i] = sums.min(axis=0)
    return out


def bounded_hop_closure(a, hops):
    """Minimum walk weight over at most ``hops`` edges (plus the empty walk).

    Requires the diagonal convention a[i, i] <= 0, under which the k-fold
    (min, +) power of ``a`` equals the <=k-hop optimum.  The exponent is
    honored exactly (square-and-multiply), never rounded up.
    """
    a = as_square(a)
    hops = operator.index(hops)
    if hops < 1:
        raise ValueError(f"hop bound must be >= 1, got {hops}")
    result = None
    base = a
    e = hops
    while True:
        if e & 1:
            result = base if result is None else minplus_product(result, base)
        e >>= 1
        if not e:
            break
        base = minplus_product(base, base)
    if result is a:
        result = a.copy()
    return result


class BitMatrix:
    """A 0/1 operand of ``bool_product``: the bool array ``bits``, not copied
    from a bool input.  Each read of ``words`` packs it into bytes (bit j of
    byte w is column 8*w + j) for the benchmark's tracer, which counts bits."""

    __slots__ = ("bits",)

    def __init__(self, array):
        self.bits = np.asarray(array, dtype=bool)
        if self.bits.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {self.bits.shape}")

    @property
    def words(self) -> np.ndarray:
        return np.packbits(self.bits, axis=1, bitorder="little")


# rows of the left operand per block of a counting product: each block is one
# BLAS call over its own bounding box, and its float32 temporaries stay at
# _BLOCK_ROWS rows however many rows the left operand has
_BLOCK_ROWS = 256


def _column_reach(q):
    """(first, stop) per row of q: its first nonzero column and one past its
    last, or (cols, 0) for an empty row, which then widens no box."""
    rows, cols = q.shape
    if not cols:
        return np.zeros(rows, dtype=np.intp), np.zeros(rows, dtype=np.intp)
    nonzero = q != 0
    first = nonzero.argmax(axis=1)
    stop = cols - nonzero[:, ::-1].argmax(axis=1)
    empty = ~nonzero[np.arange(rows), first]
    first[empty] = cols
    stop[empty] = 0
    return first, stop


def _count_block(left, q, reach, out):
    """out[:] = left @ q for one block of rows, multiplied only over the
    bounding box of the block's nonzero inner indices (those whose row of q is
    nonempty) and of the columns those rows of q reach.  Every skipped term
    is zero, so the box changes no sum.  The BLAS call writes into ``out``
    through slices, so it gathers nothing and allocates no product."""
    first, stop = reach
    used = np.flatnonzero(left.any(axis=0) & (first < stop))
    if not used.size:
        out[:] = 0
        return
    lo, hi = used[0], used[-1] + 1
    col_lo, col_hi = first[lo:hi].min(), stop[lo:hi].max()
    out[:, :col_lo] = 0
    out[:, col_hi:] = 0
    np.matmul(left[:, lo:hi], q[lo:hi, col_lo:col_hi], out=out[:, col_lo:col_hi])


def count_product(p, q) -> np.ndarray:
    """The float32 product p @ q of two nonnegative float32 matrices, one
    block of ``_BLOCK_ROWS`` rows of p at a time, each block a single BLAS
    call over its bounding box (``_count_block``).

    Exactness, in any summation order and for any BLAS and thread count:
    a float32 sum of m nonnegative terms, added in any order, lies within a
    factor 1 +/- gamma of its exact value, gamma = m u / (1 - m u) with
    u = 2^-24.  So a sum is positive iff some term is, and testing > 0 is
    exact.  Callers that encode classes as powers of two (the two-hop
    halving, the canonical composites) keep their classes a factor 4 apart
    and threshold halfway, which that bound keeps exact for m <= 2^21."""
    p = np.asarray(p, dtype=np.float32)
    q = np.asarray(q, dtype=np.float32)
    if p.ndim != 2 or q.ndim != 2 or p.shape[1] != q.shape[0]:
        raise ValueError(f"dimension mismatch: {p.shape} vs {q.shape}")
    reach = _column_reach(q)
    out = np.empty((p.shape[0], q.shape[1]), dtype=np.float32)
    for start in range(0, p.shape[0], _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        _count_block(p[start:stop], q, reach, out[start:stop])
    return out


def bool_product(p: BitMatrix, q: BitMatrix) -> np.ndarray:
    """Boolean matrix product as a C-contiguous bool array: the counts of
    ``count_product``'s block kernel, > 0.  ``p`` is copied one block of
    ``_BLOCK_ROWS`` rows at a time into one reused float32 buffer, and each
    block's counts land in another, so no temporary grows with p's rows."""
    rows, inner = p.bits.shape
    if inner != q.bits.shape[0]:
        raise ValueError(f"dimension mismatch: {inner} vs {q.bits.shape[0]}")
    right = q.bits.astype(np.float32)
    reach = _column_reach(right)
    out = np.empty((rows, right.shape[1]), dtype=bool)
    left = np.empty((min(rows, _BLOCK_ROWS), inner), dtype=np.float32)
    counts = np.empty((left.shape[0], right.shape[1]), dtype=np.float32)
    for start in range(0, rows, _BLOCK_ROWS):
        block = p.bits[start : start + _BLOCK_ROWS]
        size = block.shape[0]
        np.copyto(left[:size], block)
        _count_block(left[:size], right, reach, counts[:size])
        np.greater(counts[:size], 0, out=out[start : start + size])
    return out


def bool_closure(relation) -> np.ndarray:
    """Reflexive-transitive closure of a square bool relation, by repeated
    squaring until the square stops changing."""
    relation = np.asarray(relation, dtype=bool)
    if relation.ndim != 2 or relation.shape[0] != relation.shape[1]:
        raise ValueError(f"closure needs a square matrix, got shape {relation.shape}")
    current = relation | np.eye(relation.shape[0], dtype=bool)
    while True:
        squared = bool_product(BitMatrix(current), BitMatrix(current))
        if np.array_equal(squared, current):
            return current
        current = squared
