"""Extended-integer scalars and the dense matrix kernels everything else consumes.

Weight matrices are plain float64 ndarrays whose finite entries are integers;
the two infinities are numpy's ``inf``/``-inf``.  ``+inf`` encodes "no edge /
no walk" and ``-inf`` encodes "arbitrarily short" (negative-cycle influence).
Finite values stay far inside the exact-integer range of float64, so every
comparison and sum below is exact.

Boolean matrices are plain bool ndarrays as well: ``bool_product`` and
``bool_closure`` return them.  Only ``bool_product``'s two operands come
packed, as ``BitMatrix`` bytes.
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
    """A 0/1 operand of ``bool_product``, each row packed by ``np.packbits``
    into bytes (bit j of byte w holds column 8*w + j; padding bits past
    ``cols`` are zero).  Operands stay packed only because the benchmark's
    tracer counts their set bits from ``words``; every result is a plain bool
    array."""

    __slots__ = ("rows", "cols", "words")

    def __init__(self, rows, cols, words):
        self.rows = rows
        self.cols = cols
        self.words = words

    @classmethod
    def from_bool(cls, array) -> "BitMatrix":
        array = np.asarray(array, dtype=bool)
        if array.ndim != 2:
            raise ValueError(f"expected a 2-d array, got shape {array.shape}")
        return cls(*array.shape, np.packbits(array, axis=1, bitorder="little"))

    def to_bool(self) -> np.ndarray:
        bits = np.unpackbits(self.words, axis=1, count=self.cols, bitorder="little")
        return bits.view(bool)


# float32 elements per block of the left operand, so the block and its product
# stay near 16 MiB each however many rows the left operand has
_BLOCK_ELEMENTS = 1 << 22


def bool_product(p: BitMatrix, q: BitMatrix) -> np.ndarray:
    """Boolean matrix product as a C-contiguous (p.rows, q.cols) bool array:
    one float32 BLAS product of the 0/1 matrices per block of ``p``'s rows.
    A float sum of nonnegative terms is positive iff some term is, in any
    order, so ``> 0`` is exact for any BLAS."""
    if p.cols != q.rows:
        raise ValueError(f"dimension mismatch: {p.cols} vs {q.rows}")
    right = q.to_bool().astype(np.float32)
    block = max(1, _BLOCK_ELEMENTS // max(p.cols, q.cols, 1))
    out = np.empty((p.rows, q.cols), dtype=bool)
    for start in range(0, p.rows, block):
        words = p.words[start : start + block]
        left = BitMatrix(words.shape[0], p.cols, words).to_bool().astype(np.float32)
        np.greater(left @ right, 0, out=out[start : start + block])
    return out


def bool_closure(relation) -> np.ndarray:
    """Reflexive-transitive closure of a square bool relation, by repeated
    squaring until the square stops changing."""
    relation = np.asarray(relation, dtype=bool)
    if relation.ndim != 2 or relation.shape[0] != relation.shape[1]:
        raise ValueError(f"closure needs a square matrix, got shape {relation.shape}")
    current = relation | np.eye(relation.shape[0], dtype=bool)
    while True:
        packed = BitMatrix.from_bool(current)
        squared = bool_product(packed, packed)
        if np.array_equal(squared, current):
            return current
        current = squared
