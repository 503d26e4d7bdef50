"""Extended-integer scalars and the dense matrix kernels everything else consumes.

Weight matrices are plain float64 ndarrays whose finite entries are integers;
the two infinities are numpy's ``inf``/``-inf``.  ``+inf`` encodes "no edge /
no walk" and ``-inf`` encodes "arbitrarily short" (negative-cycle influence).
Finite values stay far inside the exact-integer range of float64, so every
comparison and sum below is exact.
"""

from __future__ import annotations

import math
import operator

import numpy as np

POS_INF = math.inf
NEG_INF = -math.inf

_WORD_BITS = 64
# packbits/unpackbits write byte 0 first, so the words are little-endian uint64
_WORD_DTYPE = np.dtype("<u8")


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
    """(min, +) product: out[i, j] = min_k ext_add(a[i, k], b[k, j])."""
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
    """Dense 0/1 matrix with each row packed into 64-bit words (bit j of word
    w holds column 64*w + j).  Padding bits past ``cols`` are always zero."""

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
        rows, cols = array.shape
        nwords = (cols + _WORD_BITS - 1) // _WORD_BITS
        packed = np.packbits(array, axis=1, bitorder="little")
        buffer = np.zeros((rows, nwords * 8), dtype=np.uint8)
        buffer[:, : packed.shape[1]] = packed
        return cls(rows, cols, buffer.view(_WORD_DTYPE))

    def to_bool(self) -> np.ndarray:
        as_bytes = np.ascontiguousarray(self.words, dtype=_WORD_DTYPE).view(np.uint8)
        bits = np.unpackbits(as_bytes, axis=1, bitorder="little")
        return bits[:, : self.cols].view(bool)

    def __eq__(self, other):
        if not isinstance(other, BitMatrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and np.array_equal(self.words, other.words)
        )

    __hash__ = None

    def __repr__(self):
        return f"BitMatrix({self.rows}x{self.cols})"


# float32 elements per block of the left operand, so the block and its product
# stay near 16 MiB each however many rows the left operand has
_BLOCK_ELEMENTS = 1 << 22


def bool_product(p: BitMatrix, q: BitMatrix) -> BitMatrix:
    """Boolean matrix product: one float32 BLAS product of the 0/1 matrices
    per block of ``p``'s rows.  A float sum of nonnegative terms is positive
    iff some term is, in any order, so ``> 0`` is exact for any BLAS."""
    if p.cols != q.rows:
        raise ValueError(f"dimension mismatch: {p.cols} vs {q.rows}")
    right = q.to_bool().astype(np.float32)
    block = max(1, _BLOCK_ELEMENTS // max(p.cols, q.cols, 1))
    out = np.empty((p.rows, q.words.shape[1]), dtype=_WORD_DTYPE)
    for start in range(0, p.rows, block):
        words = p.words[start : start + block]
        left = BitMatrix(words.shape[0], p.cols, words).to_bool().astype(np.float32)
        out[start : start + block] = BitMatrix.from_bool(left @ right > 0).words
    return BitMatrix(p.rows, q.cols, out)


def bool_closure(p: BitMatrix) -> BitMatrix:
    """Reflexive-transitive closure of a square 0/1 relation (repeated squaring)."""
    if p.rows != p.cols:
        raise ValueError(f"closure needs a square matrix, got {p.rows}x{p.cols}")
    current = BitMatrix.from_bool(p.to_bool() | np.eye(p.rows, dtype=bool))
    while True:
        squared = bool_product(current, current)
        if squared == current:
            return current
        current = squared
