"""Dense DFT matrices and direct O(n^2) transforms.

These are the "codelets" of the mixed-radix kernel: every level of the
four-step recursion applies one small DFT to a whole batch as a single
matrix product against a precomputed DFT matrix, which is both exact and
fast in NumPy for the sizes (2, 3, 4, 5, 8, ...) that appear as radices.
"""

from __future__ import annotations

import functools

import numpy as np

FORWARD = -1
BACKWARD = +1

#: Largest size for which the planner will consider a direct dense DFT.
DIRECT_MAX = 64

#: Multiply-adds per BLAS call in :func:`apply_codelet`.  OpenBLAS runs
#: a GEMM of 2**16 multiply-adds or more on all cores; for products this
#: small the thread hand-off costs more than the arithmetic, and on an
#: oversubscribed host one call can stall for milliseconds.
BLOCK_MACS = 1 << 15


@functools.lru_cache(maxsize=None)
def dft_matrix(n: int, sign: int) -> np.ndarray:
    """Return the dense DFT matrix ``W`` with ``W[k, j] = exp(sign*2πi*k*j/n)``.

    ``sign=-1`` (:data:`FORWARD`) gives the forward transform in the
    paper's Equation 1; ``sign=+1`` the unnormalized inverse.  The result
    is cached and must not be mutated by callers.
    """
    if n < 1:
        raise ValueError(f"DFT size must be >= 1, got {n}")
    if sign not in (FORWARD, BACKWARD):
        raise ValueError(f"sign must be -1 or +1, got {sign}")
    k = np.arange(n)
    w = np.exp(sign * 2j * np.pi / n * np.outer(k, k))
    w.flags.writeable = False
    return w


def apply_codelet(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for a ``(rows, k)`` batch and a ``(k, k)`` codelet matrix.

    Every output row is bitwise independent of ``rows`` and of the row's
    position in the batch: each BLAS call is a GEMM of at least two and at
    most ``BLOCK_MACS // k**2`` rows (a one-row product would take the
    GEMV routine, which sums in a different order, so a single row is
    computed beside a copy of itself).  Rows past the last full block are
    covered by recomputing the final block, which gives the overlapped
    rows the same bits again.
    """
    rows, k = x.shape
    if rows == 1:
        return (np.concatenate((x, x)) @ w)[:1]
    block = max(2, BLOCK_MACS // (k * k))
    if rows <= block:
        return x @ w
    full = rows - rows % block
    out = np.empty((rows, k), dtype=np.complex128)
    np.matmul(
        x[:full].reshape(-1, block, k), w, out=out[:full].reshape(-1, block, k)
    )
    if full < rows:
        out[-block:] = x[-block:] @ w
    return out


def direct_dft(x: np.ndarray, sign: int = FORWARD) -> np.ndarray:
    """Direct dense DFT along the last axis (any size, O(n^2)).

    Used as the recursion base case and as an oracle in tests.
    """
    n = x.shape[-1]
    return x @ dft_matrix(n, sign).T


@functools.lru_cache(maxsize=None)
def twiddles(n: int, r: int, sign: int) -> np.ndarray:
    """Twiddle factor table for a radix-``r`` Cooley-Tukey stage of size ``n``.

    Shape ``(r, n // r)`` with ``tw[s, j] = exp(sign*2πi*s*j/n)``.  Cached;
    callers must treat the array as read-only.
    """
    if n % r != 0:
        raise ValueError(f"radix {r} does not divide {n}")
    m = n // r
    s = np.arange(r)[:, None]
    j = np.arange(m)[None, :]
    tw = np.exp(sign * 2j * np.pi / n * (s * j))
    tw.flags.writeable = False
    return tw
