"""Vectorized mixed-radix FFT as a four-step recursion.

A size ``n`` transform is compiled into a *program*: a list of codelet
sizes whose product is ``n``.  One level of the program splits
``n = n1 * n2`` with ``n1`` its codelet and runs the four-step
algorithm on the whole batch at once:

1. copy-transpose the input to ``(batch, n2, n1)``;
2. apply the ``n1``-point DFT to every row as one matrix product with
   the cached :func:`~repro.fft.dftmat.dft_matrix`;
3. multiply by the ``(n2, n1)`` twiddle table in place;
4. run the ``n2``-point transform on the transposed rows the same way,
   recursively, and write the final transpose into the output.

The last level is a bare codelet product.  Each level costs a handful of
whole-batch passes and a fixed number of numpy calls, whatever the batch.

**Batch independence.**  Every row of the result is bitwise independent
of the batch it was transformed in (its size and the row's position,
one-row batches included): transposes, twiddles and copies are
elementwise, and :func:`~repro.fft.dftmat.apply_codelet` issues every
product as GEMMs whose per-row summation order does not depend on the
row count.  The pipelines rely on this to transform a whole slab in one
call (``tests/fft/test_properties.py::test_batch_rows_independent``).

Radix paths are *policies*: the same size can be factorized
smallest-prime-first, largest-first, or with 2s fused into radix-4 or
radix-8 codelets.  The planner (:mod:`repro.fft.plan`) ranks the policies
by :attr:`StagePlan.flop_estimate` under ``ESTIMATE`` and times them
under ``MEASURE``/``PATIENT``, mirroring FFTW's planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PlanError
from ..util.intmath import prime_factors
from .dftmat import DIRECT_MAX, FORWARD, apply_codelet, dft_matrix, twiddles

#: Factorization policies understood by :func:`radix_path`.
POLICIES = ("small-first", "large-first", "radix4", "radix8")

#: Largest tail merged into one dense base codelet.  Every level costs
#: four whole-batch passes besides its product, and a 16-point product
#: costs little more per point than an 8-point one, so fewer, larger
#: codelets win.
BASE_MAX = 16


def radix_path(n: int, policy: str = "small-first") -> list[int]:
    """Return the sequence of radices used to reduce ``n`` to 1.

    The product of the returned radices equals ``n``.  Raises
    :class:`PlanError` for unknown policies.
    """
    if n < 1:
        raise PlanError(f"FFT size must be >= 1, got {n}")
    factors = prime_factors(n)
    if policy == "small-first":
        return factors
    if policy == "large-first":
        return factors[::-1]
    if policy in ("radix4", "radix8"):
        fuse = 2 if policy == "radix4" else 3
        twos = factors.count(2)
        rest = [f for f in factors if f != 2]
        path: list[int] = []
        while twos >= fuse:
            path.append(1 << fuse)
            twos -= fuse
        path.extend([2] * twos)
        return path + rest
    raise PlanError(f"unknown radix policy {policy!r}; choose from {POLICIES}")


def codelet_program(n: int, policy: str = "small-first") -> list[int]:
    """Codelet sizes, outermost first, that :class:`StagePlan` runs for ``n``.

    Radices are peeled off :func:`radix_path` until the rest is at most
    ``BASE_MAX`` (or is a single radix no larger than ``DIRECT_MAX``); the
    rest becomes one dense base codelet.  ``n == 1`` compiles to the
    empty program.
    """
    program: list[int] = []
    size = n
    for r in radix_path(n, policy):
        if size <= BASE_MAX or (r == size and size <= DIRECT_MAX):
            break
        program.append(r)
        size //= r
    if size > 1:
        program.append(size)
    return program


@dataclass(frozen=True)
class _Level:
    """Precomputed constants for one four-step level."""

    n1: int                 # codelet size applied at this level
    n2: int                 # size of the remaining transform (1 = last)
    w: np.ndarray           # (n1, n1) codelet DFT matrix
    tw: np.ndarray | None   # (n2, n1) twiddle table (None on the last level)


@dataclass
class StagePlan:
    """Precomputed mixed-radix execution plan for one (size, sign, policy).

    ``execute`` transforms the last axis of a ``(..., n)`` array.
    """

    n: int
    sign: int = FORWARD
    policy: str = "small-first"
    program: list[int] = field(init=False)
    levels: list[_Level] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.program = codelet_program(self.n, self.policy)
        levels = []
        size = self.n
        for n1 in self.program:
            n2 = size // n1
            levels.append(_Level(
                n1, n2, dft_matrix(n1, self.sign),
                twiddles(size, n2, self.sign) if n2 > 1 else None,
            ))
            size = n2
        self.levels = levels

    # -- execution -----------------------------------------------------

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Transform the last axis of ``x`` (shape ``(..., n)``).

        Returns a new array; the input is not modified.
        """
        if x.shape[-1] != self.n:
            raise PlanError(
                f"plan is for size {self.n}, input last axis is {x.shape[-1]}"
            )
        flat = np.ascontiguousarray(x, dtype=np.complex128).reshape(-1, self.n)
        out = self._run(flat, 0) if self.levels else flat.copy()
        return out.reshape(x.shape)

    def _run(self, x: np.ndarray, depth: int) -> np.ndarray:
        """Four-step worker on a ``(rows, size)`` array at level ``depth``."""
        lv = self.levels[depth]
        if lv.tw is None:
            return apply_codelet(x, lv.w)
        n1, n2 = lv.n1, lv.n2
        rows = x.shape[0]
        # x[r, j1*n2 + j2] -> t[r, j2, j1]
        t = np.empty((rows, n2, n1), dtype=np.complex128)
        np.copyto(t, x.reshape(rows, n1, n2).transpose(0, 2, 1))
        u = apply_codelet(t.reshape(rows * n2, n1), lv.w).reshape(rows, n2, n1)
        u *= lv.tw
        # u[r, j2, k1] -> t[r, k1, j2]: the n2-point transforms' rows
        t = t.reshape(rows, n1, n2)
        np.copyto(t, u.transpose(0, 2, 1))
        c = self._run(t.reshape(rows * n1, n2), depth + 1)
        # X[r, k1 + n1*k2] = c[r, k1, k2]; u's buffer is free again
        np.copyto(u, c.reshape(rows, n1, n2).transpose(0, 2, 1))
        return u.reshape(rows, n1 * n2)

    # -- cost metadata ---------------------------------------------------

    @property
    def flop_estimate(self) -> float:
        """Real flops of the compiled program for one transform.

        Each level's codelet products cost ``n * n1`` complex
        multiply-adds (8 flops each) and each level but the last
        multiplies all ``n`` points by a twiddle (6 flops each).
        """
        products = sum(8.0 * self.n * n1 for n1 in self.program)
        twiddle = 6.0 * self.n * max(len(self.program) - 1, 0)
        return products + twiddle
