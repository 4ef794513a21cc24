"""Bluestein chirp-z transform: FFT of arbitrary (including large prime)
sizes via a power-of-two convolution.

``X[k] = conj(c[k]) * IDFT_M( DFT_M(x*conj(c)) * DFT_M(b) )[k]`` where
``c[j] = exp(-sign*πi*j²/n)`` is the chirp and ``b`` its mirrored
conjugate, zero-padded to a convolution length ``M >= 2n-1`` that is a
power of two.  The inner transforms reuse the radix-4
:class:`~repro.fft.stockham.StagePlan`; every step is elementwise or one
of those transforms, so rows stay independent of the batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import PlanError
from ..util.intmath import next_pow2
from .dftmat import BACKWARD, FORWARD
from .stockham import StagePlan


@dataclass
class BluesteinPlan:
    """Precomputed Bluestein plan for one (size, sign)."""

    n: int
    sign: int = FORWARD
    m: int = field(init=False)
    chirp: np.ndarray = field(init=False, repr=False)
    bhat: np.ndarray = field(init=False, repr=False)
    _fwd: StagePlan = field(init=False, repr=False)
    _bwd: StagePlan = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise PlanError(f"FFT size must be >= 1, got {self.n}")
        if self.sign not in (FORWARD, BACKWARD):
            raise PlanError(f"sign must be -1 or +1, got {self.sign}")
        n = self.n
        self.m = next_pow2(2 * n - 1)
        j = np.arange(n)
        # chirp[j] = exp(sign * pi i j^2 / n); using j^2 mod 2n keeps the
        # argument small for large n (j^2 overflows float precision fast).
        jsq = (j.astype(np.int64) ** 2) % (2 * n)
        self.chirp = np.exp(self.sign * 1j * np.pi / n * jsq)
        b = np.zeros(self.m, dtype=np.complex128)
        b[:n] = np.conj(self.chirp)
        b[self.m - n + 1 :] = np.conj(self.chirp[1:][::-1])
        self._fwd = StagePlan(self.m, FORWARD, "radix4")
        self._bwd = StagePlan(self.m, BACKWARD, "radix4")
        self.bhat = self._fwd.execute(b)

    def execute(self, x: np.ndarray) -> np.ndarray:
        """Transform the last axis of ``x`` (shape ``(..., n)``)."""
        if x.shape[-1] != self.n:
            raise PlanError(
                f"plan is for size {self.n}, input last axis is {x.shape[-1]}"
            )
        lead = x.shape[:-1]
        flat = np.asarray(x, dtype=np.complex128).reshape(-1, self.n)
        a = np.zeros((flat.shape[0], self.m), dtype=np.complex128)
        a[:, : self.n] = flat * self.chirp
        conv = self._bwd.execute(self._fwd.execute(a) * self.bhat) / self.m
        out = conv[:, : self.n] * self.chirp
        return out.reshape(*lead, self.n)

    @property
    def flop_estimate(self) -> float:
        """FLOP estimate: two size-``m`` FFTs plus pointwise work."""
        return 2 * self._fwd.flop_estimate + 6.0 * (self.m + 2 * self.n)
