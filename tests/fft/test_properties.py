"""Hypothesis property tests for the FFT substrate's mathematical
invariants (beyond point comparisons against numpy)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fft import BACKWARD, FORWARD, Plan1D, fft, ifft
from repro.fft.dftmat import DIRECT_MAX
from repro.fft.plan import _cached_kernel
from repro.fft.stockham import POLICIES
from repro.util.intmath import prime_factors

sizes = st.integers(1, 256)


def signal(rng_seed: int, batch: int, n: int) -> np.ndarray:
    rng = np.random.default_rng(rng_seed)
    return rng.standard_normal((batch, n)) + 1j * rng.standard_normal((batch, n))


@given(sizes, st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_roundtrip_identity(n, seed):
    x = signal(seed, 2, n)
    assert np.allclose(ifft(fft(x)), x, atol=1e-8 * max(n, 8))


@given(sizes, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_linearity(n, seed):
    x = signal(seed, 1, n)
    y = signal(seed + 1, 1, n)
    a, b = 2.5, -1.5 + 0.5j
    lhs = fft(a * x + b * y)
    rhs = a * fft(x) + b * fft(y)
    assert np.allclose(lhs, rhs, atol=1e-8 * max(n, 8))


@given(sizes, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_parseval_energy(n, seed):
    x = signal(seed, 1, n)
    X = fft(x)
    assert np.isclose(
        np.sum(np.abs(X) ** 2), n * np.sum(np.abs(x) ** 2), rtol=1e-7
    )


@given(sizes, st.integers(0, 2**31 - 1), st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_shift_theorem(n, seed, shift):
    """fft(roll(x, s))[k] = fft(x)[k] * exp(-2*pi*i*k*s/n)."""
    x = signal(seed, 1, n)
    s = shift % n
    lhs = fft(np.roll(x, s, axis=-1))
    k = np.arange(n)
    rhs = fft(x) * np.exp(-2j * np.pi * k * s / n)
    assert np.allclose(lhs, rhs, atol=1e-7 * max(n, 8))


@given(sizes, st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_conjugate_symmetry_for_real_input(n, seed):
    """Real input -> Hermitian spectrum: X[k] = conj(X[n-k])."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((1, n))
    X = fft(x)[0]
    rev = np.conj(X[(-np.arange(n)) % n])
    assert np.allclose(X, rev, atol=1e-8 * max(n, 8))


@given(sizes)
@settings(max_examples=30, deadline=None)
def test_forward_backward_matrices_inverse(n):
    """Plan(FORWARD) followed by Plan(BACKWARD)/n is the identity on a
    basis impulse at every position (stronger than random vectors)."""
    fwd = Plan1D(n, FORWARD)
    bwd = Plan1D(n, BACKWARD)
    eye = np.eye(n, dtype=np.complex128)
    back = bwd.execute(fwd.execute(eye)) / n
    assert np.allclose(back, eye, atol=1e-8 * max(n, 8))


def every_kernel(n: int):
    """One kernel of each family for size ``n``: direct, every mixed-radix
    policy, Bluestein (whether or not the planner would offer it)."""
    names = ["direct"] + [f"mixed:{p}" for p in POLICIES] + ["bluestein"]
    if max(prime_factors(n), default=1) > DIRECT_MAX:
        names = [d for d in names if not d.startswith("mixed:")]
    return [(d, _cached_kernel(d, n, FORWARD)) for d in names]


@given(
    st.integers(1, 70),
    st.sampled_from([1, 2, 3, 6, 65, 300]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=30, deadline=None)
def test_batch_rows_independent(n, batch, seed):
    """Transforming a batch equals transforming each row separately,
    bitwise, for every kernel family and one-row batches included: the
    property that lets the pipelines transform a whole slab in one call."""
    x = signal(seed, batch, n)
    rows = range(batch) if batch <= 6 else (0, 1, batch // 2, batch - 1)
    kernels = every_kernel(n) + [("plan", Plan1D(n))]
    for name, kern in kernels:
        whole = kern.execute(x)
        for i in rows:
            assert np.array_equal(kern.execute(x[i : i + 1])[0], whole[i]), (
                name, i)
        # the same rows at other positions of a smaller batch
        assert np.array_equal(kern.execute(x[1:]), whole[1:]), name
