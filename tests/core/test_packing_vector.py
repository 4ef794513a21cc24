"""Whole-slab FFT + FFT-free movers vs the blocked reference walks.

The pipelines run FFTy (FFTx) as one :class:`repro.fft.Plan1D` call over
the whole tile and let :func:`ffty_pack_real` / :func:`unpack_fftx_real`
only move data.  The result must be *element-identical* (bitwise, not
approximately equal) to the Algorithm 2/3 sub-tile walks, which call the
kernel once per ``Px x Pz`` (``Uy x Uz``) sub-tile.  That holds because
every kernel family is bitwise batch-independent — a row's transform does
not depend on which rows share its call, one-row calls included
(``tests/fft/test_properties.py::test_batch_rows_independent``) — and
these tests pin it through the real kernels and movers.
"""

import numpy as np
import pytest

from repro.core.packing import (
    ffty_pack_real,
    ffty_pack_real_subtiled,
    unpack_fftx_real,
    unpack_fftx_real_subtiled,
)
from repro.fft.plan import Plan1D

RNG = np.random.default_rng(11)


def _tile(shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def _fft(n):
    plan = Plan1D(n)
    return lambda a: plan.execute(a, axis=-1)


@pytest.mark.parametrize("px,pz", [(1, 1), (2, 3), (3, 2), (100, 100)])
@pytest.mark.parametrize("layout", ["zxy", "xzy"])
def test_pack_identical_to_subtiled(px, pz, layout):
    tz, nxl, ny = 5, 4, 12
    shape = (tz, nxl, ny) if layout == "zxy" else (nxl, tz, ny)
    tile = _tile(shape)
    y_counts = [5, 4, 3]
    ffty = _fft(ny)
    got = ffty_pack_real(ffty(tile), y_counts, layout)
    ref = ffty_pack_real_subtiled(tile, ffty, y_counts, px, pz, layout)
    assert len(got) == len(ref)
    for g, r in zip(got, ref):
        assert g.shape == r.shape
        assert np.array_equal(g, r)  # bitwise, no tolerance


@pytest.mark.parametrize("n", [8, 12, 13, 30])  # radix-2, mixed, prime, mixed
def test_pack_identical_across_kernel_types(n):
    # Every kernel family (direct, mixed-radix, Bluestein) must come out
    # bitwise equal: the whole tile in one call against one-row calls
    # (1 x 1 sub-tiles).
    tile = _tile((3, 2, n))
    ffty = _fft(n)
    got = ffty_pack_real(ffty(tile), [n], "zxy")
    ref = ffty_pack_real_subtiled(tile, ffty, [n], 1, 1, "zxy")
    assert np.array_equal(got[0], ref[0])


@pytest.mark.parametrize("uy,uz", [(1, 1), (2, 2), (3, 5), (64, 64)])
@pytest.mark.parametrize("layout", ["zyx", "yzx"])
def test_unpack_identical_to_subtiled(uy, uz, layout):
    tz, nyl = 4, 5
    x_counts = [3, 2, 4]
    nx = sum(x_counts)
    chunks = [_tile((tz, nxl_s, nyl)) for nxl_s in x_counts]
    fftx = _fft(nx)
    out = np.empty((tz, nyl, nx) if layout == "zyx" else (nyl, tz, nx),
                   dtype=np.complex128)
    got = fftx(unpack_fftx_real(chunks, x_counts, out, layout))
    ref = unpack_fftx_real_subtiled(chunks, fftx, x_counts, nyl, uy, uz, layout)
    assert np.array_equal(got, ref)  # bitwise, no tolerance


def test_pack_remainder_subtiles():
    # Extents that px/pz do not divide: the reference walks edge and
    # corner sub-tiles; results must still match bitwise.
    tz, nxl, ny = 7, 5, 10
    tile = _tile((tz, nxl, ny))
    ffty = _fft(ny)
    got = ffty_pack_real(ffty(tile), [7, 3], "zxy")
    ref = ffty_pack_real_subtiled(tile, ffty, [7, 3], 3, 4, "zxy")
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)
