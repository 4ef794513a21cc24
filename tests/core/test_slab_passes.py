"""Whole-slab FFT passes equal the per-sub-tile walk, bitwise.

The real-payload pipelines run FFTy and FFTx as one kernel call over each
rank's slab and let the per-tile Pack/Unpack only move data.  Here the
assembled spectrum of every pipeline is compared, with no tolerance,
against a serial re-run of Algorithms 1-3 built on the ``_subtiled``
walks: per tile, one kernel call per ``Px x Pz`` / ``Uy x Uz`` sub-tile,
the all-to-all done by hand.
"""

import numpy as np
import pytest

from repro.core import ProblemShape, run_case
from repro.core.decompose import Decomposition, gather_spectrum, scatter_slabs
from repro.core.multiarray import MODES, run_multi_array
from repro.core.packing import ffty_pack_real_subtiled, unpack_fftx_real_subtiled
from repro.core.params import default_params
from repro.core.variants import FFTW_BASELINE, NEW, baseline_params, get_variant
from repro.fft.plan import Plan1D
from repro.fft.transpose import xyz_to_xzy, xyz_to_zxy
from repro.machine import UMD_CLUSTER

RNG = np.random.default_rng(5)


def _signal(shape):
    return RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)


def subtiled_spectrum(spec, shape, params, a):
    """The spectrum the pipeline computed before whole-slab passes."""
    params = spec.effective_params(params, shape)
    nx, ny, nz, p = shape.nx, shape.ny, shape.nz, shape.p
    decs = [Decomposition(nx, ny, nz, p, r) for r in range(p)]
    fast = spec.fast_transpose and nx == ny
    tile_layout, out_layout = ("xzy", "yzx") if fast else ("zxy", "zyx")
    zplan, yplan, xplan = Plan1D(nz), Plan1D(ny), Plan1D(nx)
    ffty = lambda t: yplan.execute(t, axis=-1)  # noqa: E731
    fftx = lambda t: xplan.execute(t, axis=-1)  # noqa: E731
    data = []
    for block in scatter_slabs(a, p):
        d = zplan.execute(block, axis=2)
        data.append(xyz_to_xzy(d) if fast else xyz_to_zxy(d))
    outs = [
        np.empty((nz, dec.nyl, nx) if out_layout == "zyx" else (dec.nyl, nz, nx),
                 dtype=np.complex128)
        for dec in decs
    ]
    for z0, z1 in decs[0].tile_ranges(params.T):
        tz = z1 - z0
        sent = []
        for r, dec in enumerate(decs):
            tile = data[r][z0:z1] if tile_layout == "zxy" else data[r][:, z0:z1]
            px, pz = (params.Px, params.Pz) if spec.tiled_pack else (dec.nxl, tz)
            sent.append(ffty_pack_real_subtiled(
                tile, ffty, dec.y_counts, px, pz, tile_layout))
        for d, dec in enumerate(decs):
            uy, uz = (params.Uy, params.Uz) if spec.tiled_pack else (dec.nyl, tz)
            tile_out = unpack_fftx_real_subtiled(
                [sent[s][d] for s in range(p)], fftx, dec.x_counts, dec.nyl,
                uy, uz, out_layout)
            if out_layout == "zyx":
                outs[d][z0:z1] = tile_out
            else:
                outs[d][:, z0:z1] = tile_out
    return gather_spectrum(outs, (nx, ny, nz), out_layout)


#: (nx, ny, nz, p): Nx == Ny takes NEW/FFTW's x-z-y layout, Nx != Ny the
#: z-x-y one; sizes reach the direct, four-step and Bluestein kernels
SHAPES = [
    (32, 32, 24, 4),   # xzy for NEW/FFTW; mixed-radix kernels
    (24, 32, 16, 4),   # zxy everywhere; uneven tiles
    (16, 67, 8, 2),    # prime ny: Bluestein FFTy
    (12, 12, 10, 3),   # direct kernels, uneven slabs
]


@pytest.mark.parametrize("dims", SHAPES)
@pytest.mark.parametrize("variant", ["NEW", "TH", "FFTW"])
def test_pipeline_equals_subtiled_walk(variant, dims):
    shape = ProblemShape(*dims)
    spec = get_variant(variant)
    params = baseline_params(spec, shape)
    a = _signal(dims[:3])
    _, got = run_case(variant, UMD_CLUSTER, shape, params, global_array=a)
    assert np.array_equal(got, subtiled_spectrum(spec, shape, params, a))


@pytest.mark.parametrize("dims", [(16, 16, 12, 4), (12, 16, 10, 2)])
@pytest.mark.parametrize("variant", ["NEW", "FFTW"])
def test_one_row_subtiles(variant, dims):
    # Px = Pz = Uy = Uz = 1: the walk calls the kernels on one row at a
    # time, the pipeline on the whole slab.
    shape = ProblemShape(*dims)
    spec = get_variant(variant)
    params = baseline_params(spec, shape).replace(Px=1, Pz=1, Uy=1, Uz=1)
    a = _signal(dims[:3])
    _, got = run_case(variant, UMD_CLUSTER, shape, params, global_array=a)
    assert np.array_equal(got, subtiled_spectrum(spec, shape, params, a))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("dims", [(16, 16, 16, 4), (12, 16, 8, 2)])
def test_multiarray_equals_subtiled_walk(mode, dims):
    shape = ProblemShape(*dims)
    params = default_params(shape).replace(Px=1, Pz=1)
    arrays = [_signal(dims[:3]) for _ in range(3)]
    _, spectra = run_multi_array(UMD_CLUSTER, shape, 3, mode, params, arrays)
    spec = FFTW_BASELINE if mode in ("sequential", "inter") else NEW
    if mode == "inter":
        params = params.replace(T=shape.nz)
    for a, got in zip(arrays, spectra):
        assert np.array_equal(got, subtiled_spectrum(spec, shape, params, a))
