"""Pack/Unpack with loop tiling (Section 3.4, Algorithms 2-3).

Each communication tile is processed in *sub-tiles*: FFTy runs on a
``Px x Ny x Pz`` block and Pack immediately scatters that block into the
per-destination send chunks while it is still cache-resident; Unpack
writes a ``Nx x Uy x Uz`` block into the output layout and FFTx consumes
it likewise.  Three things live here:

* closed-form cost functions charging the machine model for that walk —
  grouped by sub-tile size class so simulator cost is O(1) per tile,
  not O(#sub-tiles), which keeps huge parameter sweeps cheap;
* the *real* data movement (numpy) used in real-payload mode.  The 1-D
  kernels are bitwise batch-independent, so the pipelines run FFTy and
  FFTx as one call per rank over the whole slab and these movers only
  copy (one strided copy per peer and tile);
* the sub-tile walks themselves (``*_subtiled``), FFT calls included,
  kept as the oracles the movers and pipelines are pinned against.

Chunk wire format: the message from rank s to rank d for one tile is a
``(tz, nxl_s, nyl_d)`` complex array in z-x-y order, independent of the
transpose variant in use — both ends agree by construction.
"""

from __future__ import annotations

import numpy as np

from ..errors import ParameterError
from ..machine.cpu import CpuModel
from ..util.intmath import iter_blocks

ITEMSIZE = 16  # complex128


def subtile_classes(
    total_a: int, block_a: int, total_b: int, block_b: int
) -> list[tuple[int, int, int]]:
    """Group the 2-D sub-tile grid by size: ``(count, a_extent, b_extent)``.

    A ``total_a x total_b`` region cut into ``block_a x block_b`` blocks
    yields at most four distinct block shapes (interior, two edges, one
    corner); costs are per-class so the model never loops over blocks.
    """
    if block_a < 1 or block_b < 1:
        raise ParameterError(f"sub-tile extents must be >= 1, got {block_a}x{block_b}")
    fa, ra = divmod(total_a, block_a)
    fb, rb = divmod(total_b, block_b)
    classes = []
    if fa and fb:
        classes.append((fa * fb, block_a, block_b))
    if fa and rb:
        classes.append((fa, block_a, rb))
    if ra and fb:
        classes.append((fb, ra, block_b))
    if ra and rb:
        classes.append((1, ra, rb))
    return classes


# --------------------------------------------------------------------------
# cost model
# --------------------------------------------------------------------------


def pack_cost(
    cpu: CpuModel, nxl: int, ny: int, tz: int, px: int, pz: int
) -> float:
    """Seconds for the Pack half of Algorithm 2 on one tile.

    Working set per sub-tile is ``px * ny * pz`` elements (the block FFTy
    just produced); residency against the private cache decides the copy
    bandwidth, and every sub-tile pays the fixed loop overhead.
    """
    total = 0.0
    for count, bx, bz in subtile_classes(nxl, px, tz, pz):
        ws = bx * ny * bz * ITEMSIZE
        total += count * cpu.pack_subtile_time(ws)
    return total


def unpack_cost(
    cpu: CpuModel, nx: int, nyl: int, tz: int, uy: int, uz: int
) -> float:
    """Seconds for the Unpack half of Algorithm 3 on one tile
    (sub-tiles span the full x extent: ``nx * uy * uz`` elements)."""
    total = 0.0
    for count, by, bz in subtile_classes(nyl, uy, tz, uz):
        ws = nx * by * bz * ITEMSIZE
        total += count * cpu.pack_subtile_time(ws)
    return total


def untiled_copy_cost(cpu: CpuModel, nbytes: int) -> float:
    """Whole-tile copy with no tiling (the TH baseline): always
    memory-bound, single loop iteration."""
    return cpu.copy_time(nbytes, resident=False) + cpu.loop_overhead


# ----------------------------------------------------------------------------
# real data movement
# ----------------------------------------------------------------------------


def ffty_pack_real(
    tile: np.ndarray,
    y_counts: list[int],
    layout: str,
) -> list[np.ndarray]:
    """Pack one tile whose rows FFTy already transformed (Algorithm 2's
    data movement), returning per-dest chunks.

    ``tile`` is the communication tile in the post-Transpose layout:
    ``(tz, nxl, ny)`` for ``"zxy"`` or ``(nxl, tz, ny)`` for ``"xzy"``.

    The pipelines run FFTy once over the whole slab before the tile loop
    (one kernel call per rank instead of one per ``Px x Pz`` sub-tile).
    That is exact because the kernels are bitwise batch-independent:
    each row's transform does not depend on which rows share its call.
    The ``Px x Pz`` sub-tile walk therefore shapes only the cost model
    (:func:`pack_cost`); the mover carves each destination's chunk out
    of the tile with one strided copy.  Element-identity with the
    sub-tile walk :func:`ffty_pack_real_subtiled` is pinned bitwise by
    tests/core/test_packing_vector.py and, through the whole pipeline,
    by tests/core/test_slab_passes.py.
    """
    if layout == "zxy":
        zxy = tile
    elif layout == "xzy":
        zxy = tile.transpose(1, 0, 2)  # x-z-y tile -> (z, x, y) chunk order
    else:
        raise ParameterError(f"unknown tile layout {layout!r}")
    if sum(y_counts) != zxy.shape[2]:
        raise ParameterError("y_counts must sum to the tile's y extent")
    chunks = []
    ys = 0
    for nyl_d in y_counts:
        chunks.append(np.ascontiguousarray(zxy[:, :, ys : ys + nyl_d]))
        ys += nyl_d
    return chunks


def ffty_pack_real_subtiled(
    tile: np.ndarray,
    ffty,
    y_counts: list[int],
    px: int,
    pz: int,
    layout: str,
) -> list[np.ndarray]:
    """Blocked reference implementation of FFTy + :func:`ffty_pack_real`.

    Walks ``px`` x ``pz`` sub-tiles the way Algorithm 2 does on real
    hardware, calling ``ffty`` (a callable transforming the last axis)
    once per sub-tile on the untransformed ``tile``; kept as the oracle
    the whole-slab FFTy plus mover is compared against (and as executable
    documentation of the loop structure the cost model charges).
    """
    if layout == "zxy":
        tz, nxl, ny = tile.shape
    elif layout == "xzy":
        nxl, tz, ny = tile.shape
    else:
        raise ParameterError(f"unknown tile layout {layout!r}")
    if sum(y_counts) != ny:
        raise ParameterError("y_counts must sum to the tile's y extent")
    chunks = [
        np.empty((tz, nxl, nyl_d), dtype=np.complex128) for nyl_d in y_counts
    ]
    y_starts = np.concatenate([[0], np.cumsum(y_counts)])
    for x0, x1 in iter_blocks(nxl, px):
        for z0, z1 in iter_blocks(tz, pz):
            if layout == "zxy":
                block = ffty(tile[z0:z1, x0:x1, :])
            else:
                # x-z-y tile: bring the block to (z, x, y) chunk order.
                block = ffty(tile[x0:x1, z0:z1, :]).transpose(1, 0, 2)
            for d, nyl_d in enumerate(y_counts):
                ys = y_starts[d]
                chunks[d][z0:z1, x0:x1, :] = block[:, :, ys : ys + nyl_d]
    return chunks


def unpack_fftx_real(
    chunks: list[np.ndarray],
    x_counts: list[int],
    out: np.ndarray,
    layout: str,
) -> np.ndarray:
    """Unpack one tile into ``out`` (Algorithm 3's data movement), for
    FFTx to transform later; returns ``out``.

    ``chunks[s]`` is the ``(tz, nxl_s, nyl)`` message from source ``s``.
    ``out`` is the tile's view of the output slab: ``(tz, nyl, nx)`` in
    z-y-x order for ``"zyx"`` or ``(nyl, tz, nx)`` in y-z-x order for
    ``"yzx"`` (the Nx==Ny variant); either way x is contiguous for FFTx,
    which the pipelines run once over the assembled slab after the tile
    loop.  As with :func:`ffty_pack_real`, the ``Uy x Uz`` sub-tile walk
    is a cost-model concern (:func:`unpack_cost`); each source's x-slice
    lands with one strided copy (same elements as
    :func:`unpack_fftx_real_subtiled`, pinned by
    tests/core/test_packing_vector.py).
    """
    if layout == "zyx":
        order = (0, 2, 1)
    elif layout == "yzx":
        order = (2, 0, 1)
    else:
        raise ParameterError(f"unknown output layout {layout!r}")
    xs = 0
    for blk, nxl_s in zip(chunks, x_counts):
        # chunk (z, x, y) -> output order, one strided copy per source.
        out[:, :, xs : xs + nxl_s] = blk.transpose(order)
        xs += nxl_s
    return out


def unpack_fftx_real_subtiled(
    chunks: list[np.ndarray],
    fftx,
    x_counts: list[int],
    nyl: int,
    uy: int,
    uz: int,
    layout: str,
) -> np.ndarray:
    """Blocked reference implementation of :func:`unpack_fftx_real` +
    FFTx (the Algorithm 3 sub-tile walk, then ``fftx`` on the assembled
    tile; oracle for the mover and the whole-slab FFTx)."""
    nx = sum(x_counts)
    tz = chunks[0].shape[0]
    if layout == "zyx":
        out = np.empty((tz, nyl, nx), dtype=np.complex128)
    elif layout == "yzx":
        out = np.empty((nyl, tz, nx), dtype=np.complex128)
    else:
        raise ParameterError(f"unknown output layout {layout!r}")
    x_starts = np.concatenate([[0], np.cumsum(x_counts)])
    for y0, y1 in iter_blocks(nyl, uy):
        for z0, z1 in iter_blocks(tz, uz):
            for s, nxl_s in enumerate(x_counts):
                xs = x_starts[s]
                # chunk block (z, x, y) -> output order.
                blk = chunks[s][z0:z1, :, y0:y1]
                if layout == "zyx":
                    out[z0:z1, y0:y1, xs : xs + nxl_s] = blk.transpose(0, 2, 1)
                else:
                    out[y0:y1, z0:z1, xs : xs + nxl_s] = blk.transpose(2, 0, 1)
    return fftx(out)
