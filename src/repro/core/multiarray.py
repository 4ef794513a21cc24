"""Multi-array 3-D FFT: inter-array vs intra-array overlap.

The paper contrasts its *intra-array* overlap with Kandalla et al.'s
*inter-array* approach — overlapping the computation on one input array
with the communication for other, independent arrays — and names
combining both as future work (Sections 6-7).  This module implements
the whole spectrum so the comparison is runnable:

``sequential``
    the FFTW-style blocking pipeline per array, one array at a time;
``inter``
    Kandalla-style: each array is one exchange; array ``i``'s computation
    progresses array ``i-1``'s non-blocking all-to-all.  Useless when
    there is only one array — the paper's core criticism;
``intra``
    the paper's NEW applied to each array in turn;
``both``
    NEW's tile pipeline with the window carried *across* array
    boundaries, plus progression during the next array's FFTz/Transpose
    — the paper's "both intra-array and inter-array overlap" goal.

All modes share the machine-model costs of :class:`ParallelFFT3D`; real
payloads are supported (each array verified against numpy in the tests).

Like the single-array pipelines, the executor is written in the ``co_*``
coroutine spelling (:meth:`MultiArrayFFT3D.steps`), so a generator SPMD
program runs every mode on the fast tasks backend; :meth:`execute`
drives the same generator on the thread backend — bit-identical either
way (``tests/core/test_multiarray.py::TestBackendBitIdentity``).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..errors import ParameterError
from ..fft.transpose import xyz_to_xzy, xyz_to_zxy
from ..simmpi.comm import SimContext
from ..simmpi.request import AlltoallRequest
from .packing import ffty_pack_real, unpack_fftx_real
from .params import ProblemShape, TuningParams, default_params
from .plan import ParallelFFT3D
from .variants import FFTW_BASELINE, NEW

MODES = ("sequential", "inter", "intra", "both")


class MultiArrayFFT3D:
    """Per-rank executor for ``n_arrays`` successive/independent FFTs."""

    def __init__(
        self,
        ctx: SimContext,
        shape: ProblemShape,
        n_arrays: int,
        mode: str = "both",
        params: TuningParams | None = None,
    ) -> None:
        if mode not in MODES:
            raise ParameterError(f"mode must be one of {MODES}, got {mode!r}")
        if n_arrays < 1:
            raise ParameterError(f"need at least one array, got {n_arrays}")
        self.ctx = ctx
        self.shape = shape
        self.n_arrays = n_arrays
        self.mode = mode
        if params is None:
            params = default_params(shape)
        self.params = params
        spec = FFTW_BASELINE if mode in ("sequential", "inter") else NEW
        if mode == "inter":
            # One exchange per array, posted non-blocking.
            params = params.replace(T=shape.nz)
        self.plans = [
            ParallelFFT3D(ctx, shape, params, spec) for _ in range(n_arrays)
        ]

    # -- execution -------------------------------------------------------

    def execute(
        self, locals_: list[np.ndarray] | None = None
    ) -> list[np.ndarray] | None:
        """Blocking spelling of :meth:`steps` (thread backend)."""
        return self.ctx.drive(self.steps(locals_))

    def steps(self, locals_: list[np.ndarray] | None = None):
        """Transform all arrays as a ``co_*`` coroutine; returns per-array
        local outputs (real mode) or ``None``.  ``yield from`` it in a
        generator SPMD program — bit-identical to :meth:`execute`."""
        if locals_ is not None and len(locals_) != self.n_arrays:
            raise ParameterError(
                f"expected {self.n_arrays} local blocks, got {len(locals_)}"
            )
        if self.mode in ("sequential", "intra"):
            # NEW plans overlap inside each array.
            return (yield from self._co_sequential(locals_))
        if self.mode == "inter":
            return (yield from self._co_inter(locals_))
        return (yield from self._co_both(locals_))

    def _co_sequential(self, locals_):
        outs = []
        for a, plan in enumerate(self.plans):
            out = yield from plan.steps(
                None if locals_ is None else locals_[a]
            )
            outs.append(out)
        return None if locals_ is None else outs

    # -- inter-array (Kandalla-style) --------------------------------------

    def _co_inter(self, locals_):
        """Whole-slab exchanges pipelined across arrays with depth 1."""
        ctx, shape = self.ctx, self.shape
        plans = self.plans
        p = self.params
        outs: list[Any] = [None] * self.n_arrays
        pending: list[tuple[int, AlltoallRequest, Any]] = []
        data: list[Any] = [None] * self.n_arrays
        chunks: list[Any] = [None] * self.n_arrays

        def active_reqs():
            return [req for (_a, req, _rc) in pending]

        def tests(budget):
            live = active_reqs()
            if not live or budget <= 0:
                return []
            share, extra = divmod(budget, len(live))
            return [
                (r, share + (1 if i < extra else 0))
                for i, r in enumerate(live)
            ]

        for a, plan in enumerate(plans):
            local = None if locals_ is None else locals_[a]
            nz = shape.nz
            # FFTz + Transpose with progression on the in-flight array.
            if local is not None:
                data[a] = _fixed_steps_real(plan, local)
            ctx.compute_with_progress(
                ctx.cpu.fft_time(nz, plan.dec.nxl * shape.ny),
                tests(p.Fy), "FFTz",
            )
            kind = "xzy" if plan.use_fast_transpose else plan.spec.transpose_kind
            ctx.compute_with_progress(
                ctx.cpu.transpose_time(plan._tile_bytes(nz), kind),
                tests(p.Fy), "Transpose",
            )
            # FFTy + Pack on the whole slab.
            self._whole_slab_ffty_pack(plan, a, data, chunks, tests(p.Fy))
            # Drain the previous array's exchange, then post this one.
            if pending:
                pa, preq, _ = pending.pop(0)
                recv = yield from ctx.comm.co_wait(preq, label="Wait")
                outs[pa] = self._whole_slab_unpack_fftx(
                    plans[pa], recv, tests(p.Fu)
                )
            req = ctx.comm.ialltoall(
                plan.dec.sendcounts_bytes(nz),
                plan.dec.recvcounts_bytes(nz),
                payload=chunks[a],
            )
            chunks[a] = None
            pending.append((a, req, None))
        # Tail: drain the last exchange.
        while pending:
            pa, preq, _ = pending.pop(0)
            recv = yield from ctx.comm.co_wait(preq, label="Wait")
            outs[pa] = self._whole_slab_unpack_fftx(plans[pa], recv, [])
        return None if locals_ is None else outs

    def _whole_slab_ffty_pack(self, plan, a, data, chunks, test_list):
        shape, ctx = self.shape, self.ctx
        nz = shape.nz
        ctx.compute_with_progress(plan._ffty_time(nz), test_list, "FFTy")
        if data[a] is not None:
            chunks[a] = ffty_pack_real(
                data[a], plan.dec.y_counts, plan.tile_layout
            )
            data[a] = None
        ctx.compute_with_progress(plan._pack_time(nz), test_list, "Pack")

    def _whole_slab_unpack_fftx(self, plan, recv, test_list):
        shape, ctx = self.shape, self.ctx
        nz = shape.nz
        ctx.compute_with_progress(plan._unpack_time(nz), test_list, "Unpack")
        out = None
        if recv is not None and recv[0] is not None:
            out = unpack_fftx_real(
                recv, plan.dec.x_counts, plan._alloc_output(),
                plan.output_layout,
            )
            out = plan._plan("x", shape.nx).execute(out)
        ctx.compute_with_progress(plan._fftx_time(nz), test_list, "FFTx")
        return out

    # -- combined intra + inter -------------------------------------------

    def _co_both(self, locals_):
        """NEW's tile pipeline with the window carried across arrays.

        Arrays are processed back to back; the last ``W`` exchanges of
        array ``a`` keep progressing through array ``a+1``'s FFTz,
        Transpose, and early tiles, so no window drain happens at array
        boundaries (the paper's §7 combination).
        """
        ctx = self.ctx
        p = self.params
        outs: list[Any] = [None] * self.n_arrays
        # Global pending window across arrays: (array, tile_idx, req).
        window: list[tuple[int, int, AlltoallRequest]] = []
        per_array_data: list[Any] = [None] * self.n_arrays
        per_array_out: list[Any] = [None] * self.n_arrays

        def reqs():
            return [r for (_a, _j, r) in window]

        def drain_one():
            a, j, req = window.pop(0)
            recv = yield from ctx.comm.co_wait(req, label="Wait")
            plan = self.plans[a]
            self._tile_unpack_fftx(plan, a, j, recv, per_array_out, reqs())

        for a, plan in enumerate(self.plans):
            local = None if locals_ is None else locals_[a]
            per_array_data[a] = self._fixed_steps(plan, local, reqs())
            if local is not None:
                per_array_out[a] = plan._alloc_output()
            for j in range(len(plan.tiles)):
                chunks = self._tile_ffty_pack(
                    plan, a, j, per_array_data, reqs()
                )
                if len(window) >= max(p.W, 1):
                    yield from drain_one()
                z0, z1 = plan.tiles[j]
                req = ctx.comm.ialltoall(
                    plan.dec.sendcounts_bytes(z1 - z0),
                    plan.dec.recvcounts_bytes(z1 - z0),
                    payload=chunks,
                )
                window.append((a, j, req))
            per_array_data[a] = None
        while window:
            yield from drain_one()
        if locals_ is None:
            return None
        # FFTx once per array over its assembled output slab.
        return [
            plan._plan("x", self.shape.nx).execute(out)
            for plan, out in zip(self.plans, per_array_out)
        ]

    def _fixed_steps(self, plan, local, active):
        ctx, shape = self.ctx, self.shape
        p = self.params
        data = None
        if local is not None:
            data = _fixed_steps_real(plan, local)
        share = [(r, max(1, p.Fy // max(len(active), 1))) for r in active]
        ctx.compute_with_progress(
            ctx.cpu.fft_time(shape.nz, plan.dec.nxl * shape.ny), share, "FFTz"
        )
        kind = "xzy" if plan.use_fast_transpose else plan.spec.transpose_kind
        ctx.compute_with_progress(
            ctx.cpu.transpose_time(plan._tile_bytes(shape.nz), kind),
            share, "Transpose",
        )
        return data

    def _tile_ffty_pack(self, plan, a, j, data, active):
        ctx = self.ctx
        p = self.params
        z0, z1 = plan.tiles[j]
        tz = z1 - z0
        tests = ParallelFFT3D._share_tests(list(active), p.Fy)
        ctx.compute_with_progress(plan._ffty_time(tz), tests, "FFTy")
        chunks = None
        if data[a] is not None:
            chunks = ffty_pack_real(
                plan._tile_view(j, data[a]), plan.dec.y_counts,
                plan.tile_layout,
            )
        tests = ParallelFFT3D._share_tests(active, p.Fp)
        ctx.compute_with_progress(plan._pack_time(tz), tests, "Pack")
        return chunks

    def _tile_unpack_fftx(self, plan, a, j, recv, outs, active):
        ctx = self.ctx
        p = self.params
        z0, z1 = plan.tiles[j]
        tz = z1 - z0
        tests = ParallelFFT3D._share_tests(active, p.Fu)
        ctx.compute_with_progress(plan._unpack_time(tz), tests, "Unpack")
        if outs[a] is not None and recv is not None and recv[0] is not None:
            unpack_fftx_real(
                recv, plan.dec.x_counts, plan._out_view(j, outs[a]),
                plan.output_layout,
            )
        tests = ParallelFFT3D._share_tests(active, p.Fx)
        ctx.compute_with_progress(plan._fftx_time(tz), tests, "FFTx")


def _fixed_steps_real(plan: ParallelFFT3D, local: np.ndarray) -> np.ndarray:
    """FFTz, Transpose and the whole-slab FFTy of one array's payload
    (see :mod:`repro.core.plan`); Pack then only moves data."""
    data = plan._plan("z", plan.shape.nz).execute(local, axis=2)
    data = xyz_to_xzy(data) if plan.use_fast_transpose else xyz_to_zxy(data)
    return plan._plan("y", plan.shape.ny).execute(data)


def run_multi_array(
    platform,
    shape: ProblemShape,
    n_arrays: int,
    mode: str,
    params: TuningParams | None = None,
    global_arrays: list[np.ndarray] | None = None,
):
    """SPMD driver: returns ``(SimResult, spectra | None)``."""
    from ..simmpi.spmd import run_spmd
    from .decompose import gather_spectrum, scatter_slabs

    blocks = None
    if global_arrays is not None:
        blocks = [scatter_slabs(a, shape.p) for a in global_arrays]

    def prog(ctx):
        # Generator SPMD program: auto-selects the fast tasks backend.
        exe = MultiArrayFFT3D(ctx, shape, n_arrays, mode, params)
        locals_ = (
            None if blocks is None else [blocks[a][ctx.rank] for a in range(n_arrays)]
        )
        outs = yield from exe.steps(locals_)
        layout = exe.plans[0].output_layout
        return outs, layout

    sim = run_spmd(shape.p, prog, platform)
    spectra = None
    if global_arrays is not None:
        layout = sim.results[0][1]
        spectra = []
        for a in range(n_arrays):
            outs = [res[0][a] for res in sim.results]
            spectra.append(
                gather_spectrum(outs, (shape.nx, shape.ny, shape.nz), layout)
            )
    return sim, spectra
