"""Jitted (numba) kernels for the batched solvers — lazy, optional.

numba is an *optional* dependency (the ``kernels`` extra): nothing in
this module imports it at module import time, so the package imports
cleanly without it. The compiled dispatchers are built — and warmed on
tiny fixtures so type inference and machine-code generation happen
here, not mid-solve — on the first :func:`dag_sweep` /
:func:`stacked_matvec` call and cached for the life of the process.
Any failure (numba missing, unsupported platform, jit error) raises to
the caller, which falls back to the fused NumPy tier.

Both kernels reproduce the fused NumPy tier's IEEE operation sequence
exactly — sequential multiply–accumulate in CSR slot order, division
last — so their results are bit-identical to the ``fused`` tier (and
hence to the per-point reference); the differential test layer asserts
this whenever numba is importable. ``fastmath`` stays off:
reassociation would break the bit-identity contract for a few percent
at best.
"""

from __future__ import annotations

import numpy as np

__all__ = ["dag_sweep", "ensure_compiled", "stacked_matvec"]

_CACHE: dict = {}


def _compile():
    """Build and warm both jitted dispatchers (raises on any failure)."""
    from numba import njit, prange

    @njit(parallel=True, cache=False)
    def _dag_sweep(
        vals_ext,
        lvl_rows,
        lvl_row_bounds,
        lvl_ell_slots,
        lvl_ell_cols,
        numerators,
        safe_q,
        absorbing,
        uniform,
        x,
    ):
        # One pass per point over the whole level schedule: levels within
        # a point are sequential (states read lower-level solutions) but
        # points are independent, so the parallel axis is the outermost
        # loop — no per-level barrier at all, unlike the NumPy tiers.
        num_points = vals_ext.shape[0]
        k = numerators.shape[2]
        width = lvl_ell_slots.shape[1]
        depth = lvl_row_bounds.shape[0] - 1
        for p in prange(num_points):
            for level in range(1, depth):
                for r in range(lvl_row_bounds[level], lvl_row_bounds[level + 1]):
                    s = lvl_rows[r]
                    if (not uniform) and absorbing[p, s]:
                        continue
                    for c in range(k):
                        # Sequential MAC in CSR slot order, first term
                        # unseeded — the exact addition sequence of the
                        # fused tier (pad slots gather the sentinel 0.0).
                        acc = (
                            vals_ext[p, lvl_ell_slots[r, 0]]
                            * x[p, lvl_ell_cols[r, 0], c]
                        )
                        for j in range(1, width):
                            acc += (
                                vals_ext[p, lvl_ell_slots[r, j]]
                                * x[p, lvl_ell_cols[r, j], c]
                            )
                        x[p, s, c] = (numerators[p, s, c] + acc) / safe_q[p, s]

    @njit(parallel=True, cache=False)
    def _stacked_matvec(block_indptr, block_indices, data, v, out):
        # Per-point CSR matvec over the shared block pattern: sequential
        # accumulation from 0.0 in stored-slot order — the same sequence
        # as scipy's csr_matvec on the stacked block-diagonal matrix.
        num_points, n = v.shape
        for p in prange(num_points):
            for i in range(n):
                acc = 0.0
                for jj in range(block_indptr[i], block_indptr[i + 1]):
                    acc += data[p, jj] * v[p, block_indices[jj]]
                out[p, i] = acc

    # Warm both dispatchers on the canonical dtypes (float64 data,
    # int64 pattern, bool masks) so the expensive first-call compile —
    # and any compile *failure* — happens here, inside the caller's
    # try/except, never mid-campaign.
    i64 = np.int64
    _dag_sweep(
        np.zeros((1, 1)),
        np.zeros(1, dtype=i64),
        np.array([0, 1], dtype=i64),
        np.zeros((1, 1), dtype=i64),
        np.zeros((1, 1), dtype=i64),
        np.zeros((1, 1, 1)),
        np.ones((1, 1)),
        np.zeros((1, 1), dtype=np.bool_),
        True,
        np.zeros((1, 1, 1)),
    )
    _stacked_matvec(
        np.array([0, 0], dtype=i64),
        np.zeros(0, dtype=i64),
        np.zeros((1, 0)),
        np.zeros((1, 1)),
        np.empty((1, 1)),
    )
    return _dag_sweep, _stacked_matvec


def _kernels():
    if "kernels" not in _CACHE:
        _CACHE["kernels"] = _compile()
    return _CACHE["kernels"]


def ensure_compiled() -> None:
    """Compile + warm both kernels now (raises when numba/jit fails)."""
    _kernels()


def dag_sweep(*args) -> None:
    """In-place jitted level sweep (see :func:`_compile` for layout)."""
    _kernels()[0](*args)


def stacked_matvec(*args) -> None:
    """Jitted stacked block-CSR matvec ``out[p] = data[p] @ v[p]``."""
    _kernels()[1](*args)
