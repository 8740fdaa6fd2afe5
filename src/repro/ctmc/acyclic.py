"""Exact absorbing-chain analysis for acyclic (DAG) CTMCs.

The security chain of the GCS model is a DAG: every transition strictly
decreases the marking in a lexicographic order (DESIGN.md §3.1), so the
linear system

.. math:: (\\operatorname{diag}(q) - R)\\,x = b

is — after a topological permutation — upper triangular and solvable by a
single backward sweep. We implement the sweep with *level scheduling*:
states are grouped by longest-path distance to an absorbing state, and
each level is processed with one vectorised sparse row-slice matvec, so
the whole solve is ``O(nnz)`` with only ``O(depth)`` Python-level
iterations (a few hundred for the N=100 model).

The boundary-value formulation used throughout: for absorbing states the
solution value is *prescribed* (0 for hitting times, 1/0 for absorption
indicator probabilities), and for transient states

.. math:: x_s = \\frac{b_s + \\sum_j R_{sj}\\,x_j}{q_s}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..errors import SolverError
from ..obs import metrics, span
from .chain import CTMC
from .kernels import resolve_kernel

__all__ = [
    "DagStructure",
    "topological_levels",
    "solve_dag",
    "BatchDagStructure",
    "batch_dag_structure",
    "solve_dag_batch",
]


@dataclass(frozen=True)
class DagStructure:
    """Topological level assignment of a DAG chain.

    ``levels[i]`` is the longest-path distance (in transitions) from
    state ``i`` to an absorbing state; absorbing states have level 0.
    ``level_states[L]`` lists the states at level ``L``.
    """

    levels: np.ndarray
    level_states: list[np.ndarray]

    @property
    def depth(self) -> int:
        """Number of levels (1 for an all-absorbing chain)."""
        return len(self.level_states)


def topological_levels(chain: CTMC) -> Optional[DagStructure]:
    """Compute topological levels of ``chain``, or ``None`` if cyclic.

    Kahn's algorithm on out-degrees: states whose successors are all
    finalised are peeled off level by level. If a cycle exists some
    states are never peeled and ``None`` is returned (callers fall back
    to the general linear solver).
    """
    R = chain.rates
    n = chain.num_states
    remaining = np.diff(R.indptr).astype(np.int64)  # out-degree per state
    levels = np.zeros(n, dtype=np.int64)
    Rcsc = R.tocsc()
    pred_indptr, pred_indices = Rcsc.indptr, Rcsc.indices

    ready = [int(s) for s in np.flatnonzero(remaining == 0)]
    processed = 0
    # Longest-path levels: a predecessor's level is 1 + max over successors.
    while ready:
        v = ready.pop()
        processed += 1
        lv = levels[v] + 1
        for u in pred_indices[pred_indptr[v] : pred_indptr[v + 1]]:
            if levels[u] < lv:
                levels[u] = lv
            remaining[u] -= 1
            if remaining[u] == 0:
                ready.append(int(u))
    if processed != n:
        return None

    depth = int(levels.max()) + 1 if n else 0
    order = np.argsort(levels, kind="stable")
    sorted_levels = levels[order]
    boundaries = np.searchsorted(sorted_levels, np.arange(depth + 1))
    level_states = [order[boundaries[L] : boundaries[L + 1]] for L in range(depth)]
    return DagStructure(levels=levels, level_states=level_states)


def solve_dag(
    chain: CTMC,
    structure: DagStructure,
    numerators: np.ndarray,
    boundary: np.ndarray,
) -> np.ndarray:
    """Solve the boundary-value recurrence on a DAG chain.

    Parameters
    ----------
    chain:
        The chain (must be the one ``structure`` was computed from).
    structure:
        Output of :func:`topological_levels`.
    numerators:
        ``(n,)`` or ``(n, k)`` array ``b`` of per-state numerators
        (reward rates); values at absorbing states are ignored.
    boundary:
        ``(n,)`` or ``(n, k)`` array of prescribed values at absorbing
        states; values at transient states are ignored.

    Returns
    -------
    ``(n,)`` or ``(n, k)`` array ``x`` with ``x = boundary`` on absorbing
    states and ``x_s = (b_s + Σ_j R_sj x_j) / q_s`` on transient states.
    """
    R = chain.rates
    q = chain.out_rates
    n = chain.num_states

    b = np.asarray(numerators, dtype=float)
    g = np.asarray(boundary, dtype=float)
    squeeze = b.ndim == 1
    if b.ndim == 1:
        b = b[:, None]
    if g.ndim == 1:
        g = g[:, None]
    if b.shape[0] != n or g.shape[0] != n:
        raise SolverError(
            f"numerators/boundary first dimension must be {n}, got {b.shape[0]}/{g.shape[0]}"
        )
    if g.shape[1] != b.shape[1]:
        raise SolverError("numerators and boundary must have matching column counts")

    x = np.zeros_like(b)
    absorbing = chain.absorbing_mask
    x[absorbing] = g[absorbing]

    # Level 0 is exactly the absorbing set (out-degree zero ⇒ q == 0).
    for rows in structure.level_states[1:]:
        contrib = R[rows, :] @ x  # successors are all in lower levels: final
        x[rows] = (b[rows] + contrib) / q[rows, None]

    return x[:, 0] if squeeze else x


# ---------------------------------------------------------------------------
# Structure-sharing multi-point solver
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BatchDagStructure:
    """Shared sparsity pattern + level schedule for many rate fills.

    A whole parameter sweep shares one transition *pattern* — only the
    rate values differ per grid point — so the topological schedule and
    the gather plan are computed once and reused by every
    :func:`solve_dag_batch` call. The pattern is stored twice:

    * canonical CSR (``indptr``/``indices``, columns sorted within each
      row) — the shape rate fills scatter into;
    * padded ELL (``ell_cols``/``ell_slots``/``ell_pad``, one fixed-width
      row per state, real slots first in CSR order, pads after) — the
      shape the vectorised backward sweep gathers from. Keeping the
      real slots in CSR order makes the batched per-row accumulation
      run in exactly the sequence scipy's CSR matvec uses, which is
      what makes the batched solve *bit-identical* to the per-point
      one (trailing ``+ 0.0`` pads cannot perturb an IEEE sum of
      finite non-negative terms).

    The level schedule is computed on the pattern alone. Any per-point
    pattern is a subset (rates may evaluate to zero), and removing
    edges only ever relaxes scheduling constraints, so the shared
    schedule stays valid for every point; per-point *rate-absorbing*
    states (all-zero rows) are handled by the boundary short-circuit in
    :func:`solve_dag_batch`.
    """

    indptr: np.ndarray
    indices: np.ndarray
    #: Row index of every CSR slot (``nnz``-long, non-decreasing).
    slot_rows: np.ndarray
    structure: DagStructure
    ell_cols: np.ndarray
    ell_slots: np.ndarray
    ell_pad: np.ndarray
    width: int
    #: Fused-gather plan: the ELL rows permuted into level order so the
    #: backward sweep slices *contiguous* per-level views instead of
    #: fancy-gathering rows per level. ``lvl_rows`` is the state order
    #: (``concatenate(level_states)``), ``lvl_row_bounds`` the level
    #: boundaries into it, and ``lvl_ell_slots`` points pad entries at
    #: the sentinel slot ``nnz`` so one gather from the zero-extended
    #: value array replaces the gather + ``np.where`` pad pass.
    lvl_rows: np.ndarray
    lvl_row_bounds: np.ndarray
    lvl_ell_slots: np.ndarray
    lvl_ell_cols: np.ndarray

    @property
    def num_states(self) -> int:
        return self.indptr.size - 1

    @property
    def nnz(self) -> int:
        return self.indices.size


def batch_dag_structure(
    indptr: np.ndarray, indices: np.ndarray
) -> BatchDagStructure:
    """Build the shared schedule for a CSR sparsity pattern.

    ``indptr``/``indices`` must be canonical CSR (columns ascending
    within each row, no duplicates). Raises
    :class:`~repro.errors.SolverError` when the pattern has a cycle.
    """
    indptr = np.asarray(indptr, dtype=np.int64)
    indices = np.asarray(indices, dtype=np.int64)
    n = indptr.size - 1
    nnz = indices.size
    if n < 1 or indptr[0] != 0 or indptr[-1] != nnz:
        raise SolverError("malformed CSR pattern")

    deg = np.diff(indptr)
    width = int(deg.max()) if n else 0
    rows_of_slot = np.repeat(np.arange(n, dtype=np.int64), deg)
    pos_in_row = np.arange(nnz, dtype=np.int64) - np.repeat(indptr[:-1], deg)

    ell_slots = np.zeros((n, max(width, 1)), dtype=np.int64)
    ell_pad = np.ones((n, max(width, 1)), dtype=bool)
    ell_cols = np.zeros((n, max(width, 1)), dtype=np.int64)
    ell_slots[rows_of_slot, pos_in_row] = np.arange(nnz, dtype=np.int64)
    ell_pad[rows_of_slot, pos_in_row] = False
    ell_cols[rows_of_slot, pos_in_row] = indices

    # Predecessor lists (CSC view of the pattern) for the level sweep.
    order = np.argsort(indices, kind="stable")
    pred_rows = rows_of_slot[order]
    pred_indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(indices, minlength=n), out=pred_indptr[1:])

    # Level-synchronous Kahn: wave L processes exactly the states whose
    # longest path to an out-degree-zero state is L, so levels fall out
    # of the wave index; everything per wave is array arithmetic.
    remaining = deg.copy()
    levels = np.zeros(n, dtype=np.int64)
    current = np.flatnonzero(remaining == 0)
    processed = current.size
    level = 0
    while True:
        starts = pred_indptr[current]
        lens = pred_indptr[current + 1] - starts
        total = int(lens.sum())
        if total == 0:
            break
        # Ragged gather of every predecessor slot of the current wave.
        offsets = np.repeat(np.cumsum(lens) - lens, lens)
        flat = np.repeat(starts, lens) + (np.arange(total) - offsets)
        preds = pred_rows[flat]
        level += 1
        levels[preds] = level
        remaining -= np.bincount(preds, minlength=n)
        candidates = np.unique(preds)
        current = candidates[remaining[candidates] == 0]
        processed += current.size
    if processed != n:
        raise SolverError("pattern is cyclic; batched DAG solve not applicable")

    depth = int(levels.max()) + 1 if n else 0
    order_l = np.argsort(levels, kind="stable")
    sorted_levels = levels[order_l]
    boundaries = np.searchsorted(sorted_levels, np.arange(depth + 1))
    level_states = [order_l[boundaries[L] : boundaries[L + 1]] for L in range(depth)]

    # Fused-gather plan: ELL rows in level order, pads pointing at the
    # sentinel slot ``nnz`` (one gather from a zero-extended value
    # array yields exact ``0.0`` pads with no masking pass).
    lvl_ell_slots = ell_slots[order_l].copy()
    lvl_ell_slots[ell_pad[order_l]] = nnz
    lvl_ell_cols = ell_cols[order_l]

    return BatchDagStructure(
        indptr=indptr,
        indices=indices,
        slot_rows=rows_of_slot,
        structure=DagStructure(levels=levels, level_states=level_states),
        ell_cols=ell_cols,
        ell_slots=ell_slots,
        ell_pad=ell_pad,
        width=width,
        lvl_rows=order_l,
        lvl_row_bounds=boundaries,
        lvl_ell_slots=lvl_ell_slots,
        lvl_ell_cols=lvl_ell_cols,
    )


def _group_zero_patterns(masks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Group boolean rows by identical pattern: ``(patterns, inverse)``.

    Hashes each row's raw bytes into a dict — O(P · nnz) with tiny
    constants (``np.unique(axis=0)`` builds a structured dtype with one
    field per slot and takes seconds at ``nnz ≈ 3·10⁵``). Patterns come
    back in first-seen order.
    """
    groups: dict[bytes, int] = {}
    inverse = np.empty(masks.shape[0], dtype=np.int64)
    representatives: list[int] = []
    for i, row in enumerate(np.ascontiguousarray(masks)):
        key = row.tobytes()
        g = groups.setdefault(key, len(representatives))
        if g == len(representatives):
            representatives.append(i)
        inverse[i] = g
    return masks[representatives], inverse


def _row_sums(shared: BatchDagStructure, values: np.ndarray) -> np.ndarray:
    """Per-point out-rates, bit-identical to scipy's on the pruned chain.

    scipy's CSR ``sum(axis=1)`` reduces each row's data with
    ``np.add.reduceat`` — *pairwise* grouping over exactly the stored
    (nonzero) entries — while its matvec accumulates sequentially. The
    backward sweep must therefore compute ``q`` with the same reduceat
    over the same element multiset: a plain reduceat over the shared
    pattern when a point stores no explicit zeros, and a reduceat over
    the zero-pruned copy when it does (an inserted ``0.0`` changes the
    pairwise grouping, unlike in a sequential sum).
    """
    P, n = values.shape[0], shared.num_states
    q = np.zeros((P, n))
    if shared.nnz == 0:
        return q
    deg = np.diff(shared.indptr)
    nonempty = deg > 0
    starts = shared.indptr[:-1][nonempty]
    if starts.size:
        q[:, nonempty] = np.add.reduceat(values, starts, axis=1)
    zero_points = np.flatnonzero(~np.all(values != 0.0, axis=1))
    if zero_points.size == 0:
        return q
    # Zero-containing points, grouped by identical zero pattern: a
    # sweep that zeroes a rate usually zeroes it at the *same* slots
    # for every grid point (e.g. host_false_positive = 0 kills every
    # false-accusation edge), so one stacked reduceat per distinct
    # pattern keeps the correction vectorised across points instead of
    # degrading to a per-point Python loop.
    masks = values[zero_points] != 0.0
    patterns, inverse = _group_zero_patterns(masks)
    for g in range(patterns.shape[0]):
        keep = patterns[g]
        points = zero_points[inverse == g]
        pruned = values[np.ix_(points, np.flatnonzero(keep))]
        deg_g = np.bincount(shared.slot_rows[keep], minlength=n)
        nonempty_g = deg_g > 0
        starts_g = (np.cumsum(deg_g) - deg_g)[nonempty_g]
        q_g = np.zeros((points.size, n))
        if starts_g.size:
            q_g[:, nonempty_g] = np.add.reduceat(pruned, starts_g, axis=1)
        q[points] = q_g
    return q


def solve_dag_batch(
    shared: BatchDagStructure,
    values: np.ndarray,
    numerators: np.ndarray,
    boundary: np.ndarray,
    *,
    kernel: Optional[str] = None,
) -> np.ndarray:
    """Solve the boundary-value recurrence for ``P`` rate fills at once.

    Parameters
    ----------
    shared:
        Output of :func:`batch_dag_structure` for the common pattern.
    values:
        ``(P, nnz)`` transition rates, one row per grid point, aligned
        with the pattern's CSR slots. Explicit zeros are allowed (they
        contribute exact ``+0.0`` terms).
    numerators:
        ``(P, n, k)`` per-state numerators ``b``; ignored wherever a
        point's state is absorbing (zero out-rate *for that point*).
    boundary:
        ``(n, k)`` (shared) or ``(P, n, k)`` prescribed values at
        absorbing states; ignored at transient states.
    kernel:
        Explicit kernel tier (``"numba"``/``"fused"``); ``None``
        (default) follows ``REPRO_KERNEL`` — see
        :func:`repro.ctmc.kernels.resolve_kernel`. The ``numba`` tier
        runs the jitted one-pass sweep (bit-identical to ``fused``)
        and degrades to ``fused`` when numba is absent or the jit
        fails.

    Returns
    -------
    ``(P, n, k)`` array ``x`` with, per point, ``x = boundary`` on that
    point's absorbing states and ``x_s = (b_s + Σ_j R_sj x_j) / q_s``
    on its transient states — bit-identical to running
    :func:`solve_dag` per point on the per-point (zero-pruned) chain.
    """
    values = np.asarray(values, dtype=float)
    numerators = np.asarray(numerators, dtype=float)
    boundary = np.asarray(boundary, dtype=float)
    if values.ndim != 2 or values.shape[1] != shared.nnz:
        raise SolverError(
            f"values must have shape (P, {shared.nnz}), got {values.shape}"
        )
    P = values.shape[0]
    n = shared.num_states
    if numerators.ndim != 3 or numerators.shape[:2] != (P, n):
        raise SolverError(
            f"numerators must have shape ({P}, {n}, k), got {numerators.shape}"
        )
    k = numerators.shape[2]
    if boundary.shape == (n, k):
        boundary = np.broadcast_to(boundary, (P, n, k))
    elif boundary.shape != (P, n, k):
        raise SolverError(
            f"boundary must have shape ({n}, {k}) or ({P}, {n}, {k}), "
            f"got {boundary.shape}"
        )
    kernel = resolve_kernel(kernel)
    if kernel == "numba":
        # Compile (and warm) the jitted kernels up front: a jit failure
        # degrades to the fused tier *before* the span opens, so the
        # recorded kernel tag is always the tier that actually ran.
        try:
            from ._numba_kernels import ensure_compiled

            ensure_compiled()
        except Exception:  # noqa: BLE001 — jit failure must not kill a solve
            metrics().counter("solver.kernel_jit_failures").add()
            kernel = "fused"
    levels = len(shared.structure.level_states)
    with span(
        "solve_dag_batch", points=P, states=n, levels=levels, kernel=kernel
    ):
        if kernel == "numba":
            result = _solve_dag_batch_numba(shared, values, numerators, boundary)
        else:
            result = _solve_dag_batch_fused(shared, values, numerators, boundary)
    registry = metrics()
    registry.counter("solver.dag_batch_solves").add()
    registry.counter("solver.dag_points_solved").add(P)
    registry.counter("solver.dag_level_sweeps").add(levels)
    return result


def _sweep_setup(
    shared: BatchDagStructure,
    values: np.ndarray,
    boundary: np.ndarray,
    k: int,
) -> tuple[np.ndarray, bool, np.ndarray, np.ndarray]:
    """Shared kernel prologue: ``(absorbing, uniform, safe_q, x)``.

    ``q`` comes from :func:`_row_sums`, whose pairwise
    ``np.add.reduceat`` grouping is what matches scipy's row sums. When
    every point's absorbing set is exactly the structural one (no
    explicit all-zero rows — the common case for real rate fills),
    ``uniform`` is set: the boundary scatter happens once on the
    absorbing index set and the kernels skip the per-level absorbing
    re-masking (a no-op there, since levels ≥ 1 are structurally
    non-absorbing).
    """
    P, n = values.shape[0], shared.num_states
    q = _row_sums(shared, values)
    absorbing = q == 0.0
    struct_abs = shared.structure.levels == 0
    uniform = bool(np.array_equal(absorbing, np.broadcast_to(struct_abs, (P, n))))
    if uniform:
        x = np.zeros((P, n, k))
        idx = np.flatnonzero(struct_abs)
        x[:, idx, :] = boundary[:, idx, :]
        safe_q = q  # levels >= 1 are non-absorbing for every point
    else:
        x = np.where(absorbing[:, :, None], boundary, 0.0)
        safe_q = np.where(absorbing, 1.0, q)
    return absorbing, uniform, safe_q, x


def _solve_dag_batch_fused(
    shared: BatchDagStructure,
    values: np.ndarray,
    numerators: np.ndarray,
    boundary: np.ndarray,
) -> np.ndarray:
    """Fused-gather kernel: one sentinel-slot gather, level-sliced views.

    None of its shortcuts changes a single IEEE operation on the solved
    values:

    * the ``(P, n, width)`` ELL value gather reads from the
      zero-extended value array, so pad slots (pointing at the sentinel
      column) yield exact ``0.0`` with no masking pass;
    * the gathered ELL rows are pre-permuted into level order
      (``lvl_ell_slots``/``lvl_ell_cols``), so the per-level inner loop
      slices contiguous views instead of fancy-gathering rows ``width``
      times per level;
    * when every point's absorbing set is exactly the structural one,
      the per-level absorbing re-masking is skipped (see
      :func:`_sweep_setup`).

    ``contrib`` accumulates strictly in CSR slot order starting from
    the first term — the same sequential order as scipy's CSR matvec
    in per-point :func:`solve_dag` (``0.0 + t₀ == t₀`` for the
    non-negative products of a rate fill, so the unseeded start is
    IEEE-identical).
    """
    P, k = values.shape[0], numerators.shape[2]
    absorbing, uniform, safe_q, x = _sweep_setup(shared, values, boundary, k)

    # One gather with a sentinel zero column replaces gather + mask.
    vals_ext = np.concatenate([values, np.zeros((P, 1))], axis=1)
    ell_vals = vals_ext[:, shared.lvl_ell_slots]  # (P, n, width), level order

    bounds = shared.lvl_row_bounds
    for L, rows in enumerate(shared.structure.level_states[1:], start=1):
        a, b = bounds[L], bounds[L + 1]
        ev = ell_vals[:, a:b, :]
        cols = shared.lvl_ell_cols[a:b]
        contrib = ev[:, :, 0, None] * x[:, cols[:, 0], :]
        for j in range(1, shared.width):
            contrib += ev[:, :, j, None] * x[:, cols[:, j], :]
        solved = (numerators[:, rows, :] + contrib) / safe_q[:, rows, None]
        if uniform:
            x[:, rows, :] = solved
        else:
            x[:, rows, :] = np.where(
                absorbing[:, rows, None], x[:, rows, :], solved
            )

    return x


def _solve_dag_batch_numba(
    shared: BatchDagStructure,
    values: np.ndarray,
    numerators: np.ndarray,
    boundary: np.ndarray,
) -> np.ndarray:
    """Jitted one-pass sweep: the fused kernel compiled and point-parallel.

    Setup is the fused kernel's (:func:`_sweep_setup`); only the level
    sweep itself moves into :func:`repro.ctmc._numba_kernels.dag_sweep`,
    which fuses the per-level gather → MAC → divide chain into one
    compiled pass with the parallel axis on *points* (levels within a
    point stay sequential). The jitted MAC accumulates in the same CSR
    slot order from the same unseeded first term, so results are
    bit-identical to the fused (and hence the per-point) kernel.
    """
    from ._numba_kernels import dag_sweep

    P = values.shape[0]
    absorbing, uniform, safe_q, x = _sweep_setup(
        shared, values, boundary, numerators.shape[2]
    )
    vals_ext = np.concatenate([values, np.zeros((P, 1))], axis=1)
    dag_sweep(
        vals_ext,
        shared.lvl_rows,
        shared.lvl_row_bounds,
        shared.lvl_ell_slots,
        shared.lvl_ell_cols,
        np.ascontiguousarray(numerators),
        np.ascontiguousarray(safe_q),
        np.ascontiguousarray(absorbing),
        uniform,
        x,
    )
    return x
