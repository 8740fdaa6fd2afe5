"""Kernel-tier selection for the batched solvers.

Two tiers drive the batched DAG sweep and the batched uniformization
matvec, both producing the same results:

* ``fused`` — the NumPy tier: sentinel-slot gather, level-ordered
  contiguous views, pattern-permuted CSR assembly;
* ``numba`` — jitted single-pass kernels (:mod:`._numba_kernels`):
  the per-level gather → multiply–accumulate chain fuses into one
  compiled pass, parallelised over the point axis. Bit-identical to
  ``fused`` (sequential accumulation in the same slot order); requires
  the optional ``numba`` dependency (``pip install repro[kernels]``)
  and silently degrades to ``fused`` when it is absent or the jit
  fails (counted under ``solver.kernel_fallbacks`` /
  ``solver.kernel_jit_failures``).

Selection, most specific wins:

1. an explicit ``kernel=`` argument to a solver entry point (unknown
   names raise :class:`~repro.errors.SolverError`);
2. the ``REPRO_KERNEL`` environment variable (``numba|fused``, set by
   the CLI ``--kernel`` flag; unknown values are ignored with a
   one-shot warning);
3. the default, ``fused``.
"""

from __future__ import annotations

import logging
import os
from typing import Optional

from ..errors import SolverError
from ..obs import metrics

__all__ = [
    "KERNEL_CHOICES",
    "numba_available",
    "requested_kernel",
    "resolve_kernel",
]

log = logging.getLogger(__name__)

#: Recognised kernel tiers, fastest first.
KERNEL_CHOICES = ("numba", "fused")

_NUMBA_AVAILABLE: Optional[bool] = None
_WARNED_ENV = False
_WARNED_FALLBACK = False


def numba_available() -> bool:
    """Whether the optional ``numba`` dependency imports (cached)."""
    global _NUMBA_AVAILABLE
    if _NUMBA_AVAILABLE is None:
        try:
            import numba  # noqa: F401 — availability probe only

            _NUMBA_AVAILABLE = True
        except Exception:  # noqa: BLE001 — any import failure means "no"
            _NUMBA_AVAILABLE = False
    return _NUMBA_AVAILABLE


def requested_kernel() -> Optional[str]:
    """The ``REPRO_KERNEL`` request, or ``None`` when unset/unrecognised.

    An unrecognised value is ignored with a (one-shot) warning rather
    than raised: a typo in an environment variable must not take down a
    long campaign mid-run the way a bad CLI flag would be rejected up
    front.
    """
    global _WARNED_ENV
    raw = os.environ.get("REPRO_KERNEL")
    if raw is None:
        return None
    name = raw.strip().lower()
    if name in KERNEL_CHOICES:
        return name
    if not _WARNED_ENV:
        log.warning(
            "ignoring unrecognised REPRO_KERNEL=%r (choices: %s)",
            raw,
            "/".join(KERNEL_CHOICES),
        )
        _WARNED_ENV = True
    return None


def resolve_kernel(kernel: Optional[str] = None) -> str:
    """Resolve the kernel tier a solver call will actually run.

    ``kernel`` (validated — unknown names raise
    :class:`~repro.errors.SolverError`) beats ``REPRO_KERNEL``, which
    beats the ``fused`` default. A ``numba`` request degrades to
    ``fused`` when numba is not importable; the degradation is counted
    (``solver.kernel_fallbacks``) and logged once.
    """
    global _WARNED_FALLBACK
    if kernel is not None:
        name = kernel.strip().lower()
        if name not in KERNEL_CHOICES:
            raise SolverError(
                f"unknown kernel {kernel!r} (choices: {'/'.join(KERNEL_CHOICES)})"
            )
    else:
        name = requested_kernel() or "fused"
    if name == "numba" and not numba_available():
        metrics().counter("solver.kernel_fallbacks").add()
        if not _WARNED_FALLBACK:
            log.warning(
                "kernel 'numba' requested but numba is not installed; "
                "falling back to 'fused' (pip install repro[kernels])"
            )
            _WARNED_FALLBACK = True
        name = "fused"
    return name
