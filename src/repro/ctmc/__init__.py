"""Continuous-time Markov chain (CTMC) solvers.

This subpackage is the numerical backbone of the reproduction. It
provides:

* :class:`~repro.ctmc.chain.CTMC` — a sparse finite-state CTMC container;
* :func:`~repro.ctmc.absorbing.analyze_absorbing` — mean time to
  absorption (the paper's MTTSF), absorption probabilities per failure
  class, and expected accumulated rewards (the numerator of Ĉtotal),
  solved either by an exact topological sweep when the chain is acyclic
  (:mod:`repro.ctmc.acyclic`) or by a sparse linear solve
  (:mod:`repro.ctmc.linear`);
* :func:`~repro.ctmc.transient.transient_distribution` — uniformization
  with stable Poisson weights (:mod:`repro.ctmc.poisson`);
* :func:`~repro.ctmc.stationary.stationary_distribution` — GTH
  elimination / power iteration;
* :class:`~repro.ctmc.birth_death.BirthDeathProcess` — closed-form
  birth–death chains (the group partition/merge ``NG`` model).
"""

from .absorbing import AbsorbingSolution, analyze_absorbing
from .acyclic import (
    BatchDagStructure,
    DagStructure,
    batch_dag_structure,
    solve_dag,
    solve_dag_batch,
    topological_levels,
)
from .birth_death import BirthDeathProcess
from .chain import CTMC
from .kernels import (
    KERNEL_CHOICES,
    numba_available,
    resolve_kernel,
)
from .linear import solve_linear_system
from .poisson import poisson_weights
from .stationary import stationary_distribution
from .transient import (
    BATCH_EQUIVALENCE_RTOL,
    EXPM_EQUIVALENCE_RTOL,
    TRANSIENT_BACKEND_CHOICES,
    absorption_cdf,
    absorption_cdf_batch,
    resolve_transient_backend,
    transient_distribution,
    transient_distribution_batch,
)

__all__ = [
    "CTMC",
    "AbsorbingSolution",
    "analyze_absorbing",
    "DagStructure",
    "BatchDagStructure",
    "topological_levels",
    "batch_dag_structure",
    "solve_dag",
    "solve_dag_batch",
    "solve_linear_system",
    "poisson_weights",
    "transient_distribution",
    "absorption_cdf",
    "transient_distribution_batch",
    "absorption_cdf_batch",
    "BATCH_EQUIVALENCE_RTOL",
    "EXPM_EQUIVALENCE_RTOL",
    "KERNEL_CHOICES",
    "TRANSIENT_BACKEND_CHOICES",
    "numba_available",
    "resolve_kernel",
    "resolve_transient_backend",
    "stationary_distribution",
    "BirthDeathProcess",
]
