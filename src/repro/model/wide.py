"""The wide engine: one run through the plane engine (B = 1).

``engine="wide"`` names a single, node-vectorized execution — an entire
activation set per Python-level step, which is what makes single runs
at ``n = 10⁶⁺`` tractable, the regime where the paper's ``⌊3n/2⌋+4``
/ ``O(n)`` / ``O(log* n)`` scaling claims (Theorems 3.1 and 4.1) stop
being measurable under a per-activation interpreter loop.

There is no second kernel here: a single run is the plane engine of
:mod:`repro.model.batch` at ``B = 1``.  This module only builds that
one-replica kernel; :func:`repro.model.execution.run_execution` runs
it through :func:`repro.model.batch.run_plane` (which records the
``wide_*`` metrics and the ``engine_run`` span) and, when the build
declines (and counts the fallback), runs the fast engine instead.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import ExecutionError
from repro.model.batch import plane_kernel
from repro.model.topology import Topology
from repro.obs.spans import span

__all__ = ["build_wide_kernel"]


def build_wide_kernel(
    algorithm, topology: Topology, inputs: Sequence[Any], *,
    requested: str = "wide",
):
    """The one-replica plane kernel for this run, or ``None``.

    The kernel has the :func:`~repro.model.batch.build_batch_kernel`
    runner signature with ``B = 1``.  Exact-type dispatch through
    :data:`~repro.model.kernels.KERNELS`: a subclass may override
    ``step`` and silently change semantics, so it never matches.
    ``None`` also when the kernel declines the topology; either way
    :func:`~repro.model.batch.plane_kernel` has counted the fallback
    from ``requested``.
    """
    inputs = list(inputs)
    if len(inputs) != topology.n:
        raise ExecutionError(
            f"got {len(inputs)} inputs for {topology.n} processes"
        )
    with span("engine_kernel_build", algorithm=type(algorithm).__name__):
        return plane_kernel([algorithm], topology, [inputs], requested)
