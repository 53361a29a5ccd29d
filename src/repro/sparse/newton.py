"""Sparse linear algebra for the engine's one Newton loop.

:class:`SparseNewtonWork` is the CSR backend of
``repro.analog.engine._newton_step``.  The loop itself - the
``(h, alpha)``-keyed factor reuse, refactoring on ``REUSE_SLOWDOWN``,
predicted acceptance, damping and the rescue shunt - lives once in the
engine; this class only supplies the five linear-algebra operations it
calls (``scale``, ``charge_rows``, ``factor``, ``solve`` and
``charge``).  Both backends therefore take the same iteration decisions
on the same trajectory, and the factor/reuse counters come out equal
(``tests/test_sparse_engine.py`` pins the parity).

The Jacobian lives as a CSR ``data`` vector on the fixed
:class:`~repro.sparse.csr.CsrPlan` pattern, factored by
:class:`~repro.sparse.linalg.SparseLU` instead of inverted densely, and
the charge terms are COO mat-vecs.  Nothing ``(n, n)``-shaped is
allocated (except inside the scipy-absent dense fallback of
``SparseLU`` itself).

:class:`SparseStaticSolver` is the matching DC-operating-point hook:
``dcop._newton_static`` accepts it as its ``solver`` to evaluate and
factor sparsely while keeping the ladder logic untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np

from repro.analog.engine import _NewtonWork
from repro.analog.kernels import KernelStats
from repro.sparse.csr import SparseKernel, csr_plan
from repro.sparse.linalg import SparseLU


@dataclass
class SparseKernelStats(KernelStats):
    """Kernel counters plus the sparse-path observables.

    ``sparse_nnz`` is the pattern size of the Newton matrix,
    ``sparse_fill_nnz`` the ``L + U`` fill of the last factorization
    (``n*n`` on the dense fallback), ``sparse_fallback`` is 1 when the
    run used the pure-numpy backend.  All three ride the generic
    key-folding of :func:`repro.runtime.telemetry.record_kernel`.
    """

    sparse_nnz: int = 0
    sparse_fill_nnz: int = 0
    sparse_fallback: int = 0

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable counter snapshot, sparse fields included."""
        out = super().as_dict()
        out["sparse_nnz"] = self.sparse_nnz
        out["sparse_fill_nnz"] = self.sparse_fill_nnz
        out["sparse_fallback"] = self.sparse_fallback
        return out

    def merge(self, other: KernelStats) -> None:
        """Fold another stats object in (sparse gauges take the max)."""
        super().merge(other)
        if isinstance(other, SparseKernelStats):
            self.sparse_nnz = max(self.sparse_nnz, other.sparse_nnz)
            self.sparse_fill_nnz = max(
                self.sparse_fill_nnz, other.sparse_fill_nnz
            )
            self.sparse_fallback |= other.sparse_fallback


class SparseNewtonWork(_NewtonWork):
    """CSR linear algebra for the engine's Newton loop.

    Keeps the loop state of the dense :class:`_NewtonWork` and replaces
    its five linear-algebra operations with CSR data updates, COO
    mat-vecs and :class:`SparseLU`.
    """

    def __init__(self, circuit: Any, options: Any) -> None:
        self.circuit = circuit
        self.plan = plan = csr_plan(circuit)
        self.lu = SparseLU(plan.indptr, plan.indices, circuit.n_free)
        self._init_loop(
            circuit, options, SparseKernel(circuit, plan),
            SparseKernelStats(
                sparse_nnz=plan.nnz,
                sparse_fallback=0 if self.lu.backend == "scipy" else 1,
            ),
        )
        self._dev = np.empty(plan.nnz)      # G_ff + device stamps
        self._data = np.empty(plan.nnz)     # alpha * dev + C/h (+ shunt diag)
        self._ch = np.zeros(plan.nnz)       # C/h data on the pattern
        self._cf_scaled = np.empty(plan.cf_val.size)

    def scale(self, h: float) -> None:
        """Refresh the ``C / h`` data vectors when ``h`` changes."""
        if self.h_scaled != h:
            plan = self.plan
            inv_h = 1.0 / h
            np.multiply(plan.cf_val, inv_h, out=self._cf_scaled)
            # Same elementwise op as the dense ``C_ff * (1/h)``, so the
            # assembled Newton data matches the dense matrix bit-for-bit.
            self._ch[plan.c_pos] = plan.c_val * inv_h
            self.h_scaled = h

    def charge_rows(self, v: np.ndarray, out: np.ndarray) -> None:
        """``(C / h)[:n_free] @ v`` as a COO mat-vec."""
        plan = self.plan
        prod = self._cf_scaled * v[plan.cf_cols]
        out[:] = np.bincount(plan.cf_rows, weights=prod, minlength=self.n_free)

    def factor(self, jw: np.ndarray, alpha: float, shunt: float) -> None:
        """Factor ``alpha * J_ff + C_ff / h + shunt * I`` from the stamp
        weights ``jw``.  A singular system surfaces as a non-finite
        :meth:`solve`, like the dense ``raw_inv``."""
        plan = self.plan
        data = self._data
        np.multiply(plan.device_data(jw, self._dev), alpha, out=data)
        data += self._ch
        if shunt:
            data[plan.diag_pos] += shunt
        self.lu.factor(data)
        self.stats.sparse_fill_nnz = self.lu.fill_nnz

    def solve(self, rhs: np.ndarray, out: np.ndarray) -> None:
        """Apply the last factorization to ``rhs``."""
        self.lu.solve(rhs, out=out)

    def charge(self, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        """``C @ v`` (full length ``n_total``) as a COO mat-vec."""
        plan = self.plan
        prod = plan.c_coo_val * v[plan.c_coo_cols]
        out[:] = np.bincount(
            plan.c_coo_rows, weights=prod, minlength=self.circuit.n_total
        )
        return out

    def static_solver(self) -> "SparseStaticSolver":
        """The DC-operating-point hook sharing this run's plan/kernel."""
        return SparseStaticSolver(self)


class SparseStaticSolver:
    """Sparse evaluate/factor hook for ``dcop._newton_static``.

    The DC ladder's control flow (damping, shunt homotopy, source
    stepping) stays in :mod:`repro.analog.dcop`; this object replaces
    only its two dense operations - ``circuit.device_currents`` and
    ``np.linalg.solve`` - keeping the counters untouched, as the dense
    ladder never fed :class:`KernelStats` either.
    """

    def __init__(self, work: SparseNewtonWork) -> None:
        self.plan = work.plan
        self.kernel = work.kernel
        self.lu = work.lu
        self._jw: Optional[np.ndarray] = None
        self._dev = np.empty(self.plan.nnz)
        self._delta = np.empty(work.n_free)

    def currents(self, v: np.ndarray) -> np.ndarray:
        """Static device currents at ``v`` (full length), keeping the
        Jacobian stamp weights for the following :meth:`solve`."""
        f, self._jw = self.kernel.eval(v, with_jacobian=True)
        return f

    def solve(self, shunt: float, residual: np.ndarray) -> np.ndarray:
        """``delta = -(J_ff + shunt * I)^-1 residual`` at the last
        :meth:`currents` iterate.  Singularity surfaces as a non-finite
        delta, which the caller's finite guard rejects - the same
        contract as the dense ``LinAlgError`` branch."""
        plan = self.plan
        data = plan.device_data(self._jw, self._dev)
        if shunt:
            data[plan.diag_pos] += shunt
        self.lu.factor(data)
        self.lu.solve(residual, out=self._delta)
        np.negative(self._delta, out=self._delta)
        return self._delta
