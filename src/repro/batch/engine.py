"""Lockstep transient integration of a stacked circuit batch.

:func:`batch_transient` advances every sample of a
:class:`~repro.batch.compile.BatchCompiledCircuit` along *one shared
time axis*: the step size ``h``, breakpoint schedule and BE/trapezoidal
switching are common to the batch, while Newton convergence, local
truncation error and liveness are tracked per sample.

Mask semantics
--------------
Three per-sample masks drive the loop:

* ``alive`` - samples still integrated in lockstep.  Dead samples keep
  their last accepted state frozen (their recorded waveform stops being
  meaningful at the time of death) and are excluded from every residual,
  error and growth computation.
* ``converged`` (inside the Newton solve) - samples whose update norm
  dropped below ``vntol`` (or whose contraction-extrapolated next update
  did - the scalar engine's predicted-acceptance rule); they freeze
  while the stragglers iterate on.
* ``failed`` (inside the Newton solve) - samples whose linear solve went
  singular or produced NaN/Inf; their inverse comes back as NaNs from
  the batched factorization (see :func:`repro.analog.kernels.raw_inv`),
  the non-finite step guard freezes them at the last finite iterate,
  and they cannot poison their batchmates (each sample owns its own
  cached inverse).

Step control is the scalar engine's predictor/corrector scheme applied
to the worst active sample: any active sample rejecting a step shrinks
``h`` for the whole batch (the "drop to the batch's min accepted h"
contract), and growth follows the largest active error.  The growth
ceiling matches the scalar 2x clip: with identical control laws a batch
of size one walks *exactly* the scalar grid, so a single-sample batch is
bit-identical to the scalar engine - the property the white-box
equivalence tests pin.

Fallback contract
-----------------
The in-batch escalation ladder is *step-halving only*.  A sample that
still refuses to converge at the ``dt_min`` floor (or goes non-finite,
or fails its operating point) is masked out with a recorded reason -
never rescued half-heartedly in batch - and the caller re-dispatches it
to the scalar engine, which owns the full damped-Newton/gmin-restart
ladder and the failure diagnostics of PR 2.  ``ok`` on the result marks
the samples whose lockstep integration completed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.analog.dcop import dc_operating_point
from repro.analog.engine import TransientCheckpoint, TransientOptions
from repro.analog.kernels import REUSE_SLOWDOWN, KernelStats, c_einsum, raw_inv
from repro.analog.waveform import Waveform
from repro.batch.compile import BatchCompiledCircuit
from repro.errors import ConvergenceError

#: Growth-factor ceiling of the batch step controller.  Kept equal to
#: the scalar engine's 2x clip on purpose: with the same control law a
#: single-sample batch reproduces the scalar grid point for point, which
#: makes batch-vs-scalar bit-identity at ``B == 1`` a testable invariant
#: of the whole vectorised arithmetic path.
GROWTH_MAX = 2.0

#: Breakpoints of different samples closer than this are merged into one
#: restart (seconds).  Clock slews are >= 100 ps in every paper
#: workload, so a 1 ps merge cannot blur distinct waveform corners.
BREAKPOINT_MERGE_TOL = 1e-12


@dataclass
class BatchTransientResult:
    """Waveforms and masks of one lockstep run.

    Attributes
    ----------
    times:
        Shared accepted time points, ``(T,)``.
    voltages:
        Per recorded node, a ``(T, B)`` array; column ``b`` is sample
        ``b``'s waveform.  Columns of samples with ``ok[b] == False``
        are frozen at their last accepted value from the moment the
        sample was masked out and must not be interpreted.
    ok:
        ``(B,)`` bool; True where the sample completed in lockstep.
    escalations:
        Batch-level solver tally: ``"step-halving"`` events (each event
        shrank the shared step once) and the ``"dcop:*"`` rung counts of
        the per-sample operating points.
    fallback_reasons:
        ``sample index -> reason`` for every masked-out sample (the
        caller's re-dispatch list).
    kernel_stats:
        Hot-loop observability record of the run
        (:meth:`repro.analog.kernels.KernelStats.as_dict`).
        ``newton_iterations``/``factorizations``/``jacobian_reuses``
        count *per sample* (so ratios are comparable with the scalar
        engine's); ``assembles`` counts whole-stack kernel calls.
    """

    times: np.ndarray
    voltages: Dict[str, np.ndarray]
    ok: np.ndarray
    escalations: Dict[str, int] = field(default_factory=dict)
    fallback_reasons: Dict[int, str] = field(default_factory=dict)
    kernel_stats: Dict[str, float] = field(default_factory=dict)

    @property
    def batch_size(self) -> int:
        """Number of samples ``B``."""
        return int(self.ok.shape[0])

    def wave(self, node: str, sample: int) -> Waveform:
        """Waveform of ``node`` for one sample."""
        if node not in self.voltages:
            raise KeyError(f"node {node!r} was not recorded")
        return Waveform(
            times=self.times,
            values=self.voltages[node][:, sample],
            name=f"{node}[{sample}]",
        )

    def __len__(self) -> int:
        return len(self.times)


def _masked_solve(
    jacobian: np.ndarray, rhs: np.ndarray, active: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Solve ``jacobian[b] @ x[b] = rhs[b]`` for the active samples.

    Inactive samples are neutralised with an identity system so the
    batched solve cannot be poisoned by their (possibly stale) matrices.
    Active samples whose matrix is singular or non-finite are resolved
    individually and reported as unsolved rather than raising for the
    whole batch.

    Returns ``(x, solved)``: ``x`` is zero wherever ``solved`` is False.
    """
    B, nf, _ = jacobian.shape
    eye = np.eye(nf)
    j = np.where(active[:, None, None], jacobian, eye)
    r = np.where(active[:, None], rhs, 0.0)
    solved = active.copy()

    bad = active & (
        ~np.isfinite(j).all(axis=(1, 2)) | ~np.isfinite(r).all(axis=1)
    )
    if bad.any():
        j[bad] = eye
        r[bad] = 0.0
        solved &= ~bad

    try:
        x = np.linalg.solve(j, r[..., None])[..., 0]
    except np.linalg.LinAlgError:
        x = np.zeros((B, nf))
        for b in np.flatnonzero(solved):
            try:
                xb = np.linalg.solve(j[b], r[b])
            except np.linalg.LinAlgError:
                solved[b] = False
                continue
            if not np.isfinite(xb).all():
                solved[b] = False
                continue
            x[b] = xb
        return x, solved

    nonfinite = solved & ~np.isfinite(x).all(axis=1)
    if nonfinite.any():
        x[nonfinite] = 0.0
        solved &= ~nonfinite
    x[~solved] = 0.0
    return x, solved


class _BatchNewtonWork:
    """Per-run scratch of the lockstep Newton loop.

    The batched twin of :class:`repro.analog.engine._NewtonWork`: owns
    the reusable residual/Jacobian buffers, the cached per-sample
    Jacobian inverses of the modified-Newton policy - keyed on the
    shared ``(h, alpha)`` scaling and persisting across time steps, with
    a per-sample ``valid`` mask - and the
    :class:`~repro.analog.kernels.KernelStats` counters.
    """

    def __init__(
        self, batch: BatchCompiledCircuit, options: TransientOptions
    ) -> None:
        B, n, nf = batch.batch_size, batch.n_total, batch.n_free
        self.kernel = batch.kernel()
        self.stats = KernelStats()
        self.modified = options.reuses_factorizations
        self.qh = np.empty((B, nf))
        self.rhs0 = np.empty((B, nf))
        self.neg_res = np.empty((B, nf))
        self.delta = np.empty((B, nf))
        self.tmp = np.empty((B, nf))
        self.abs_buf = np.empty((B, nf))
        self.j_inv = np.empty((B, nf, nf))
        self.step = np.empty(B)
        self.step_prev = np.empty(B)
        self.c_rows = batch.C[:, :nf, :]
        self.c_over_h = np.empty((B, nf, n))
        self.h_scaled: Optional[float] = None
        self.valid = np.zeros(B, dtype=bool)
        self.key: Optional[Tuple[float, float]] = None

    def scaled_c(self, h: float) -> np.ndarray:
        """``C[:, :n_free, :] / h``, recomputed only when ``h`` changes."""
        if self.h_scaled != h:
            np.multiply(self.c_rows, 1.0 / h, out=self.c_over_h)
            self.h_scaled = h
        return self.c_over_h


def stack_bytes_per_sample(
    n_total: int, n_free: int, itemsize: int = 8
) -> int:
    """Approximate resident bytes one sample adds to a lockstep stack.

    The dominant dense allocations a ``(B, n, n)`` stack carries *per
    sample*: the stacked linear MNA parts (``G`` and ``C``, each
    ``n_total**2``), the cached Jacobian inverse of the modified-Newton
    policy (``n_free**2``), the ``C[:, :n_free, :] / h`` scratch
    (``n_free * n_total``) and the handful of ``(B, n_free)`` Newton
    work vectors (see :class:`_BatchNewtonWork`).  The dispatcher's
    ``REPRO_BATCH_SIZE`` auto-tune divides its memory budget by this to
    bound the stack size - an estimate on purpose: it only needs to keep
    whole-chip-scale stacks (where ``n_free**2`` dominates) from blowing
    past the budget, not to account every transient history array.
    """
    n, nf = int(n_total), int(n_free)
    matrices = 2 * n * n + nf * nf + nf * n
    vectors = 16 * nf + 8
    return max(1, int(itemsize) * (matrices + vectors))


def _newton_step_batch(
    batch: BatchCompiledCircuit,
    v_guess: np.ndarray,
    v_sources: np.ndarray,
    q_prev: np.ndarray,
    f_prev: Optional[np.ndarray],
    h: float,
    alpha: float,
    options: TransientOptions,
    active: np.ndarray,
    work: Optional[_BatchNewtonWork] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One implicit step for the whole stack; ``alpha=1`` BE, ``0.5`` trap.

    Solves the scalar residual
    ``(q - q_prev)/h + alpha*f + (1-alpha)*f_prev = 0`` per sample, with
    the scalar engine's damping clip, modified-Newton factorization
    cache and predicted-acceptance rule applied per sample (see
    :func:`repro.analog.engine._newton_step` - the control flow here is
    that function's, vectorised, so a single-sample batch takes exactly
    the scalar decision sequence).  Samples converge (and freeze)
    individually; a sample whose solve goes non-finite is frozen at the
    last finite iterate with its cached factorization invalidated.

    Returns ``(v_new, converged)``; ``converged`` is a subset of
    ``active`` - the samples whose step succeeded.  Rows of
    non-converged samples hold their last iterate and must not be
    accepted.
    """
    n_free = batch.n_free
    if work is None:
        work = _BatchNewtonWork(batch, options)
    kernel, stats = work.kernel, work.stats
    v = v_guess.copy()
    v[:, n_free:] = v_sources[:, n_free:]

    modified = work.modified
    if not (modified and work.key == (h, alpha)):
        work.valid[:] = False  # never reuse across a system-scaling change
    valid = work.valid
    j_inv = work.j_inv
    c_over_h = work.scaled_c(h)
    # Iteration-invariant part of the negated residual:
    # ``q_prev / h - (1 - alpha) * f_prev``.
    rhs0, tmp = work.rhs0, work.tmp
    np.multiply(q_prev[:, :n_free], 1.0 / h, out=rhs0)
    if f_prev is not None:
        np.multiply(f_prev[:, :n_free], 1.0 - alpha, out=tmp)
        rhs0 -= tmp

    neg_res, delta, qh = work.neg_res, work.delta, work.qh
    abs_buf, step, step_prev = work.abs_buf, work.step, work.step_prev
    step_prev[:] = np.inf
    step[:] = 0.0
    vntol = options.vntol
    slowdown = REUSE_SLOWDOWN
    is_be = alpha == 1.0
    converged = np.zeros(batch.batch_size, dtype=bool)
    live = active.copy()

    # Hot-loop counters accumulate in locals; flushed in ``finally``.
    n_iters = n_assembles = n_factor = n_refactor = n_reuse = 0
    assemble_acc = factor_acc = solve_acc = 0.0

    try:
        for iteration in range(options.max_newton):
            if not live.any():
                break
            need_fresh = live & ~valid
            t0 = perf_counter()
            f, j = kernel.eval(v, with_jacobian=bool(need_fresh.any()))
            n_iters += int(np.count_nonzero(live))
            n_assembles += 1
            # Negated residual: rhs0 - (C/h) @ v - alpha * f(v).
            c_einsum("bij,bj->bi", c_over_h, v, out=qh)
            np.subtract(rhs0, qh, out=neg_res)
            if is_be:
                neg_res -= f[:, :n_free]
            else:
                np.multiply(f[:, :n_free], alpha, out=tmp)
                neg_res -= tmp
            assemble_acc += perf_counter() - t0

            try_stale = live & valid
            if try_stale.any():
                t0 = perf_counter()
                c_einsum("bij,bj->bi", j_inv, neg_res, out=delta)
                if n_free:
                    np.abs(delta, out=abs_buf)
                    np.maximum.reduce(abs_buf, axis=1, out=step)
                else:
                    step[:] = 0.0
                solve_acc += perf_counter() - t0
                # NaN fails the comparison too, triggering a refactor.
                reuse = try_stale & (step <= slowdown * step_prev)
                n_reuse += int(np.count_nonzero(reuse))
                n_refactor += int(np.count_nonzero(try_stale & ~reuse))
                fresh = live & ~reuse
            else:
                fresh = need_fresh

            if fresh.any():
                if j is None:
                    t0 = perf_counter()
                    f, j = kernel.eval(v, with_jacobian=True)
                    n_assembles += 1
                    assemble_acc += perf_counter() - t0
                t0 = perf_counter()
                sub = np.flatnonzero(fresh)
                jac = j[sub][:, :n_free, :n_free] * alpha
                jac += c_over_h[sub][:, :, :n_free]
                # Singular jac -> NaN inverse (see kernels.raw_inv); the
                # non-finite step guard below freezes the sample.
                inv_sub = raw_inv(jac)
                j_inv[sub] = inv_sub
                valid[sub] = modified
                work.key = (h, alpha)
                n_factor += len(sub)
                factor_acc += perf_counter() - t0
                t0 = perf_counter()
                delta[sub] = c_einsum("bij,bj->bi", inv_sub, neg_res[sub])
                if n_free:
                    np.abs(delta, out=abs_buf)
                    np.maximum.reduce(abs_buf, axis=1, out=step)
                else:
                    step[:] = 0.0
                solve_acc += perf_counter() - t0

            # Catches NaN and +inf in one comparison, before the update
            # is applied - the frozen iterate stays finite.
            bad = live & ~(step < np.inf)
            if bad.any():
                valid &= ~bad
                live &= ~bad
                if not live.any():
                    break

            over = live & (step > 1.0)
            if over.any():
                delta[over] *= (1.0 / step[over])[:, None]
            v[live, :n_free] += delta[live]

            done = live & (step < vntol)
            if iteration:
                # Predicted acceptance, per sample: the contraction-
                # extrapolated next update ``step^2 / step_prev`` already
                # under vntol accepts one evaluate/solve round early
                # (``iteration > 0`` guards the step_prev = inf
                # bootstrap) - the scalar engine's exact rule.
                done |= live & (step * step < vntol * step_prev)
            converged |= done
            live &= ~done
            np.copyto(step_prev, step, where=live)
    finally:
        stats.newton_iterations += n_iters
        stats.assembles += n_assembles
        stats.factorizations += n_factor
        stats.refactorizations += n_refactor
        stats.jacobian_reuses += n_reuse
        stats.assemble_s += assemble_acc
        stats.factor_s += factor_acc
        stats.solve_s += solve_acc
    return v, converged


def _newton_static_batch(
    batch: BatchCompiledCircuit,
    v: np.ndarray,
    shunt: float,
    target: np.ndarray,
    active: np.ndarray,
    max_iter: int = 200,
    vntol: float = 1e-9,
    itol: float = 1e-12,
) -> Tuple[np.ndarray, np.ndarray]:
    """Batched twin of :func:`repro.analog.dcop._newton_static`.

    Solves ``i(v) + shunt * (v - target) = 0`` on the free nodes of every
    active sample, with the scalar solver's damping clip and two-part
    (update + residual) convergence test.  Returns ``(v, converged)``.
    """
    n_free = batch.n_free
    v = v.copy()
    converged = np.zeros(batch.batch_size, dtype=bool)
    live = active.copy()
    for _ in range(max_iter):
        if not live.any():
            break
        f, j = batch.device_currents(v, with_jacobian=True)
        residual = f[:, :n_free] + shunt * (v[:, :n_free] - target[:, :n_free])
        jacobian = j[:, :n_free, :n_free] + shunt * np.eye(n_free)
        delta, solved = _masked_solve(jacobian, -residual, live)
        live &= solved

        step = np.max(np.abs(delta), axis=1)
        over = live & (step > 1.0)
        if over.any():
            delta[over] *= (1.0 / step[over])[:, None]
        v[live, :n_free] += delta[live]

        blown = live & ~np.isfinite(v[:, :n_free]).all(axis=1)
        live &= ~blown

        res_max = np.max(np.abs(residual), axis=1)
        f_scale = np.maximum(np.max(np.abs(f[:, :n_free]), axis=1), 1e-12)
        res_tol = np.maximum(itol, 1e-6 * f_scale)
        just_done = live & (step < vntol) & (res_max < res_tol)
        converged |= just_done
        live &= ~just_done
    return v, converged


def _batch_dcop(
    batch: BatchCompiledCircuit,
    t: float,
    initial: Optional[Sequence[Optional[Dict[str, float]]]],
    escalations: Dict[str, int],
    fallback_reasons: Dict[int, str],
) -> Tuple[np.ndarray, np.ndarray]:
    """Operating points for the whole stack at time ``t``.

    The direct Newton rung runs vectorized over the batch; samples it
    cannot converge fall back to the scalar
    :func:`~repro.analog.dcop.dc_operating_point` (full three-rung
    ladder).  Samples the scalar ladder also rejects are masked out with
    reason ``"dcop"``.

    Returns ``(v, alive)`` with ``v`` of shape ``(B, n_total)``.
    """
    B = batch.batch_size
    v = batch.source_voltages(t)
    vdd = np.max(v[:, batch.n_free:], axis=1, initial=0.0)
    v[:, : batch.n_free] = (vdd / 2.0)[:, None]
    if initial is not None:
        for b, guesses in enumerate(initial):
            if not guesses:
                continue
            for node, voltage in guesses.items():
                index = batch.node_index.get(node)
                if index is not None and index < batch.n_free:
                    v[b, index] = voltage

    alive = np.ones(B, dtype=bool)
    if batch.n_free == 0:
        escalations["dcop:direct"] = escalations.get("dcop:direct", 0) + B
        return v, alive

    target = v.copy()
    solved, converged = _newton_static_batch(
        batch, v, 1e-12, target, np.ones(B, dtype=bool)
    )
    v = np.where(converged[:, None], solved, v)
    escalations["dcop:direct"] = (
        escalations.get("dcop:direct", 0) + int(converged.sum())
    )

    for b in np.flatnonzero(~converged):
        guesses = initial[b] if initial is not None else None
        stats: Dict[str, object] = {}
        try:
            v[b] = dc_operating_point(
                batch.circuits[b], t=t, initial=guesses, stats=stats
            )
        except ConvergenceError:
            alive[b] = False
            fallback_reasons[b] = "dcop"
            continue
        rung = f"dcop:{stats.get('dcop_rung', 'direct')}"
        escalations[rung] = escalations.get(rung, 0) + 1
    return v, alive


def merge_breakpoints(points: Iterable[float], tol: float) -> List[float]:
    """Coalesce sorted breakpoints closer than ``tol`` into their first
    representative, bounding the number of ``dt_start`` restarts the
    merged schedule forces on the batch."""
    merged: List[float] = []
    for point in sorted(points):
        if not merged or point - merged[-1] > tol:
            merged.append(point)
    return merged


def batch_transient(
    batch: BatchCompiledCircuit,
    t_stop: float,
    t_start: float = 0.0,
    record: Optional[Iterable[str]] = None,
    initial: Optional[Sequence[Optional[Dict[str, float]]]] = None,
    options: Optional[TransientOptions] = None,
    resume_from: Optional[TransientCheckpoint] = None,
) -> BatchTransientResult:
    """Integrate every sample of ``batch`` in lockstep over
    ``[t_start, t_stop]``.

    Parameters
    ----------
    batch:
        Stacked circuits from :func:`~repro.batch.compile.compile_batch`.
    record:
        Node names whose voltages to keep; defaults to every node.
    initial:
        Per-sample initial-guess dicts for the operating point (length
        ``B``; entries may be ``None``).  Ignored with ``resume_from``.
    options:
        Scalar-engine knobs, shared by the batch; the in-batch ladder
        honours only the ``"step-halving"`` rung (see the module
        docstring's fallback contract).
    resume_from:
        A *scalar* :class:`~repro.analog.engine.TransientCheckpoint`
        broadcast over the whole stack: every sample starts from the
        same prefix state (``t_start`` is taken from the checkpoint, the
        per-sample operating-point solves are skipped) and the first
        step uses the backward-Euler-after-breakpoint restart, exactly
        like the scalar resume.  Legal because
        :func:`~repro.batch.compile.compile_batch` enforces an identical
        node ordering across samples - which is also checked here
        against the checkpoint's ``nodes`` guard.

    Unlike the scalar :func:`~repro.analog.engine.transient`, this never
    raises on a non-convergent sample: the sample is masked out
    (``ok[b] = False``, reason recorded) and the survivors continue.
    """
    options = options or TransientOptions()
    B = batch.batch_size
    n_free = batch.n_free

    record = list(record) if record is not None else sorted(batch.node_index)
    for node in record:
        if node not in batch.node_index:
            raise KeyError(f"cannot record unknown node {node!r}")

    if resume_from is not None:
        order = tuple(sorted(batch.node_index, key=batch.node_index.get))
        if resume_from.nodes != order:
            raise ValueError(
                "checkpoint node order does not match batch "
                f"(checkpoint {resume_from.nodes}, batch {order})"
            )
        t_start = resume_from.t
    if t_stop <= t_start:
        raise ValueError(f"need t_stop > t_start (got {t_start} .. {t_stop})")

    raw = [b for b in batch.breakpoints(t_start, t_stop) if b > t_start]
    raw.append(t_stop)
    breakpoints = merge_breakpoints(raw, BREAKPOINT_MERGE_TOL)

    escalations: Dict[str, int] = {}
    fallback_reasons: Dict[int, str] = {}
    if resume_from is not None:
        v = np.tile(resume_from.state, (B, 1))
        alive = np.ones(B, dtype=bool)
    else:
        v, alive = _batch_dcop(
            batch, t_start, initial, escalations, fallback_reasons
        )

    work = _BatchNewtonWork(batch, options)
    kernel, stats = work.kernel, work.stats

    times: List[float] = [t_start]
    states: List[np.ndarray] = [v.copy()]

    t = t_start
    h = options.dt_start
    eps_t = 64.0 * np.spacing(max(abs(t_stop), abs(t_start), 1e-12))
    bp_index = 0
    force_be = True
    if resume_from is not None:
        v_prev = np.tile(resume_from.state_prev, (B, 1))
        t_prev = resume_from.t_prev
    else:
        v_prev = v.copy()
        t_prev = t

    # Reusable step buffers, mirroring the scalar engine's workspaces:
    # sources, predictor, charge history and the LTE weight/error
    # scratch - the lockstep loop allocates only the accepted states it
    # records and the Newton iterate it hands back.
    n_total = batch.n_total
    v_sources = np.zeros((B, n_total))
    batch.source_voltages_into(t_start, v_sources)  # constants written once
    v_pred = np.empty((B, n_total))
    q_prev = np.empty((B, n_total))
    weight = np.empty((B, n_free))
    err_buf = np.empty((B, n_free))
    err_all = np.zeros(B)

    def _mask(samples: np.ndarray, reason: str) -> None:
        for b in np.flatnonzero(samples):
            alive[b] = False
            fallback_reasons[b] = reason

    while t < t_stop - eps_t and alive.any():
        while bp_index < len(breakpoints) and breakpoints[bp_index] <= t + eps_t:
            bp_index += 1
        next_bp = breakpoints[bp_index] if bp_index < len(breakpoints) else t_stop
        h = min(h, options.dt_max, t_stop - t)
        hit_bp = False
        if t + h >= next_bp - eps_t:
            h = next_bp - t
            hit_bp = True
        if h < options.dt_min:
            _mask(alive.copy(), "step-underflow")
            break

        t_new = t + h
        batch.source_voltages_into(t_new, v_sources, dynamic_only=True)
        # Predictor: linear extrapolation of the last two accepted points
        # (same rounding order as the scalar engine's in-place form).
        if t > t_prev:
            np.subtract(v, v_prev, out=v_pred)
            v_pred /= t - t_prev
            v_pred *= h
            v_pred += v
        else:
            np.copyto(v_pred, v)

        alpha = 1.0 if force_be else 0.5
        f_hist = None
        if not force_be:
            f_hist, _ = kernel.eval(v, with_jacobian=False, stats=stats)
        c_einsum("bij,bj->bi", batch.C, v, out=q_prev)

        v_new, converged = _newton_step_batch(
            batch, v_pred, v_sources, q_prev, f_hist, h, alpha, options,
            alive, work=work,
        )
        blown = converged & ~np.isfinite(v_new).all(axis=1)
        converged &= ~blown
        stuck = alive & ~converged
        masked_now = False
        if stuck.any():
            if h * 0.25 >= options.dt_min and "step-halving" in options.escalation:
                # The whole batch retries at the failing samples' pace.
                escalations["step-halving"] = (
                    escalations.get("step-halving", 0) + 1
                )
                h *= 0.25
                force_be = True
                continue
            # Floor reached: mask the stragglers out, keep the rest.
            _mask(stuck, "non-finite" if blown.any() else "newton-floor")
            masked_now = True
            if not alive.any():
                break

        t_accept = perf_counter()
        # Per-sample LTE on the active samples, computed into the reused
        # buffers (rounding order matches the scalar expression exactly).
        if n_free:
            np.abs(v_new[:, :n_free], out=weight)
            np.maximum(weight, 1.0, out=weight)
            weight *= options.reltol
            weight += options.vabstol
            np.subtract(v_new[:, :n_free], v_pred[:, :n_free], out=err_buf)
            np.abs(err_buf, out=err_buf)
            err_buf /= weight
            np.maximum.reduce(err_buf, axis=1, out=err_all)
        else:
            err_all[:] = 0.0
        err_active = err_all[alive]
        err_worst = float(err_active.max()) if err_active.size else 0.0

        if (
            not masked_now
            and err_worst > options.lte_reject
            and not hit_bp
            and h > 4 * options.dt_min
        ):
            h *= 0.4  # any rejecting sample shrinks the shared step
            stats.accept_s += perf_counter() - t_accept
            continue

        # Accept: dead samples carry their last state forward frozen.
        np.copyto(v_new, v, where=~alive[:, None])
        v_prev, t_prev = v, t
        v, t = v_new, t_new
        times.append(t)
        states.append(v)  # _newton_step_batch returned a fresh array
        force_be = False
        if hit_bp or masked_now:
            h = options.dt_start
            force_be = True
        else:
            grow = 0.9 * (1.0 / max(err_worst, 1e-12)) ** (1.0 / 3.0)
            h *= float(np.clip(grow, 0.4, GROWTH_MAX))
        stats.accept_s += perf_counter() - t_accept

    time_array = np.asarray(times)
    state_array = np.asarray(states)  # (T, B, n)
    voltages = {
        node: state_array[:, :, batch.node_index[node]].copy() for node in record
    }
    return BatchTransientResult(
        times=time_array,
        voltages=voltages,
        ok=alive.copy(),
        escalations=escalations,
        fallback_reasons=fallback_reasons,
        kernel_stats=stats.as_dict(),
    )
