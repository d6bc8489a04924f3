"""One runtime-compiled C library for every numeric hot loop.

Two kernels share it:

* the multi-RHS sparse LU solve and the fused backward-Euler step
  (``lu_solve_many``, ``be_step_many``) behind
  :mod:`repro.powergrid.fastsolve`;
* the group-lasso FISTA loop (``fista_group``) behind
  :func:`repro.core.group_lasso.group_lasso_penalized`.

The library is compiled once per machine with ``cc -O3
-ffp-contract=off`` through cffi and cached on disk under a name keyed
by the source hash (``~/.cache/repro/kernels/``, override with
``REPRO_KERNEL_CACHE``), so whichever kernel is needed first builds
both.  ``-ffp-contract=off`` keeps every multiply/add sequence exactly
as written: no FMA contraction can perturb a rounding, which the
kernels' operation-for-operation equivalence with their numpy
reference paths depends on.

:func:`load_library` returns ``None`` — and every caller falls back to
its numpy/scipy path — when ``REPRO_DISABLE_CKERNEL`` is set (checked
on every call), cffi or a C compiler is missing, or compilation fails.
Each kernel's binding validates it against its reference path
(:func:`kernel` runs the check registered for it once per process);
a kernel that fails its check is not used.

Every kernel is re-entrant: it keeps no state between calls and works
only in buffers its caller allocates, so threads may call it
concurrently (cffi releases the GIL for the call).
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Callable, Dict, Optional, Tuple

__all__ = [
    "active_kernels",
    "kernel",
    "kernel_cache_dir",
    "load_library",
    "register_self_check",
]

#: Set (to anything non-empty) to force every numpy/scipy fallback.
DISABLE_ENV_VAR = "REPRO_DISABLE_CKERNEL"

#: Overrides the compiled-kernel cache directory.
CACHE_ENV_VAR = "REPRO_KERNEL_CACHE"

_LU_SOURCE = r"""
/* Multi-RHS solve of  A x = b  given  A[ipr][:, ipc^-1] = L U  from a
 * SuperLU factorization without equilibration.
 *
 * Layout: b, x and the work buffer are row-major (n, nrhs); the inner
 * loops run over the contiguous nrhs dimension so they vectorize.
 * L is CSC with sorted indices and an explicit unit diagonal stored
 * first in each column; U is CSC with sorted indices, diagonal last.
 */
void lu_solve_many(
    int n, int nrhs,
    const int *Lp, const int *Li, const double *Lx,
    const int *Up, const int *Ui, const double *Ux,
    const int *ipr, const int *pc,
    const double *b, double *x, double *y)
{
    int j, k, t;
    /* scatter: y = b[ipr] */
    for (j = 0; j < n; ++j) {
        const double *src = b + (long)ipr[j] * nrhs;
        double *dst = y + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) dst[t] = src[t];
    }
    /* forward solve L y = y (unit diagonal, stored first) */
    for (j = 0; j < n; ++j) {
        const double *yj = y + (long)j * nrhs;
        for (k = Lp[j] + 1; k < Lp[j + 1]; ++k) {
            double lv = Lx[k];
            double *yi = y + (long)Li[k] * nrhs;
            for (t = 0; t < nrhs; ++t) yi[t] -= lv * yj[t];
        }
    }
    /* backward solve U y = y (diagonal stored last) */
    for (j = n - 1; j >= 0; --j) {
        int end = Up[j + 1] - 1;
        double d = Ux[end];
        double *yj = y + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) yj[t] /= d;
        for (k = Up[j]; k < end; ++k) {
            double uv = Ux[k];
            double *yi = y + (long)Ui[k] * nrhs;
            for (t = 0; t < nrhs; ++t) yi[t] -= uv * yj[t];
        }
    }
    /* gather: x[k] = y[pc[k]] */
    for (j = 0; j < n; ++j) {
        const double *src = y + (long)pc[j] * nrhs;
        double *dst = x + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) dst[t] = src[t];
    }
}

/* One fused backward-Euler timestep for all right-hand sides:
 *   rhs   = cap_over_h * v - load  (+ pad companion injections)
 *   v_out = A^-1 rhs               (permuted L/U triangular solves)
 *   pad_i = pad_g*(vdd - v_out[pad]) + pad_gl*pad_i
 * The right-hand side is assembled directly into the row-permuted work
 * buffer, so the step makes no extra full-array passes beyond the
 * solve itself.  Every arithmetic expression mirrors the numpy
 * reference path operation for operation (the file is compiled with
 * -ffp-contract=off, so no FMA contraction can perturb a rounding).
 */
void be_step_many(
    int n, int nrhs,
    const int *Lp, const int *Li, const double *Lx,
    const int *Up, const int *Ui, const double *Ux,
    const int *ipr, const int *pc, const int *pr,
    const double *cap_over_h,
    const double *v,
    const double *load, long load_row_stride,
    const int *pad_nodes, int n_pads,
    const double *pad_g, const double *pad_gl, const double *pad_g_vdd,
    double vdd,
    double *pad_i,
    double *v_out, double *y)
{
    int j, k, t;
    /* fused scatter + rhs build: y[j] = cap[r]*v[r] - load[r], r = ipr[j] */
    for (j = 0; j < n; ++j) {
        long r = ipr[j];
        double c = cap_over_h[r];
        const double *vr = v + r * nrhs;
        const double *lr = load + r * load_row_stride;
        double *yj = y + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) {
            double prod = c * vr[t];
            yj[t] = prod - lr[t];
        }
    }
    /* pad companion injection at the permuted rows */
    for (k = 0; k < n_pads; ++k) {
        double gv = pad_g_vdd[k];
        double gl = pad_gl[k];
        const double *pik = pad_i + (long)k * nrhs;
        double *yj = y + (long)pr[pad_nodes[k]] * nrhs;
        for (t = 0; t < nrhs; ++t) {
            double term = gl * pik[t];
            double inj = gv + term;
            yj[t] += inj;
        }
    }
    /* forward solve L y = y (unit diagonal, stored first) */
    for (j = 0; j < n; ++j) {
        const double *yj = y + (long)j * nrhs;
        for (k = Lp[j] + 1; k < Lp[j + 1]; ++k) {
            double lv = Lx[k];
            double *yi = y + (long)Li[k] * nrhs;
            for (t = 0; t < nrhs; ++t) yi[t] -= lv * yj[t];
        }
    }
    /* backward solve U y = y (diagonal stored last) */
    for (j = n - 1; j >= 0; --j) {
        int end = Up[j + 1] - 1;
        double d = Ux[end];
        double *yj = y + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) yj[t] /= d;
        for (k = Up[j]; k < end; ++k) {
            double uv = Ux[k];
            double *yi = y + (long)Ui[k] * nrhs;
            for (t = 0; t < nrhs; ++t) yi[t] -= uv * yj[t];
        }
    }
    /* gather: v_out[k] = y[pc[k]] */
    for (j = 0; j < n; ++j) {
        const double *src = y + (long)pc[j] * nrhs;
        double *dst = v_out + (long)j * nrhs;
        for (t = 0; t < nrhs; ++t) dst[t] = src[t];
    }
    /* pad branch-current update from the solved voltages */
    for (k = 0; k < n_pads; ++k) {
        double g = pad_g[k];
        double gl = pad_gl[k];
        const double *vk = v_out + (long)pad_nodes[k] * nrhs;
        double *pik = pad_i + (long)k * nrhs;
        for (t = 0; t < nrhs; ++t) {
            double drop = vdd - vk[t];
            double drive = g * drop;
            double hist = gl * pik[t];
            pik[t] = drive + hist;
        }
    }
}
"""

_LU_CDEF = """
void lu_solve_many(
    int n, int nrhs,
    const int *Lp, const int *Li, const double *Lx,
    const int *Up, const int *Ui, const double *Ux,
    const int *ipr, const int *pc,
    const double *b, double *x, double *y);
void be_step_many(
    int n, int nrhs,
    const int *Lp, const int *Li, const double *Lx,
    const int *Up, const int *Ui, const double *Ux,
    const int *ipr, const int *pc, const int *pr,
    const double *cap_over_h,
    const double *v,
    const double *load, long load_row_stride,
    const int *pad_nodes, int n_pads,
    const double *pad_g, const double *pad_gl, const double *pad_g_vdd,
    double vdd,
    double *pad_i,
    double *v_out, double *y);
"""

_FISTA_SOURCE = r"""
#include <math.h>
#include <string.h>

/* FISTA with gradient-scheme adaptive restart for the penalized group
 * lasso  min 1/2 tr(B S B^T) - tr(B A) + mu * sum_m ||B[:, m]||,
 * the loop of repro.core.group_lasso._fista_numpy step for step:
 *
 *   W      = Y - step * (Y S - A^T)
 *   B_new  = W * max(0, 1 - mu*step / max(||W[:, m]||, 1e-300))
 *   t_new  = (1 + sqrt(1 + 4 t^2)) / 2
 *   restart when sum((Y - B_new) * (B_new - B)) > 0:  t_new = 1, Y = B_new
 *   else Y = B_new + (t - 1)/t_new * (B_new - B)
 *   stop when max|B_new - B| / max(1, max|B_new|) <= tol.
 *
 * All matrices are row-major: B, Y, Bn and AT are (K, M), S is (M, M).
 * Y S runs over Y's nonzero columns only: Y is group-sparse (the union
 * of the last two iterates' supports), and a zero column adds nothing,
 * so skipping it changes rounding only.  B holds the start on entry and
 * the last iterate on return; Y and Bn (K*M), col (M) and nz (M ints)
 * are caller-owned work buffers, so concurrent calls share nothing.
 * Returns the iteration count.
 */
static void forward_rows(
    int nrows, int M, int n_nz, const int *nz, const double *S,
    const double *Y, double *W)
{
    /* W[r, :] = sum_{j in nz} Y[r, j] * S[j, :] for nrows (<= 4) rows;
     * four rows at a time share each S row load. */
    int idx, m, r;
    if (nrows == 4) {
        double *restrict w0 = W, *restrict w1 = W + M;
        double *restrict w2 = W + 2L * M, *restrict w3 = W + 3L * M;
        for (m = 0; m < M; ++m) w0[m] = w1[m] = w2[m] = w3[m] = 0.0;
        for (idx = 0; idx < n_nz; ++idx) {
            const int j = nz[idx];
            const double *restrict sj = S + (long)j * M;
            const double y0 = Y[j], y1 = Y[M + j];
            const double y2 = Y[2L * M + j], y3 = Y[3L * M + j];
            for (m = 0; m < M; ++m) {
                const double s = sj[m];
                w0[m] += y0 * s;
                w1[m] += y1 * s;
                w2[m] += y2 * s;
                w3[m] += y3 * s;
            }
        }
        return;
    }
    for (r = 0; r < nrows; ++r) {
        const double *yr = Y + (long)r * M;
        double *restrict wr = W + (long)r * M;
        for (m = 0; m < M; ++m) wr[m] = 0.0;
        for (idx = 0; idx < n_nz; ++idx) {
            const int j = nz[idx];
            const double y = yr[j];
            const double *restrict sj = S + (long)j * M;
            for (m = 0; m < M; ++m) wr[m] += y * sj[m];
        }
    }
}

int fista_group(
    int K, int M,
    const double *S, const double *AT,
    double mu, double step, int max_iter, double tol,
    double *B, double *Y, double *Bn, double *col, int *nz,
    int *converged, double *residual)
{
    const long KM = (long)K * M;
    const double mu_step = mu * step;
    double *cur = B, *nxt = Bn;
    double t_prev = 1.0;
    int it, iterations = 0, k, m, n_nz;
    long i;

    *converged = 0;
    *residual = 0.0;
    memcpy(Y, B, (size_t)KM * sizeof(double));
    for (it = 0; it < max_iter; ++it) {
        double t_new, momentum, dot = 0.0, max_b = 0.0, max_d = 0.0, scale;
        double *swap;
        iterations = it + 1;
        /* nonzero columns of Y */
        for (m = 0; m < M; ++m) nz[m] = 0;
        for (k = 0; k < K; ++k) {
            const double *yk = Y + (long)k * M;
            for (m = 0; m < M; ++m) nz[m] |= (yk[m] != 0.0);
        }
        n_nz = 0;
        for (m = 0; m < M; ++m) if (nz[m]) nz[n_nz++] = m;
        /* W = Y - step * (Y S - A^T) into nxt; col = ||W[:, m]||^2 */
        for (k = 0; k < K; k += 4) {
            const int nrows = K - k < 4 ? K - k : 4;
            forward_rows(nrows, M, n_nz, nz, S, Y + (long)k * M, nxt + (long)k * M);
        }
        for (m = 0; m < M; ++m) col[m] = 0.0;
        for (k = 0; k < K; ++k) {
            const double *yk = Y + (long)k * M;
            const double *ak = AT + (long)k * M;
            double *wk = nxt + (long)k * M;
            for (m = 0; m < M; ++m) {
                double grad = wk[m] - ak[m];
                double w = yk[m] - step * grad;
                wk[m] = w;
                col[m] += w * w;
            }
        }
        /* group shrinkage factors */
        for (m = 0; m < M; ++m) {
            double norm = sqrt(col[m]);
            double shrink = 1.0 - mu_step / (norm > 1e-300 ? norm : 1e-300);
            col[m] = shrink > 0.0 ? shrink : 0.0;
        }
        /* B_new = W * shrink; restart test and convergence maxima */
        for (k = 0; k < K; ++k) {
            const double *yk = Y + (long)k * M;
            const double *bk = cur + (long)k * M;
            double *nk = nxt + (long)k * M;
            for (m = 0; m < M; ++m) {
                double b_new = nk[m] * col[m];
                double delta = b_new - bk[m];
                double ab = fabs(b_new), ad = fabs(delta);
                nk[m] = b_new;
                dot += (yk[m] - b_new) * delta;
                if (ab > max_b) max_b = ab;
                if (ad > max_d) max_d = ad;
            }
        }
        t_new = 0.5 * (1.0 + sqrt(1.0 + 4.0 * t_prev * t_prev));
        momentum = (t_prev - 1.0) / t_new;
        if (dot > 0.0) {
            t_new = 1.0;
            memcpy(Y, nxt, (size_t)KM * sizeof(double));
        } else {
            for (i = 0; i < KM; ++i) {
                double delta = nxt[i] - cur[i];
                Y[i] = nxt[i] + momentum * delta;
            }
        }
        swap = cur; cur = nxt; nxt = swap;
        t_prev = t_new;
        scale = max_b > 1.0 ? max_b : 1.0;
        *residual = max_d / scale;
        if (*residual <= tol) {
            *converged = 1;
            break;
        }
    }
    if (cur != B) memcpy(B, cur, (size_t)KM * sizeof(double));
    return iterations;
}
"""

_FISTA_CDEF = """
int fista_group(
    int K, int M,
    const double *S, const double *AT,
    double mu, double step, int max_iter, double tol,
    double *B, double *Y, double *Bn, double *col, int *nz,
    int *converged, double *residual);
"""

_SOURCE = _LU_SOURCE + _FISTA_SOURCE
_CDEF = _LU_CDEF + _FISTA_CDEF

_lib = None
_lib_failed = False
_load_lock = threading.Lock()
_self_checks: Dict[str, Callable] = {}
_verdicts: Dict[str, bool] = {}


def kernel_cache_dir() -> str:
    """Directory holding the compiled kernel shared objects."""
    root = os.environ.get(CACHE_ENV_VAR)
    if root:
        return root
    return os.path.join(
        os.path.expanduser("~"), ".cache", "repro", "kernels"
    )


def _compile_library() -> Optional[str]:
    """Compile the library to a cached .so; returns its path or None."""
    source_hash = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache_dir = kernel_cache_dir()
    lib_path = os.path.join(cache_dir, f"repro-kernels-{source_hash}.so")
    if os.path.exists(lib_path):
        return lib_path
    try:
        os.makedirs(cache_dir, exist_ok=True)
    except OSError:
        return None
    cc = os.environ.get("CC", "cc")
    with tempfile.TemporaryDirectory() as tmp:
        c_path = os.path.join(tmp, "repro_kernels.c")
        with open(c_path, "w", encoding="utf-8") as fh:
            fh.write(_SOURCE)
        tmp_so = os.path.join(tmp, "repro_kernels.so")
        base = [
            cc, "-O3", "-ffp-contract=off", "-fPIC", "-shared",
            c_path, "-o", tmp_so, "-lm",
        ]
        for flags in (["-march=native"], []):
            cmd = base[:1] + flags + base[1:]
            try:
                proc = subprocess.run(
                    cmd, capture_output=True, timeout=120
                )
            except (OSError, subprocess.TimeoutExpired):
                return None
            if proc.returncode == 0:
                try:
                    os.replace(tmp_so, lib_path)
                except OSError:
                    return None
                return lib_path
    return None


def load_library() -> Optional[Tuple[object, object]]:
    """The loaded ``(ffi, lib)`` pair (compiled on first use), or None."""
    global _lib, _lib_failed
    if os.environ.get(DISABLE_ENV_VAR):
        return None
    if _lib is not None or _lib_failed:
        return _lib
    with _load_lock:
        if _lib is not None or _lib_failed:
            return _lib
        try:
            import cffi
        except ImportError:
            _lib_failed = True
            return None
        lib_path = _compile_library()
        if lib_path is None:
            _lib_failed = True
            return None
        try:
            ffi = cffi.FFI()
            ffi.cdef(_CDEF)
            _lib = (ffi, ffi.dlopen(lib_path))
        except (OSError, cffi.FFIError):
            _lib_failed = True
            return None
    return _lib


def register_self_check(name: str, check: Callable) -> None:
    """Register ``check(ffi, lib) -> bool`` as kernel ``name``'s gate.

    :func:`kernel` runs it once per process, on first use.
    """
    _self_checks[name] = check
    _verdicts.pop(name, None)


def kernel(name: str) -> Optional[Tuple[object, object]]:
    """``(ffi, lib)`` if the library loads and ``name`` passed its check.

    A kernel with no registered check is reported unavailable.
    """
    handle = load_library()
    if handle is None:
        return None
    verdict = _verdicts.get(name)
    if verdict is None:
        check = _self_checks.get(name)
        verdict = check is not None and bool(check(*handle))
        _verdicts[name] = verdict
    return handle if verdict else None


def active_kernels() -> Dict[str, bool]:
    """Which compiled kernels this process uses: ``{"lu", "fista"}``.

    ``lu`` is whether the library loads (each factorization still
    checks its own kernel, see
    :func:`repro.powergrid.fastsolve.build_lu_kernel`); ``fista``
    whether the FISTA kernel passed its self-check.
    """
    return {
        "lu": load_library() is not None,
        "fista": kernel("fista") is not None,
    }
