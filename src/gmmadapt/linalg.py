"""Stacked dense linear algebra for the streaming mixture.

Symmetric matrices are stored as rows of their packed lower triangle
(row-major: entry (i, j) with j <= i at offset i*(i+1)/2 + j), so that the
stored-value count matches the memory model exactly. Every function works
on a stack of matrices at once. Gaussian log-densities go through Cholesky
factors and triangular solves; the inverse covariance is never
materialized. Each factor's solve is one in-place BLAS ``dtrsm`` call,
the routine LAPACK's ``dtrtrs`` calls after its zero-pivot check; that
check is made once for the whole stack, on the factor diagonals, so the
results are those of ``dtrtrs`` bit for bit.

``dtrsm`` is called through ctypes in the OpenBLAS that scipy's wheel
bundles (``scipy.libs/libscipy_openblas-*.so``), the library behind
``scipy.linalg.blas.dtrsm``. ``expm``, for the domain rotation, calls the
compiled Padé routines behind ``scipy.linalg.expm``, loaded on first use
from their extension module's file, and gets its bits. Importing
``scipy.linalg`` for either would add about 26 MB of RSS to every process.
"""
from __future__ import annotations

import ctypes
import glob
import importlib.machinery
import importlib.util
import os
import sys
import warnings
from functools import cache, lru_cache

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput, NotPositiveDefinite

LOG_2PI = float(np.log(2.0 * np.pi))


def _scipy_path(*parts: str) -> str:
    """A path in the directory scipy is installed in, found without importing scipy."""
    spec = importlib.util.find_spec("scipy")
    if spec is None or spec.origin is None:
        raise ImportError("gmmadapt needs scipy's compiled routines, and scipy is not installed")
    return os.path.join(os.path.dirname(os.path.dirname(spec.origin)), *parts)


def _load_openblas() -> ctypes.CDLL:
    """scipy's bundled OpenBLAS, opened once, with ``scipy_dtrsm_`` bound.

    The library is LP64, so every integer argument is a 32-bit int. There
    is no fallback: a scipy without the bundled library is an ImportError
    that names the path searched. ``argtypes`` is left undeclared on
    purpose: every caller passes ctypes objects of the exact C types, and
    a declared list would cost one ``from_param`` call per argument, which
    made a 345-mode solve 0.6 ms slower than ``scipy.linalg.blas.dtrsm``
    (2-vCPU host, one BLAS thread). A ``CDLL`` call releases the GIL, so the
    mixture's block pool solves in parallel.

    Two bit-identical bindings were measured and rejected. The f2py
    ``scipy.linalg._fblas.dtrsm``, loaded from its file like ``expm``'s
    module, holds the GIL: ``mixture-c345``'s median ``step_ms_p50`` went
    from 29.4 to 40.1 ms, worse in 6 of 6 alternating pairs. The ``dtrsm``
    capsule of ``scipy.linalg.cython_blas`` left step time unchanged, but
    that module's init imports scipy's top-level package: ``import
    gmmadapt`` peaked 1.5 MB higher with 23 more modules loaded, and a
    default CLI run at 50.0-50.2 MB against 48.8-48.9 MB.
    """
    pattern = _scipy_path("scipy.libs", "libscipy_openblas-*.so")
    found = sorted(glob.glob(pattern))
    if not found:
        raise ImportError(f"no library matches {pattern}: gmmadapt needs a scipy wheel "
                          "that bundles libscipy_openblas")
    try:
        lib = ctypes.CDLL(found[0])
        lib.scipy_dtrsm_.restype = None
    except (OSError, AttributeError) as exc:
        raise ImportError(f"cannot bind scipy_dtrsm_ in {found[0]}: {exc}") from None
    return lib


_openblas = _load_openblas()
_dtrsm = _openblas.scipy_dtrsm_
# dtrsm's side, uplo, trans and diag flags: L, U, T, N
_FLAGS = tuple(ctypes.c_char_p(flag) for flag in (b"L", b"U", b"T", b"N"))


def pin_openblas() -> None:
    """Set numpy's and scipy's bundled OpenBLAS, already loaded, to one thread.

    OpenBLAS reads ``OPENBLAS_NUM_THREADS`` once, as it loads, so numpy (or
    ``scipy.linalg``) imported before gmmadapt keeps its default thread
    count, and at 2 threads some configs write other bytes than at one.
    scipy's library is the one opened at import. No silent failure:
    numpy's library not found, or a thread setter not found, is a
    RuntimeWarning that names the path searched and the two remedies.
    """
    site = os.path.dirname(os.path.dirname(np.__file__))
    pattern = os.path.join(site, "numpy.libs", "libscipy_openblas64_*.so")
    found = sorted(glob.glob(pattern))
    for path, lib, setter in (
        (pattern, ctypes.CDLL(found[0]) if found else None, "scipy_openblas_set_num_threads64_"),
        (_openblas._name, _openblas, "scipy_openblas_set_num_threads"),
    ):
        pin = getattr(lib, setter, None)
        if pin is None:
            warnings.warn(f"no library matching {path} has {setter}, so it keeps its BLAS "
                          "threads, and a run may write other bytes than at one thread: set "
                          "OPENBLAS_NUM_THREADS=1, or import gmmadapt before numpy",
                          RuntimeWarning, stacklevel=2)
        else:
            pin(1)


@cache
def _expm_module():
    """scipy's extension module ``scipy.linalg._matfuncs_expm``, loaded once.

    It is loaded from its file, so ``scipy/linalg/__init__.py`` never runs,
    under its own name in ``sys.modules``, so that it and a later ``import
    scipy.linalg`` share one module object. No fallback: a missing file or
    routine is an ImportError that names the path searched.
    """
    name = "scipy.linalg._matfuncs_expm"
    module = sys.modules.get(name)
    if module is None:
        base = _scipy_path("scipy", "linalg", "_matfuncs_expm")
        suffixes = importlib.machinery.EXTENSION_SUFFIXES
        path = next((base + sfx for sfx in suffixes if os.path.isfile(base + sfx)), None)
        if path is None:
            raise ImportError(f"no extension module {base}{{{','.join(suffixes)}}}: "
                              "gmmadapt needs scipy's compiled expm routines")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    if not all(hasattr(module, fn) for fn in ("pick_pade_structure", "pade_UV_calc")):
        raise ImportError(f"{module.__file__} lacks pick_pade_structure or pade_UV_calc")
    return module


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) for a square float64 matrix, bit for bit as ``scipy.linalg.expm``:
    its compiled routines pick the Padé degree m and scaling s and evaluate
    the approximant of a / 2**s, which is then squared s times. scipy takes
    a diagonal or triangular matrix down other paths, so one with no nonzero
    entry on one side of its diagonal is a ValueError.
    """
    if not (np.tril(a, -1).any() and np.triu(a, 1).any()):
        raise ValueError("expm needs nonzero entries on both sides of the diagonal")
    routines = _expm_module()
    am = np.empty((5,) + a.shape)
    am[0] = a
    m, s = routines.pick_pade_structure(am)
    if m < 0:
        raise MemoryError(f"pick_pade_structure could not allocate memory (error code {m})")
    info = routines.pade_UV_calc(am, m)
    if info != 0:
        raise RuntimeError(f"pade_UV_calc failed (error code {info})")
    e = am[0].copy()
    for _ in range(s):
        e = e @ e
    return e


def packed_size(dim: int) -> int:
    """Number of stored entries for a dim x dim symmetric matrix."""
    return dim * (dim + 1) // 2


@lru_cache(maxsize=8)
def _tril_maps(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(gather, scatter) index maps between dense dim x dim and packed rows.

    gather[k] is the flat dense offset of packed entry k; scatter[i*dim+j]
    is the packed offset of entry (max(i, j), min(i, j)). Built once per
    dim and read-only, since every caller shares them.
    """
    rows, cols = np.tril_indices(dim)
    gather = rows * dim + cols
    scatter = np.empty((dim, dim), dtype=np.intp)
    scatter[rows, cols] = np.arange(rows.size)
    scatter[cols, rows] = scatter[rows, cols]
    scatter = scatter.ravel()
    gather.flags.writeable = False
    scatter.flags.writeable = False
    return gather, scatter


def pack(dense: np.ndarray) -> np.ndarray:
    """Lower triangles of a (B, dim, dim) stack as packed rows (B, P)."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 3 or dense.shape[1] != dense.shape[2]:
        raise DimensionMismatch(f"expected a (B, dim, dim) stack, got shape {dense.shape}")
    dim = dense.shape[1]
    return np.take(dense.reshape(dense.shape[0], dim * dim), _tril_maps(dim)[0], axis=1)


def unpack(packed: np.ndarray, dim: int) -> np.ndarray:
    """Symmetric (B, dim, dim) stack from packed rows (B, P).

    Each matrix is stored column-major, which a symmetric matrix allows
    (it equals its transpose): ``np.linalg.cholesky`` copies its input
    into LAPACK's buffer one column at a time, and so reads contiguous
    memory.
    """
    packed = np.asarray(packed, dtype=np.float64)
    if packed.ndim != 2 or packed.shape[1] != packed_size(dim):
        raise DimensionMismatch(
            f"packed rows for dim {dim} need {packed_size(dim)} entries, got shape {packed.shape}"
        )
    dense = np.take(packed, _tril_maps(dim)[1], axis=1).reshape(packed.shape[0], dim, dim)
    return dense.transpose(0, 2, 1)


def _offsets(xs: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(B, n, dim) stack of xs - centers[b]: xs is copied into place and one
    in-place subtraction follows, faster than a broadcasting subtraction
    into a new array."""
    out = np.empty((centers.shape[0],) + xs.shape)
    out[...] = xs
    out -= centers[:, None, :]
    return out


def weighted_scatter(feats: np.ndarray, weights: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Packed sum_i weights[i, b] * (feats[i]-centers[b])(feats[i]-centers[b])^T per b.

    feats (n, dim), weights (n, B), centers (B, dim); returns (B, P). One
    stacked matmul makes all B dense scatters before they are packed.
    """
    if weights.shape != (feats.shape[0], centers.shape[0]) or centers.shape[1:] != feats.shape[1:]:
        raise DimensionMismatch(
            f"feats {feats.shape}, weights {weights.shape}, centers {centers.shape} disagree"
        )
    diff = _offsets(feats, centers)
    dense = (diff.transpose(0, 2, 1) * weights.T[:, None, :]) @ diff
    return pack(dense)


def cholesky(packed: np.ndarray, jitter: float = 0.0, ids: np.ndarray | None = None) -> np.ndarray:
    """Lower Cholesky factors L[b] with L[b] L[b]^T = C[b] + jitter * I.

    packed holds the symmetric matrices C[b] as packed rows (B, P), so
    finiteness is checked once per stored entry. The jitter goes onto the
    diagonal of the unpacked stack, a new array, and packed is left
    unchanged. The whole stack is factored once, at the given jitter, with
    no retry. If that fails, NotPositiveDefinite names the jitter and the
    first matrix in stack order that does not factor, as ids[b] (default b).
    """
    if jitter < 0:
        raise ValueError(f"jitter must be nonnegative, got {jitter}")
    packed = np.asarray(packed, dtype=np.float64)
    if packed.ndim != 2:
        raise DimensionMismatch(f"expected packed rows (B, P), got shape {packed.shape}")
    if not np.all(np.isfinite(packed)):
        raise NonFiniteInput("matrix contains non-finite entries")
    # d <= sqrt(2P) = sqrt(d^2 + d) < d + 1; unpack rejects any other P
    dim = int(np.sqrt(2 * packed.shape[1]))
    shifted = unpack(packed, dim)
    if jitter != 0.0:
        # einsum gives a writeable view of the diagonals
        np.einsum("bii->bi", shifted)[...] += jitter
    try:
        return np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        # the stacked call does not say which matrix failed: factor each alone
        for b, dense in enumerate(shifted):
            try:
                np.linalg.cholesky(dense)
            except np.linalg.LinAlgError:
                raise NotPositiveDefinite(
                    f"factorization of mode {b if ids is None else ids[b]} failed "
                    f"at jitter {float(jitter)!r}"
                ) from None
        raise


def log_gauss_density_batch(xs: np.ndarray, means: np.ndarray, chols: np.ndarray,
                            ids: np.ndarray | None = None) -> np.ndarray:
    """log N(xs[i]; means[b], L[b] L[b]^T) for every row i and mode b, shape (n, B).

    xs (n, dim) must be finite; chols are lower factors (B, dim, dim).
    Each mode costs one in-place BLAS triangular solve over all rows. A
    factor with a zero on its diagonal raises NotPositiveDefinite naming
    the mode as ids[b] (default b).
    """
    xs = np.asarray(xs, dtype=np.float64)
    n_modes, dim = chols.shape[:2]
    if xs.ndim != 2 or xs.shape[1] != dim or means.shape != (n_modes, dim):
        raise DimensionMismatch(
            f"xs {xs.shape}, means {means.shape} incompatible with factors {chols.shape}"
        )
    diag = np.diagonal(chols, axis1=1, axis2=2)
    dead = diag == 0.0
    if dead.any():
        b, i = np.argwhere(dead)[0]
        raise NotPositiveDefinite(
            f"triangular solve failed for mode {b if ids is None else ids[b]}: "
            f"zero pivot at row {i}"
        )
    log_dets = 2.0 * np.sum(np.log(diag), axis=1)
    diffs = _offsets(xs, means)
    chols = np.ascontiguousarray(chols, dtype=np.float64)
    # BLAS reads a C-ordered chols[b] as the upper factor L^T and diffs[b]
    # as the (dim, n) right-hand side, so dtrsm(L, U, T, N) solves
    # L y = x - mean for every row and overwrites diffs[b] with y. The
    # arguments are built once; only the two addresses step per mode.
    side, uplo, trans, diag_flag = _FLAGS
    dim_p = ctypes.byref(ctypes.c_int(dim))
    n_p = ctypes.byref(ctypes.c_int(xs.shape[0]))
    # BLAS requires a leading dimension of at least 1, also when dim is 0
    ld_p = ctypes.byref(ctypes.c_int(max(dim, 1)))
    one_p = ctypes.byref(ctypes.c_double(1.0))
    a_ptr, b_ptr = ctypes.c_void_p(), ctypes.c_void_p()
    a_addr, a_step = chols.ctypes.data, chols.strides[0]
    b_addr, b_step = diffs.ctypes.data, diffs.strides[0]
    for b in range(n_modes):
        a_ptr.value = a_addr + b * a_step
        b_ptr.value = b_addr + b * b_step
        _dtrsm(side, uplo, trans, diag_flag, dim_p, n_p, one_p, a_ptr, ld_p, b_ptr, ld_p)
    sq_norms = np.sum(np.multiply(diffs, diffs, out=diffs), axis=2)
    return (-0.5 * (dim * LOG_2PI + log_dets[:, None] + sq_norms)).T
