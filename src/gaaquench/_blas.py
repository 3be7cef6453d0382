"""The one owner of numpy's OpenBLAS, below `spectral`: its handle, its thread count and the kernel's routines."""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager


@functools.cache
def _openblas():
    """The OpenBLAS that numpy's core extension links, opened once per process; None without it.
    Its one owner: the thread control and the kernel routines both take their symbols from it."""
    try:
        from numpy._core import _multiarray_umath

        return ctypes.CDLL(_multiarray_umath.__file__)
    except (ImportError, OSError):
        return None


@functools.cache
def _blas_thread_control():
    """(get, set) of the OpenBLAS thread count, looked up once per process. Without the library or a
    symbol, get gives None and set does nothing."""
    try:
        lib = _openblas()
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except AttributeError:  # no symbol, or no library (None)
        return (lambda: None), (lambda threads: None)
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@functools.cache
def _kernel_routines():
    """(zherk, zhetrd, dsterf) of the same OpenBLAS, or None where any of the three symbols is missing,
    which puts the whole kernel on its numpy path (numpy's matmul and eigvalsh). zherk is the ILP64
    CBLAS routine, its arguments by value; zhetrd and dsterf are ILP64 LAPACK with every argument
    passed by address and zhetrd's hidden length of UPLO last."""
    try:
        lib = _openblas()
        zherk, zhetrd, dsterf = lib.scipy_cblas_zherk64_, lib.scipy_zhetrd_64_, lib.scipy_dsterf_64_
    except AttributeError:
        return None
    # order, uplo, trans, N, K, alpha, A, lda, beta, C, ldc
    zherk.argtypes = [ctypes.c_int] * 3 + [ctypes.c_int64] * 2 + [ctypes.c_double, ctypes.c_void_p, ctypes.c_int64,
                                                                  ctypes.c_double, ctypes.c_void_p, ctypes.c_int64]
    zherk.restype = None
    zhetrd.argtypes, zhetrd.restype = [ctypes.c_void_p] * 10 + [ctypes.c_size_t], None
    dsterf.argtypes, dsterf.restype = [ctypes.c_void_p] * 4, None
    return zherk, zhetrd, dsterf


def _blas_threads() -> int | None:
    """The OpenBLAS thread count of this process, or None where it cannot be read."""
    return _blas_thread_control()[0]()


def _cap_blas_threads() -> None:
    """One OpenBLAS thread for the rest of this process (the initializer of each pool worker)."""
    _blas_thread_control()[1](1)


# the guard's state: the threads inside it and the count the first of them found
_guard = threading.Lock()
_inside, _count_before = 0, None


def _fresh_guard_lock() -> None:
    """A forked child's lock: one held by a thread of the parent would never be released in the child."""
    global _guard
    _guard = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_fresh_guard_lock)


@contextmanager
def _one_blas_thread():
    """Run the body at one OpenBLAS thread. Every `eigh` and `eigvalsh` of the package (spectral's), every
    Gaussian block build and every kernel call runs inside, so no value depends on the process's count.
    Threads may be inside at once: the first to enter saves the count and sets 1, the last to leave
    restores it."""
    global _inside, _count_before
    get, set_ = _blas_thread_control()
    with _guard:
        if _inside == 0:
            _count_before = get()
            set_(1)
        _inside += 1
    try:
        yield
    finally:
        with _guard:
            _inside -= 1
            if _inside == 0:
                set_(_count_before)
