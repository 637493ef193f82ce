"""The one place that reads and sets the thread count of the OpenBLAS that
numpy calls.

numpy's wheels bundle scipy-openblas, whose ``scipy_openblas_*64_``
functions are reached through ctypes from numpy's own extension module, so
they are the very library numpy's matrix products run on.  One library
holds every CPU kernel (Haswell, SkylakeX, Zen, ...) and picks one at load
time, and the kernel and the thread count can both change a product's bits,
so ``describe()`` names them.  With another BLAS the functions are missing:
``single_thread()`` then changes nothing, and ``describe()`` says so.
"""

from __future__ import annotations

import ctypes
from contextlib import contextmanager
from types import SimpleNamespace

# each function's name between the library's prefix and suffix: its argument
# types and its result type
_SIGNATURES = {"get_num_threads": ([], ctypes.c_int), "set_num_threads": ([ctypes.c_int], None),
               "get_corename": ([], ctypes.c_char_p), "get_config": ([], ctypes.c_char_p)}


def _find(path: str | None) -> SimpleNamespace | None:
    """The OpenBLAS functions reachable from the shared library at ``path``,
    by their ``_SIGNATURES`` names, or None when the library or one of the
    functions is missing."""
    try:
        lib = ctypes.CDLL(path)
        functions = {name: getattr(lib, f"scipy_openblas_{name}64_") for name in _SIGNATURES}
    except (OSError, AttributeError):
        return None
    for name, (argtypes, restype) in _SIGNATURES.items():
        functions[name].argtypes, functions[name].restype = argtypes, restype
    return SimpleNamespace(**functions)


def _numpy_extension() -> str | None:
    try:
        from numpy._core import _multiarray_umath
    except ImportError:  # numpy 1.x, whose BLAS exports other names
        return None
    return _multiarray_umath.__file__


_openblas = _find(_numpy_extension())


@contextmanager
def single_thread():
    """Run the block's BLAS calls on one thread, then restore the caller's
    thread count, also when the block raises.  A no-op without OpenBLAS."""
    if _openblas is None:
        yield
        return
    previous = _openblas.get_num_threads()
    _openblas.set_num_threads(1)
    try:
        yield
    finally:
        _openblas.set_num_threads(previous)


def describe() -> dict[str, str | int | None]:
    """The OpenBLAS kernel in use (``core``), its build string (``config``)
    and its thread count (``threads``); each None without OpenBLAS, with a
    ``note`` saying so."""
    if _openblas is None:
        return {"core": None, "config": None, "threads": None,
                "note": "no OpenBLAS thread control in numpy's BLAS; single_thread() is a no-op"}
    return {"core": _openblas.get_corename().decode(),
            "config": _openblas.get_config().decode().strip(),
            "threads": _openblas.get_num_threads()}
