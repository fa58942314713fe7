"""The tridiagonal LAPACK calls of ``fdm``'s march, bound from one library.

The routines come from the OpenBLAS that numpy's wheel bundles (``numpy.libs/``,
or ``numpy/.dylibs/`` on macOS), which ``import numpy`` has already mapped: it
exports reference LAPACK with 64-bit integers as ``scipy_dgttrf_64_`` and so
on, called here through ``ctypes``, each call checking that its vectors are
float64.  Binding them maps no second library, where loading scipy's
``_flapack`` maps a second OpenBLAS, and the bundled build solves with the
same bits.  Only where numpy bundles no such library (a numpy not installed
from the PyPI wheel) are they the f2py routines of scipy's compiled
``scipy/linalg/_flapack`` module, loaded alone: importing ``scipy.linalg``
runs its whole package ``__init__``, which costs more of ``import
stretchgrid`` than the package itself.  That module has no dlagtm, so there
the product is numpy's, summed in dlagtm's order for its bits.

Each library gives a ``Backend`` of four calls, and the one bound is this
module's ``PATH``, ``lu``, ``pttrf``, ``ldl_solver`` and ``product``:

- ``lu(dl, d, du) -> (info, solve)``: dgttrf, the bands not written;
  ``solve(b)`` writes the solution into ``b`` by dgttrs and returns it;
- ``pttrf(d, e) -> info``: dpttrf, its D and L written into ``d`` and ``e``;
- ``ldl_solver(d, e) -> solve``: dpttrs with those factors, in place;
- ``product(dl, d, du) -> product(x, b)``: dlagtm, A x written into ``b``.

The routines, the library's path and the product's source are logged at
DEBUG level on the ``stretchgrid.fdm`` logger when the module loads.
"""

from __future__ import annotations

import ctypes
import importlib.machinery
import importlib.util
import logging
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

log = logging.getLogger("stretchgrid.fdm")

_ROUTINES = ("dgttrf", "dgttrs", "dpttrf", "dpttrs")
_INT = ctypes.c_int64
_TRANS = ctypes.c_char_p(b"N")
_TRANS_LEN = ctypes.c_size_t(1)          # gfortran's hidden len(trans) argument
_DOUBLE = np.dtype(float)


class Backend(NamedTuple):
    """One library's four calls (see the module docstring) and its path."""

    path: Path
    lu: Callable
    pttrf: Callable
    ldl_solver: Callable
    product: Callable


def _pointer(a: np.ndarray) -> ctypes.c_void_p:
    return a.ctypes.data_as(ctypes.c_void_p)     # which keeps ``a`` alive


def _bands(n: int, **arrays) -> tuple[np.ndarray, ...]:
    """``arrays`` as C-contiguous 1-D float64 of the lengths an n-row
    tridiagonal system needs; ValueError naming any other."""
    out = []
    for name, a in arrays.items():
        a = np.ascontiguousarray(a, dtype=float)
        if a.shape != ((n if name == "d" else max(n - 1, 0)),):
            raise ValueError(f"fdm: {name} has shape {a.shape}; the tridiagonal "
                             f"system has {n} rows")
        out.append(a)
    return tuple(out)


def _doubles(a: np.ndarray, role: str) -> np.ndarray:
    """``a``, a float64 array; TypeError naming its dtype otherwise, since
    LAPACK would read any other array's bytes as doubles."""
    if a.dtype != _DOUBLE:
        raise TypeError(f"fdm: the {role} has dtype {a.dtype}; LAPACK takes float64")
    return a


def _solver(routine, n: int, factors: tuple, trans: tuple = ()):
    """dgttrs (no transpose) or dpttrs on one factored system, its call built
    once from the ``factors``: ``solve(b)`` passes only the rhs, a writable
    C-contiguous float64 array of at least n values (``from_buffer`` rejects
    a shorter, read-only or strided one), which it overwrites with the
    solution and returns."""
    rhs = ctypes.c_double * n
    head = (*trans, ctypes.byref(_INT(n)), ctypes.byref(_INT(1)), *map(_pointer, factors))
    # ldb, info (only an illegal argument sets it) and len(trans)
    tail = (ctypes.byref(_INT(max(n, 1))), ctypes.byref(_INT()), *(_TRANS_LEN for _ in trans))

    def solve(b: np.ndarray) -> np.ndarray:
        routine(*head, rhs.from_buffer(_doubles(b, "rhs")), *tail)
        return b
    return solve


def _product(dlagtm, dl, d, du):
    """dlagtm (no transpose, alpha 1, beta 0) with one tridiagonal matrix A,
    its call built once from the bands: ``product(x, b)`` writes A x into
    ``b`` and returns it.  Both are vectors such as a solve takes; ``x`` is
    not written."""
    n = np.size(d)
    vector, ld = ctypes.c_double * n, ctypes.byref(_INT(max(n, 1)))
    head = (_TRANS, ctypes.byref(_INT(n)), ctypes.byref(_INT(1)),
            ctypes.byref(ctypes.c_double(1.0)), *map(_pointer, _bands(n, dl=dl, d=d, du=du)))
    beta = (ld, ctypes.byref(ctypes.c_double(0.0)))         # ldx, beta
    tail = (ld, _TRANS_LEN)                                  # ldb, len(trans)

    def product(x: np.ndarray, b: np.ndarray) -> np.ndarray:
        dlagtm(*head, vector.from_buffer(_doubles(x, "vector")), *beta,
               vector.from_buffer(_doubles(b, "product")), *tail)
        return b
    return product


def _bundled() -> Backend | None:
    """The OpenBLAS numpy's wheel bundles, or None.

    The library is in ``numpy.libs/`` (``numpy/.dylibs/`` on macOS) and
    already mapped, so loading it again costs no memory.  None when no such
    library loads or exports all five ILP64 routines (``scipy_dgttrf_64_``
    and so on), as with a numpy not installed from the PyPI wheel.
    """
    numpy_dir = Path(np.__file__).parent
    for path in [*sorted(numpy_dir.parent.glob("numpy.libs/*openblas*")),
                 *sorted(numpy_dir.glob(".dylibs/*openblas*"))]:
        try:
            lib = ctypes.CDLL(str(path))
            routines = [getattr(lib, f"scipy_{name}_64_") for name in (*_ROUTINES, "dlagtm")]
        except (OSError, AttributeError):
            continue
        break
    else:
        return None
    for routine in routines:
        routine.restype = None
    dgttrf, dgttrs, dpttrf, dpttrs, dlagtm = routines

    def lu(dl, d, du):
        n = np.size(d)
        dl, d, du = (a.copy() for a in _bands(n, dl=dl, d=d, du=du))
        du2, ipiv, info = np.empty(max(n - 2, 0)), np.empty(n, dtype=np.int64), _INT()
        dgttrf(ctypes.byref(_INT(n)), *map(_pointer, (dl, d, du, du2, ipiv)), ctypes.byref(info))
        return info.value, _solver(dgttrs, n, (dl, d, du, du2, ipiv), (_TRANS,))

    def pttrf(d, e):
        factors, info = _bands(np.size(d), d=d, e=e), _INT()
        dpttrf(ctypes.byref(_INT(np.size(d))), *map(_pointer, factors), ctypes.byref(info))
        d[:], e[:] = factors
        return info.value

    def ldl_solver(d, e):
        return _solver(dpttrs, np.size(d), _bands(np.size(d), d=d, e=e))

    return Backend(path, lu, pttrf, ldl_solver, lambda dl, d, du: _product(dlagtm, dl, d, du))


def _band_product(dl, d, du):
    """``_product`` in numpy, where scipy's ``_flapack`` has no dlagtm: it sums
    each row as dlagtm does, (0 + dl x[i-1]) + d x[i] + du x[i+1] in that
    order, which gives dlagtm's bits."""
    dl, d, du = _bands(np.size(d), dl=dl, d=d, du=du)

    def product(x: np.ndarray, b: np.ndarray) -> np.ndarray:
        b[:] = 0.0
        b[1:] += dl * x[:-1]
        b += d * x
        b[:-1] += du * x[1:]
        return b
    return product


def _flapack(linalg_dir: Path) -> Backend:
    """scipy's compiled ``_flapack`` in ``linalg_dir``, each solve in place by
    f2py dgttrs or dpttrs, and numpy's product.

    Loads the one extension module without running any scipy package
    ``__init__``, and leaves ``sys.modules`` as it found it, so a later
    ``import scipy.linalg`` builds the normal package.  Raises
    ``ImportError`` naming the file, the module and scipy's version when the
    module is missing or lacks any of the routines.
    """
    name = "scipy.linalg._flapack"
    path = linalg_dir / ("_flapack" + importlib.machinery.EXTENSION_SUFFIXES[0])
    loader = importlib.machinery.ExtensionFileLoader(name, str(path))
    saved = sys.modules.get(name)
    try:
        module = importlib.util.module_from_spec(
            importlib.util.spec_from_loader(name, loader))
        loader.exec_module(module)
        dgttrf, dgttrs, dpttrf, dpttrs = (getattr(module, routine) for routine in _ROUTINES)
    except (ImportError, AttributeError) as exc:
        raise ImportError(f"fdm: needs {', '.join(_ROUTINES[:-1])} and {_ROUTINES[-1]} "
                          f"from scipy's compiled module {name}, expected at {path} "
                          f"(installed scipy: {_scipy_version()})") from exc
    finally:
        if saved is None:
            sys.modules.pop(name, None)
        else:
            sys.modules[name] = saved

    def lu(dl, d, du):
        *factors, info = dgttrf(*_bands(np.size(d), dl=dl, d=d, du=du))
        return info, lambda b: dgttrs(*factors, b, overwrite_b=1)[0]

    def pttrf(d, e):
        *factors, info = dpttrf(*_bands(np.size(d), d=d, e=e), overwrite_d=1, overwrite_e=1)
        d[:], e[:] = factors
        return info

    def ldl_solver(d, e):
        d, e = _bands(np.size(d), d=d, e=e)
        return lambda b: dpttrs(d, e, b, overwrite_b=1)[0]

    return Backend(path, lu, pttrf, ldl_solver, _band_product)


def _scipy_version() -> str:
    from importlib import metadata
    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return "unknown"


BUNDLED = _bundled()
_SCIPY = None if BUNDLED else importlib.util.find_spec("scipy")
if not (BUNDLED or _SCIPY):
    raise ModuleNotFoundError("fdm: needs scipy for LAPACK dgttrf, dgttrs, dpttrf and dpttrs, "
                              "since numpy bundles no OpenBLAS that exports them", name="scipy")
PATH, lu, pttrf, ldl_solver, product = BUNDLED or _flapack(Path(_SCIPY.origin).parent / "linalg")
log.debug("LAPACK %s from %s", "/".join(_ROUTINES), PATH)
log.debug("band product by %s", "LAPACK dlagtm" if BUNDLED else "numpy, with dlagtm's bits")
