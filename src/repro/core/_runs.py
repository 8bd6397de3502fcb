"""Build, load and call the miner's native run kernel (``_runs.c``).

The C source ships as package data.  The first fast-path miner of a
process compiles it with ``cc`` into the package's ``__pycache__``,
under a name hashing the source, the flags and the platform, then binds
it with :mod:`ctypes`; later processes find the library there and only
load it.  Only when that directory cannot be created or written does
the cache move to a per-user temp directory, and only if this user owns
it and no one else may enter it (a shared temp dir lets anyone plant a
library under the predictable name).  A build is published with
``os.replace``, so concurrent builders (pool workers, fleet nodes) are
safe.  Without a working compiler or a safe cache the loader warns once
per process and :func:`run_kernel` returns ``None``: the miner then
takes its legacy path.  ``-ffp-contract=off`` (and no fast-math) keeps
every float operation the IEEE one numpy performs.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np
from numpy.typing import NDArray

__all__ = ["RunKernel", "RunPass", "run_kernel"]

_SOURCE = Path(__file__).with_name("_runs.c")
_COMPILER: Tuple[str, ...] = ("cc",)
_FLAGS: Tuple[str, ...] = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
#: Table entry width in bytes -> exported symbol suffix.
_WIDTHS = {1: "i8", 2: "i16", 4: "i32"}

_P = ctypes.c_void_p
_N = ctypes.c_ssize_t
_WALK_ARGS = (_P, _P, _P, _N, _N, _P, _P, _P, _N, _N, _P, _P, _P)
_EMIT_ARGS = (
    _P, _N, _P, _N, _P, _P, _P, _P, _P,
    _P, _N, _N, _N, ctypes.c_double, _N, _N, _P, _P, _P, _P,
)



class RunKernel(NamedTuple):
    """The two entry points for one table entry width (in bytes)."""

    width: int
    walk: Any
    emit: Any


class _Loader:
    """The process's bound kernels, loaded at most once.

    The lock serializes the one-time build.  A child forked while
    another thread held it starts with a fresh lock, so it never waits
    on a build it will not see finish, and loads the library itself.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.tried = False
        #: kernels by table width; ``None`` once a build failed
        self.kernels: Optional[Dict[int, RunKernel]] = None

    def after_fork(self) -> None:
        self.lock = threading.Lock()
        if self.kernels is None:
            self.tried = False


_loader = _Loader()
if hasattr(os, "register_at_fork"):  # POSIX
    os.register_at_fork(after_in_child=lambda: _loader.after_fork())


def _cache_dirs() -> Tuple[Path, ...]:
    """Where the library may be cached, in order of preference: the
    package's ``__pycache__``, else a per-user temp directory."""
    user = f"-{os.getuid()}" if hasattr(os, "getuid") else ""
    return (
        Path(__file__).with_name("__pycache__"),
        Path(tempfile.gettempdir()) / f"repro-runs{user}",
    )


def _usable(directory: Path, shared: bool) -> bool:
    """Whether the library may be looked up and built in ``directory``.

    It must be a writable directory.  A ``shared`` one — under a temp
    dir others can write — must also be no symlink, owned by this user
    and closed to everyone else, or a library planted or swapped there
    by another user could be loaded.
    """
    try:
        directory.mkdir(
            mode=0o700 if shared else 0o777, parents=True, exist_ok=True
        )
        status = directory.lstat()
    except OSError:
        return False
    if not stat.S_ISDIR(status.st_mode) or not os.access(
        directory, os.W_OK | os.X_OK
    ):
        return False
    return not shared or (
        hasattr(os, "getuid")
        and status.st_uid == os.getuid()
        and status.st_mode & 0o077 == 0
    )


def _library_name() -> str:
    digest = hashlib.sha256(_SOURCE.read_bytes())
    digest.update(" ".join(_FLAGS).encode())
    digest.update(f"{sys.platform}-{platform.machine()}".encode())
    return f"_runs-{digest.hexdigest()[:16]}.so"


def _library_path() -> Path:
    """The library's path in the first usable cache directory: cached
    if present, else freshly built."""
    directories = _cache_dirs()
    for position, directory in enumerate(directories):
        if _usable(directory, shared=position > 0):
            break
    else:
        raise OSError(
            "no writable directory private to this user for the run "
            f"kernel: {[str(directory) for directory in directories]}"
        )
    library = directory / _library_name()
    if library.exists():
        return library
    handle, building = tempfile.mkstemp(suffix=".so", dir=directory)
    os.close(handle)
    try:
        subprocess.run(
            [*_COMPILER, *_FLAGS, "-o", building, str(_SOURCE)],
            check=True, capture_output=True, text=True,
        )
        os.replace(building, library)
    finally:
        if os.path.exists(building):
            os.unlink(building)
    return library


def _bind(library: ctypes.CDLL) -> Dict[int, RunKernel]:
    kernels: Dict[int, RunKernel] = {}
    for width, suffix in _WIDTHS.items():
        walk = getattr(library, f"runs_walk_{suffix}")
        emit = getattr(library, f"runs_emit_{suffix}")
        for function, argtypes in ((walk, _WALK_ARGS), (emit, _EMIT_ARGS)):
            function.argtypes = argtypes
            function.restype = _N
        kernels[width] = RunKernel(width, walk, emit)
    return kernels


def run_kernel(table_dtype: np.dtype) -> Optional[RunKernel]:
    """The kernel for a table dtype, or ``None`` without a compiler."""
    loader = _loader
    with loader.lock:
        if not loader.tried:
            loader.tried = True
            try:
                # The lock exists to serialize this one-time build.
                path = _library_path()  # reglint: disable=RL303
                loader.kernels = _bind(ctypes.CDLL(str(path)))
            except (OSError, subprocess.CalledProcessError) as error:
                detail = getattr(error, "stderr", None) or str(error)
                warnings.warn(
                    "the native run kernel could not be built, so the "
                    f"miner takes its legacy path: {detail.strip()}",
                    RuntimeWarning,
                    stacklevel=3,
                )
        kernels = loader.kernels
    return None if kernels is None else kernels[table_dtype.itemsize]


_INTP = np.dtype(np.intp)
_BOOL = np.dtype(np.bool_)


def _pointer(array: NDArray[Any], dtype: np.dtype, length: int) -> int:
    """The data address of a C-contiguous 1-D ``dtype`` array of exactly
    ``length`` entries: what the kernel reads or writes through it."""
    if (
        array.dtype != dtype
        or not array.flags.c_contiguous
        or array.shape != (length,)
    ):
        raise ValueError(
            f"the run kernel needs a C-contiguous {dtype} vector of "
            f"{length} entries"
        )
    return int(array.ctypes.data)


class RunPass:
    """One miner's binding of the kernel: its tables and scratch buffers.

    Pointers to the fixed arrays — the index's ``order`` and pointer
    bounds, the values — are taken once; the pair buffers grow on
    demand.  Every miner owns its own, so jobs on concurrent threads
    (the kernel runs without the GIL) never share a buffer.  The arrays
    :meth:`pairs` and :meth:`scored` return are views into the buffers,
    valid until the next call.
    """

    def __init__(
        self,
        kernel: RunKernel,
        tables: Sequence[NDArray[np.signedinteger]],
        values: NDArray[np.float64],
        cap: int,
    ) -> None:
        self._kernel = kernel
        #: order, successor_bound, predecessor_bound, values (kept alive)
        self._fixed: List[NDArray[Any]] = [
            np.ascontiguousarray(table) for table in tables
        ]
        self._fixed.append(np.ascontiguousarray(values, dtype=np.float64))
        order = self._fixed[0]
        if (
            len({(a.shape, a.dtype) for a in self._fixed[:3]}) != 1
            or order.shape != values.shape
            or order.dtype.itemsize != kernel.width
        ):
            raise ValueError(
                "the run tables must share the values' shape and one "
                "dtype of the kernel's width"
            )
        self._order, self._successor, self._predecessor, self._values = (
            array.ctypes.data for array in self._fixed
        )
        self._n_genes, self._n_conditions = values.shape
        self._cap = cap
        #: each member's run [first, stop); a depth-1 node may list a
        #: gene as p- and as n-member
        self._bounds = np.zeros((2, 2 * self._n_genes), dtype=np.intp)
        #: members of the last :meth:`walk`, whose runs the pair
        #: buffers are sized for
        self._walked = 0
        #: p-member support of every condition (:meth:`walk`)
        self.support = np.empty(self._n_conditions, dtype=np.intp)
        #: dropped non-finite scores per condition (:meth:`scored`)
        self.degenerate = np.empty(self._n_conditions, dtype=np.intp)
        self._hist = np.empty(self._n_conditions * (cap + 1), dtype=np.intp)
        self._alive = np.empty(self._n_conditions, dtype=np.uint8)
        self._scratch = [
            array.ctypes.data
            for array in (
                self._bounds[0], self._bounds[1], self.support,
                self.degenerate, self._hist, self._alive,
            )
        ]
        self._grow(1024)

    def _grow(self, capacity: int) -> None:
        self._conds = np.empty(capacity, dtype=np.intp)
        self._owners = np.empty(capacity, dtype=np.intp)
        self._scores = np.empty(capacity, dtype=np.float64)
        self._pairs = [
            array.ctypes.data
            for array in (self._conds, self._owners, self._scores)
        ]

    def _members(self, members: NDArray[np.intp]) -> int:
        """The address of ``members``; the kernel keeps one run each."""
        if members.shape[0] > self._bounds.shape[1]:
            raise ValueError(
                "the run kernel takes at most "
                f"{self._bounds.shape[1]} members"
            )
        return _pointer(members, _INTP, members.shape[0])

    def walk(
        self,
        members: NDArray[np.intp],
        n_pm: int,
        last: int,
        reach: Tuple[NDArray[np.intp], NDArray[np.intp]],
    ) -> None:
        """Each member's run, and :attr:`support` from the p-members'.

        ``members`` lists the node's p-members, then its n-members (the
        first ``n_pm``); ``reach`` holds every gene's pruning-2 limits
        ``(up_end, down_start)`` on its sorted positions.
        """
        first, stop, support = self._scratch[:3]
        genes = self._n_genes
        total = self._kernel.walk(
            self._order, self._successor, self._predecessor,
            self._n_conditions, last,
            _pointer(reach[0], _INTP, genes),
            _pointer(reach[1], _INTP, genes),
            self._members(members), members.shape[0], n_pm,
            first, stop, support,
        )
        self._walked = members.shape[0]
        if total > self._conds.shape[0]:
            self._grow(max(total, 2 * self._conds.shape[0]))

    def _emit(
        self,
        members: NDArray[np.intp],
        viable: NDArray[np.bool_],
        values: Optional[int],
        chain: Tuple[int, ...],
        epsilon: float,
        min_genes: int,
    ) -> int:
        if members.shape[0] != self._walked:
            raise ValueError(
                "the run kernel emits the pairs of the members it last "
                "walked"
            )
        first, stop, __, degenerate, hist, alive = self._scratch
        conds, owners, scores = self._pairs
        return int(
            self._kernel.emit(
                self._order, self._n_conditions,
                self._members(members), members.shape[0], first, stop,
                _pointer(viable, _BOOL, self._n_conditions),
                conds, owners,
                values, chain[-1], chain[0], chain[1], epsilon, min_genes,
                self._cap, scores, degenerate, hist, alive,
            )
        )

    def pairs(
        self, members: NDArray[np.intp], viable: NDArray[np.bool_]
    ) -> Tuple[NDArray[np.intp], NDArray[np.intp]]:
        """``(conds, owners)`` of every run entry of a viable condition,
        in member then run order (after :meth:`walk`)."""
        kept = self._emit(members, viable, None, (0, 0), 0.0, 0)
        return self._conds[:kept], self._owners[:kept]

    def scored(
        self,
        members: NDArray[np.intp],
        viable: NDArray[np.bool_],
        chain: Tuple[int, ...],
        epsilon: float,
        min_genes: int,
    ) -> Tuple[NDArray[np.intp], NDArray[np.intp], NDArray[np.float64]]:
        """:meth:`pairs` with their Eq. 7 scores, less the non-finite
        ones (counted in :attr:`degenerate`) and the conditions the
        bucket prefilter rules out."""
        kept = self._emit(
            members, viable, self._values, chain, epsilon, min_genes
        )
        return self._conds[:kept], self._owners[:kept], self._scores[:kept]
