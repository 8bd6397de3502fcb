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
from typing import Any, Dict, NamedTuple, Optional, Tuple

import numpy as np
from numpy.typing import NDArray

from repro.core.rwave import RWaveIndex

__all__ = ["RunKernel", "RunPass", "run_kernel"]

_SOURCE = Path(__file__).with_name("_runs.c")
_COMPILER: Tuple[str, ...] = ("cc",)
_FLAGS: Tuple[str, ...] = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
#: Table entry width in bytes -> exported symbol suffix.
_WIDTHS = {1: "i8", 2: "i16", 4: "i32"}

_P = ctypes.c_void_p
_N = ctypes.c_ssize_t
_WALK_ARGS = (_P, _N, _N, _P, _P, _N, _N)
_EMIT_ARGS = (
    _P, _N, _N, _N, ctypes.c_int, _N, _N, _N, ctypes.c_double, _N, _N,
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


class _Pass(ctypes.Structure):
    """The addresses of a :class:`RunPass`'s arrays: ``pass_t`` in
    ``_runs.c``, field for field."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "order", "successor_bound", "predecessor_bound", "values",
            "members", "first", "stop", "support", "viable",
            "conds", "owners", "scores", "degenerate", "hist", "offsets",
            "slots", "genes", "in_p", "windows",
        )
    ]


class RunPass:
    """One miner's binding of the kernel: every array it reads or writes.

    The index's tables and the values are kept with the scratch and
    output buffers; each address is handed to the kernel once, in a
    :class:`_Pass`.  The pair and window buffers grow on demand.
    :meth:`walk` and :meth:`emit` copy their inputs into the owned
    buffers (a slice assignment refuses one that does not fit), so the
    kernel never reads an array it was not built for.  Every miner owns
    its own pass, so jobs on concurrent threads (the kernel runs without
    the GIL) never share a buffer.  :attr:`windows`, :attr:`genes` and
    :attr:`in_p` are overwritten by the next :meth:`emit`.
    """

    def __init__(self, kernel: RunKernel, index: RWaveIndex, cap: int) -> None:
        tables = [
            np.ascontiguousarray(table)
            for table in (
                index.order, index.successor_bound, index.predecessor_bound
            )
        ]
        values = np.ascontiguousarray(index.matrix.values, dtype=np.float64)
        if (
            len({(table.shape, table.dtype) for table in tables}) != 1
            or tables[0].shape != values.shape
            or tables[0].dtype.itemsize != kernel.width
        ):
            raise ValueError(
                "the run tables must share the values' shape and one "
                "dtype of the kernel's width"
            )
        self._kernel = kernel
        self._index = index
        self._cap = cap
        n_genes, conditions = values.shape
        self._n_conditions = conditions
        self._pass = _Pass()
        self._address = ctypes.addressof(self._pass)
        #: each array handed to the kernel, kept alive by name
        self._arrays: Dict[str, NDArray[Any]] = {}
        #: p-members then n-members of the last :meth:`walk`; a depth-1
        #: node may list a gene as both
        self.members = np.zeros(2 * n_genes, dtype=np.intp)
        #: p-member support of every condition (:meth:`walk`)
        self.support = np.zeros(conditions, dtype=np.intp)
        #: dropped non-finite scores per condition (:meth:`emit`)
        self.degenerate = np.zeros(conditions, dtype=np.intp)
        self._viable = np.zeros(conditions, dtype=np.bool_)
        self._bind(
            order=tables[0], successor_bound=tables[1],
            predecessor_bound=tables[2], values=values,
            members=self.members,
            first=np.zeros(2 * n_genes, dtype=np.intp),
            stop=np.zeros(2 * n_genes, dtype=np.intp),
            support=self.support, viable=self._viable,
            degenerate=self.degenerate,
            hist=np.zeros(conditions * (cap + 1), dtype=np.intp),
            offsets=np.zeros(conditions + 1, dtype=np.intp),
        )
        #: pruning (2) by remaining chain length: the ``(up_end,
        #: down_start)`` rows and their addresses
        self._reach: Dict[int, Tuple[NDArray[np.intp], int, int]] = {}
        #: members and p-members of the last :meth:`walk`
        self._last_walk = (0, 0)
        self._grow(1024)

    def _bind(self, **arrays: NDArray[Any]) -> None:
        for name, array in arrays.items():
            self._arrays[name] = array
            setattr(self._pass, name, array.ctypes.data)

    def _grow(self, capacity: int) -> None:
        self._capacity = capacity
        #: ``(condition, first, last)`` of every window of the last
        #: :meth:`emit`, indexing :attr:`genes` and :attr:`in_p`
        self.windows = np.empty((capacity, 3), dtype=np.intp)
        #: the last emit's pairs grouped by condition, sorted by (score,
        #: gene) from depth 2: their genes and p-member flags
        self.genes = np.empty(capacity, dtype=np.intp)
        self.in_p = np.empty(capacity, dtype=np.bool_)
        self._bind(
            conds=np.empty(capacity, dtype=np.intp),
            owners=np.empty(capacity, dtype=np.intp),
            scores=np.empty(capacity, dtype=np.float64),
            # three float64 hold one slot_t
            slots=np.empty((capacity, 3), dtype=np.float64),
            genes=self.genes, in_p=self.in_p, windows=self.windows,
        )

    def _reach_limits(self, need: int) -> Tuple[int, int]:
        """Pruning (2) as per-gene limits on sorted positions.

        ``max_up`` never increases along a gene's sorted conditions: a
        chain that climbs from one value can climb from any lower value
        instead (float subtraction is monotone).  So ``max_up >= need``
        holds on a prefix ``[0, up_end[g])`` of the sorted positions,
        and likewise ``max_down >= need`` on a suffix ``[down_start[g],
        C)``.  ``need <= 1`` keeps every position.
        """
        need = max(need, 1)
        limits = self._reach.get(need)
        if limits is None:
            index = self._index
            reach = np.empty((2, index.max_up.shape[0]), dtype=np.intp)
            reach[0] = np.count_nonzero(index.max_up >= need, axis=1)
            reach[1] = self._n_conditions - np.count_nonzero(
                index.max_down >= need, axis=1
            )
            address = reach.ctypes.data
            limits = (reach, address, address + reach.strides[0])
            self._reach[need] = limits
        return limits[1:]

    def walk(
        self,
        p_members: NDArray[np.intp],
        n_members: NDArray[np.intp],
        last: int,
        need: int,
    ) -> None:
        """Each member's run, and :attr:`support` from the p-members'.

        The members are gene ids of the index, ``last`` the chain's last
        condition.  ``need`` is the chain length still to grow,
        candidate included: a run keeps the positions whose longest
        chain reaches it.
        """
        n_pm = p_members.shape[0]
        count = n_pm + n_members.shape[0]
        self.members[:n_pm] = p_members
        self.members[n_pm:count] = n_members
        up_end, down_start = self._reach_limits(need)
        total = self._kernel.walk(
            self._address, self._n_conditions, last, up_end, down_start,
            count, n_pm,
        )
        self._last_walk = (count, n_pm)
        if total > self._capacity:
            self._grow(max(total, 2 * self._capacity))

    def emit(
        self,
        viable: NDArray[np.bool_],
        chain: Tuple[int, ...],
        epsilon: float,
        min_genes: int,
    ) -> int:
        """The coherent windows of the walked members' viable pairs.

        From depth 2 the pairs are scored with Eq. 7, less the
        non-finite scores (counted in :attr:`degenerate`) and the
        conditions the bucket prefilter rules out; each condition's
        pairs are sorted by (score, gene) and split into its maximal
        windows of spread <= ``epsilon`` and at least ``min_genes``
        genes.  At depth 1 each condition's pairs, in member order, are
        one window.  Returns the number of rows of :attr:`windows`.
        """
        self._viable[:] = viable
        count, n_pm = self._last_walk
        scored = len(chain) >= 2
        return int(
            self._kernel.emit(
                self._address, self._n_conditions, count, n_pm, scored,
                chain[-1], chain[0], chain[1] if scored else chain[0],
                epsilon, min_genes, self._cap,
            )
        )
