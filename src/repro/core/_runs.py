"""Build, load and call the compiled half of the miner (``_runs.c``).

The C source ships as package data.  The first process that asks for it
compiles it with ``cc`` into the package's ``__pycache__``, under a name
hashing the source, the flags and the platform, then binds it with
:mod:`ctypes`; later processes find the library there and only load it.
Only when that directory cannot be created or written does the cache
move to a per-user temp directory, and only if this user owns it and no
one else may enter it (a shared temp dir lets anyone plant a library
under the predictable name).  A build is published with ``os.replace``,
so concurrent builders (pool workers, fleet nodes) are safe.  Without a
working compiler or a safe cache the loader warns once per process and
:func:`run_kernel` and :func:`json_matrix_reader` return ``None``: the
miner then takes its legacy path, :func:`repro.core.rwave.chain_tables`
its numpy body and :func:`repro.service.router.decode_body` plain
:func:`json.loads`.  ``-ffp-contract=off`` (and no fast-math) keeps
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
import weakref
from functools import partial
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Dict,
    NamedTuple,
    Optional,
    Tuple,
)

import numpy as np
from numpy.typing import NDArray

if TYPE_CHECKING:
    from repro.core.rwave import RWaveIndex

__all__ = [
    "CONTINUE",
    "COUNTERS",
    "EVENTS",
    "PHASES",
    "REDUNDANT",
    "STOP",
    "JsonMatrixReader",
    "RunKernel",
    "RunPass",
    "json_matrix_reader",
    "native_tables",
    "run_kernel",
]

_SOURCE = Path(__file__).with_name("_runs.c")
_COMPILER: Tuple[str, ...] = ("cc",)
_FLAGS: Tuple[str, ...] = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
#: Table entry width in bytes -> exported symbol suffix.
_WIDTHS = {1: "i8", 2: "i16", 4: "i32"}

_P = ctypes.c_void_p
_N = ctypes.c_ssize_t
_I = ctypes.c_int
#: ``hook_t``: the search's one way into Python.
_HOOK = ctypes.CFUNCTYPE(_I, _I)
_SIGNATURES: Dict[str, Tuple[Any, Tuple[Any, ...]]] = {
    "walk": (_N, (_P, _N, _N, _N, _N)),
    "emit": (_N, (_P, _N, _N, _I, _N, _N, _N, ctypes.c_double, _N, _N)),
    "search": (_I, (_P, _P, _N, _N, _N, _N)),
    "tables": (_I, (_P, _P, _N, _N, _P, _P, _P, _P, _P, _P)),
}

#: What the search calls the hook for, by ``event`` code: ``"node"``
#: (each node, when an observer is set), ``"tick"`` (every 4096 nodes
#: otherwise), ``"emit"`` (an emit-eligible node) and the Figure 6 trace
#: events of :class:`repro.core.trace.SearchTrace`.
EVENTS = (
    "node", "tick", "emit", "expanded", "pruned_min_genes",
    "pruned_p_majority", "pruned_reachability", "pruned_coherence",
)
#: The hook's answers: go on; end this node (a redundant emit); stop.
CONTINUE, REDUNDANT, STOP = 0, 1, 2


class RunKernel(NamedTuple):
    """The entry points for one table entry width (in bytes), and the
    width-free ``release``."""

    width: int
    walk: Any
    emit: Any
    search: Any
    tables: Any
    release: Any


class _Library(NamedTuple):
    """The library's entry points: the kernels by table entry width, and
    the width-free ``runs_json_matrix``."""

    kernels: Dict[int, RunKernel]
    json_matrix: Any


class _Loader:
    """The process's bound library, loaded at most once.

    The lock serializes the one-time build.  A child forked while
    another thread held it starts with a fresh lock, so it never waits
    on a build it will not see finish, and loads the library itself.
    """

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.tried = False
        #: ``None`` once a build failed
        self.library: Optional[_Library] = None

    def after_fork(self) -> None:
        self.lock = threading.Lock()
        if self.library is None:
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


def _bound(
    library: ctypes.CDLL, name: str, restype: Any, argtypes: Any
) -> Any:
    function = getattr(library, name)
    function.argtypes = argtypes
    function.restype = restype
    return function


def _bind(library: ctypes.CDLL) -> _Library:
    release = _bound(library, "runs_release", None, (_P,))
    kernels: Dict[int, RunKernel] = {}
    for width, suffix in _WIDTHS.items():
        functions = {
            name: _bound(library, f"runs_{name}_{suffix}", *signature)
            for name, signature in _SIGNATURES.items()
        }
        kernels[width] = RunKernel(width, release=release, **functions)
    json_matrix = _bound(
        library, "runs_json_matrix", _N, (ctypes.c_char_p, _N, _N, _P, _P)
    )
    return _Library(kernels, json_matrix)


def _library() -> Optional[_Library]:
    """The process's bound library, built or loaded on first use;
    ``None`` (after one warning) without a compiler."""
    loader = _loader
    with loader.lock:
        if not loader.tried:
            loader.tried = True
            try:
                # The lock exists to serialize this one-time build.
                path = _library_path()  # reglint: disable=RL303
                loader.library = _bind(ctypes.CDLL(str(path)))
            except (OSError, subprocess.CalledProcessError) as error:
                detail = getattr(error, "stderr", None) or str(error)
                warnings.warn(
                    "the native run kernel could not be built, so the "
                    "miner takes its legacy path, the RWave tables are "
                    "built with numpy and request bodies are decoded "
                    f"with json.loads: {detail.strip()}",
                    RuntimeWarning,
                    stacklevel=4,
                )
        return loader.library


def run_kernel(table_dtype: np.dtype) -> Optional[RunKernel]:
    """The kernel for a table dtype, or ``None`` without a compiler."""
    library = _library()
    if library is None:
        return None
    return library.kernels[table_dtype.itemsize]


#: ``read(text, start)``: the JSON matrix at ``text[start]`` and the
#: offset just past it, or ``None`` when the reader declines the array.
JsonMatrixReader = Callable[
    [bytes, int], Optional[Tuple[NDArray[np.float64], int]]
]


def json_matrix_reader() -> Optional[JsonMatrixReader]:
    """The compiled JSON matrix reader, or ``None`` without a compiler.

    It reads the JSON array whose ``[`` is at ``text[start]`` when the
    array is one or more equal-length rows of one or more JSON numbers,
    into a float64 array bit-identical to ``np.asarray(json.loads(...),
    dtype=np.float64)``.  It declines (``None``) any other array, an
    integer of more than 15 digits and a float ``strtod`` does not read
    exactly or in range; ``runs_json_matrix`` in ``_runs.c`` says how.
    """
    library = _library()
    if library is None:
        return None
    return partial(_read_json, library.json_matrix)


def _read_json(
    json_matrix: Any, text: bytes, start: int
) -> Optional[Tuple[NDArray[np.float64], int]]:
    shape = (_N * 2)()
    end = json_matrix(text, len(text), start, ctypes.addressof(shape), None)
    if end < 0:
        return None
    values = np.empty((shape[0], shape[1]), dtype=np.float64)
    if json_matrix(
        text, len(text), start, ctypes.addressof(shape), values.ctypes.data
    ) < 0:
        return None  # a number strtod reads out of range
    return values, int(end)


def native_tables(
    values: NDArray[np.float64],
    thresholds: NDArray[np.float64],
    dtype: np.dtype,
) -> Optional[Tuple[NDArray[Any], ...]]:
    """The six RWave^gamma tables of every row, built by the kernel.

    ``(order, position, successor_bound, predecessor_bound, max_up,
    max_down)`` in ``dtype``, as :func:`repro.core.rwave.chain_tables`
    defines them; ``None`` without a compiler.
    """
    kernel = run_kernel(dtype)
    if kernel is None:
        return None
    data = np.ascontiguousarray(values, dtype=np.float64)
    per_gene = np.ascontiguousarray(thresholds, dtype=np.float64)
    n_genes, n_conditions = data.shape
    if per_gene.shape != (n_genes,):
        raise ValueError("one threshold per row is needed")
    tables = tuple(
        np.empty((n_genes, n_conditions), dtype=dtype) for __ in range(6)
    )
    if kernel.tables(
        data.ctypes.data, per_gene.ctypes.data, n_genes, n_conditions,
        *(table.ctypes.data for table in tables),
    ):
        raise MemoryError("no memory for the RWave table build")
    return tables


class _Pass(ctypes.Structure):
    """The addresses of a :class:`RunPass`'s arrays: ``pass_t`` in
    ``_runs.c``, field for field.  The kernel grows (and sets) the last
    seven."""

    _fields_ = [
        (name, ctypes.c_void_p)
        for name in (
            "order", "successor_bound", "predecessor_bound", "max_up",
            "max_down", "values", "members", "first", "stop", "support",
            "viable", "degenerate", "hist", "offsets", "chain", "heap",
            "conds", "owners", "scores", "slots", "genes", "in_p",
            "windows",
        )
    ]


class _Heap(ctypes.Structure):
    """``heap_t``: the sizes, and what the kernel allocates for a pass."""

    _fields_ = [
        ("n_genes", _N), ("n_conditions", _N), ("capacity", _N),
        ("reach", _P), ("frames", _P), ("n_frames", _N),
        ("frames_capacity", _N), ("arena", _P), ("arena_top", _N),
        ("arena_capacity", _N),
    ]


#: The counters a search accumulates, as :class:`SearchStatistics`
#: names them, and its phase seconds, as :class:`PhaseTimers` does.
COUNTERS = (
    "nodes_expanded", "candidates_examined", "pruned_min_genes",
    "pruned_p_majority", "coherence_rejections", "max_depth",
    "degenerate_genes_dropped",
)
PHASES = ("candidates", "windows", "emit")


class _Search(ctypes.Structure):
    """``search_t``: one mine()'s settings and hook, the node a hook call
    is about, and the counters and phase seconds of the mine()."""

    _fields_ = [
        *((name, _N) for name in (
            "min_genes", "min_conditions", "min_support", "cap",
        )),
        ("epsilon", ctypes.c_double),
        *((name, _N) for name in (
            "prune_min_genes", "prune_p_majority", "reachability", "probe",
            "trace",
        )),
        ("hook", _HOOK),
        ("depth", _N), ("n_pm", _N), ("n_n", _N),
        *((name, _N) for name in COUNTERS),
        *((name, ctypes.c_double) for name in PHASES),
    ]


#: The buffers the kernel grows, as :meth:`RunPass._grown` views them:
#: dtype and entries per pair.
_GROWN = {
    "conds": (np.dtype(np.intp), 1),
    "owners": (np.dtype(np.intp), 1),
    "scores": (np.dtype(np.float64), 1),
    "genes": (np.dtype(np.intp), 1),
    "in_p": (np.dtype(np.bool_), 1),
    "windows": (np.dtype(np.intp), 3),
}


def _release(kernel: RunKernel, owner: _Pass, heap: _Heap) -> None:
    """Free what the kernel allocated for a collected :class:`RunPass`
    (``heap`` is held until then: the pass points into it)."""
    kernel.release(ctypes.addressof(owner))


class RunPass:
    """One miner's binding of the kernel: every array it reads or writes.

    The index's tables and the values are kept with the fixed scratch
    arrays; each address is handed to the kernel once, in a
    :class:`_Pass`.  The pair and window buffers and the search's node
    stack grow inside the kernel, which frees them when the pass is
    collected.  :meth:`search` runs the Fig. 5 search from one start
    condition; :meth:`walk` and :meth:`emit` run one node's two steps
    alone (the seams the kernel tests drive).  They copy their inputs
    into the owned buffers (a slice assignment refuses one that does
    not fit), so the kernel never reads an array it was not built for.
    Every miner owns its own pass, so jobs on concurrent threads (the
    kernel runs without the GIL) never share a buffer.
    """

    def __init__(
        self, kernel: RunKernel, index: "RWaveIndex", cap: int
    ) -> None:
        tables = [
            np.ascontiguousarray(table)
            for table in (
                index.order, index.successor_bound, index.predecessor_bound
            )
        ]
        # pruning (2)'s tables, read in the run tables' width
        reach = [
            np.ascontiguousarray(table, dtype=tables[0].dtype)
            for table in (index.max_up, index.max_down)
        ]
        values = np.ascontiguousarray(index.matrix.values, dtype=np.float64)
        if (
            len({(table.shape, table.dtype) for table in tables + reach})
            != 1
            or tables[0].shape != values.shape
            or tables[0].dtype.itemsize != kernel.width
        ):
            raise ValueError(
                "the run tables must share the values' shape and one "
                "dtype of the kernel's width"
            )
        self._kernel = kernel
        self._cap = cap
        n_genes, conditions = values.shape
        self._heap = _Heap(n_genes=n_genes, n_conditions=conditions)
        self._pass = _Pass(heap=ctypes.addressof(self._heap))
        self._address = ctypes.addressof(self._pass)
        #: the settings, hook and counters of the current mine()
        self.settings = _Search()
        self._hook: Optional[Any] = None
        #: each array handed to the kernel, kept alive by name
        self._arrays: Dict[str, NDArray[Any]] = {}
        #: p-members then n-members of the node being expanded; a
        #: depth-1 node may list a gene as both
        self.members = np.zeros(2 * n_genes, dtype=np.intp)
        #: the chain of the node a hook call reports on
        self.chain = np.zeros(conditions + 1, dtype=np.intp)
        #: p-member support of every condition (:meth:`walk`)
        self.support = np.zeros(conditions, dtype=np.intp)
        #: dropped non-finite scores per condition (:meth:`emit`)
        self.degenerate = np.zeros(conditions, dtype=np.intp)
        self._viable = np.zeros(conditions, dtype=np.bool_)
        self._bind(
            order=tables[0], successor_bound=tables[1],
            predecessor_bound=tables[2], max_up=reach[0], max_down=reach[1],
            values=values, members=self.members,
            first=np.zeros(2 * n_genes, dtype=np.intp),
            stop=np.zeros(2 * n_genes, dtype=np.intp),
            support=self.support, viable=self._viable,
            degenerate=self.degenerate,
            hist=np.zeros(conditions * (cap + 1), dtype=np.intp),
            offsets=np.zeros(conditions + 1, dtype=np.intp),
            chain=self.chain,
        )
        #: members and p-members of the last :meth:`walk`
        self._last_walk = (0, 0)
        weakref.finalize(self, _release, kernel, self._pass, self._heap)

    def _bind(self, **arrays: NDArray[Any]) -> None:
        for name, array in arrays.items():
            self._arrays[name] = array
            setattr(self._pass, name, array.ctypes.data)

    def _grown(self, name: str) -> NDArray[Any]:
        """A view of a buffer the kernel grows, valid until the next
        :meth:`walk` or :meth:`search` (either may move it)."""
        dtype, width = _GROWN[name]
        capacity = self._heap.capacity
        address = getattr(self._pass, name)
        if not capacity or not address:
            return np.empty((0, width) if width > 1 else 0, dtype=dtype)
        size = capacity * width * dtype.itemsize
        view = np.frombuffer(
            (ctypes.c_char * size).from_address(address), dtype=dtype
        )
        return view.reshape(capacity, width) if width > 1 else view

    @property
    def windows(self) -> NDArray[np.intp]:
        """``(condition, first, last)`` of every window of the last
        :meth:`emit`, indexing :attr:`genes` and :attr:`in_p`."""
        return self._grown("windows")

    @property
    def genes(self) -> NDArray[np.intp]:
        """The last emit's pairs grouped by condition, sorted by (score,
        gene) from depth 2: their genes."""
        return self._grown("genes")

    @property
    def in_p(self) -> NDArray[np.bool_]:
        """The p-member flags of :attr:`genes`."""
        return self._grown("in_p")

    def _load(
        self, p_members: NDArray[np.intp], n_members: NDArray[np.intp]
    ) -> Tuple[int, int]:
        n_pm = p_members.shape[0]
        count = n_pm + n_members.shape[0]
        self.members[:n_pm] = p_members
        self.members[n_pm:count] = n_members
        return count, n_pm

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
        count, n_pm = self._load(p_members, n_members)
        if self._kernel.walk(self._address, last, need, count, n_pm) < 0:
            raise MemoryError("no memory for the run kernel's buffers")
        self._last_walk = (count, n_pm)

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
                self._address, count, n_pm, scored, chain[-1], chain[0],
                chain[1] if scored else chain[0], epsilon, min_genes,
                self._cap,
            )
        )

    def begin(self, hook: Callable[[int], int], **settings: float) -> None:
        """Set a mine()'s settings and hook, and zero its counters.

        ``settings`` names the integer and float fields of ``search_t``
        (``min_genes``, ``epsilon``, the pruning flags, ``probe`` for a
        hook call at every node and ``trace`` for the Figure 6 events).
        ``hook(event)`` answers :data:`CONTINUE`, :data:`REDUNDANT` or
        :data:`STOP`; it must not raise (the kernel cannot unwind a
        Python exception).
        """
        self._hook = _HOOK(hook)
        self.settings = _Search(cap=self._cap, hook=self._hook, **settings)

    def search(
        self,
        start: int,
        p_members: NDArray[np.intp],
        n_members: NDArray[np.intp],
        total: int,
    ) -> bool:
        """The Fig. 5 search of the chains starting at ``start``.

        The root's members are ``p_members`` then ``n_members``; ``total``
        counts their distinct genes.  Counters and phase seconds add up
        in :attr:`settings`.  Returns whether the hook stopped it.
        """
        count, n_pm = self._load(p_members, n_members)
        status = self._kernel.search(
            self._address, ctypes.addressof(self.settings), start, n_pm,
            count - n_pm, total,
        )
        if status < 0:
            raise MemoryError("no memory for the search's node stack")
        return bool(status)
