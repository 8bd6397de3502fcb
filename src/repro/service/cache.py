"""On-disk LRU cache for expensive mining artifacts.

Three artifact kinds are memoized:

``index``
    A pickled :class:`~repro.core.rwave.RWaveIndex`, keyed by matrix
    content digest + gamma: the matrix, the per-gene thresholds and the
    two max-chain tables, about three times the matrix's float bytes.
    The same index serves *every* parameter setting that shares gamma —
    only MinG/MinC/epsilon change between typical sweep jobs.
``kernel``
    A pickled :class:`~repro.core.kernels.RegulationKernel` — the
    bit-packed Eq. 3 relation the miner's hot path runs on — keyed the
    same way as the index (digest + gamma determine it completely).
    Cached separately from the index so each stays small and evicts
    independently.
``result``
    A completed mining result in the ``reg-cluster/v1`` JSON schema,
    keyed by job id (which already encodes digest + all parameters).

The cache is a directory of artifact files plus a ``manifest.json``
recording sizes and last-use ordering; total bytes are bounded by
evicting least-recently-used entries.  Everything is guarded by one
lock, so HTTP threads and the execution worker can share an instance.

Every execution path — the daemon's jobs and a fleet node's leases —
obtains its index and kernel through :meth:`ArtifactCache.resolve`:
cache hit, else a delta update of the parent matrix's artifact, else a
cold build, storing whatever it built.
"""

# The cache lock deliberately serializes artifact/manifest file I/O —
# that is what keeps the LRU accounting and the on-disk state mutually
# consistent; RL303's blocking-I/O-under-lock warning is this class's
# design, not a defect (docs/robustness.md, "Concurrency model").
# reglint: disable-file=RL303

from __future__ import annotations

import json
import os
import pickle
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Set, Tuple, Union

from repro.core.kernels import RegulationKernel
from repro.core.rwave import RWaveIndex
from repro.incremental.delta import MatrixDelta
from repro.incremental.update import update_index, update_kernel
from repro.matrix.expression import ExpressionMatrix
from repro.service.resilience import FaultKind, FaultPlan

__all__ = [
    "ArtifactCache",
    "CacheStats",
    "DEFAULT_MAX_BYTES",
    "Lineage",
    "kernel_cache_key",
]

#: A revised matrix's ``(parent_digest, parent_matrix, delta)`` — what
#: :meth:`ArtifactCache.resolve` needs to delta-update the parent's
#: artifacts instead of building cold.
Lineage = Tuple[str, ExpressionMatrix, MatrixDelta]

#: Default size bound: an index pickles to about three times its
#: matrix's float bytes (about 8 MB at 8000x40, 1.2 MB for the 2884x17
#: yeast matrix), so dozens of paper-scale indexes and kernels fit.
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


@dataclass
class CacheStats:
    """Hit/miss/store/eviction counters (observable service behaviour)."""

    index_hits: int = 0
    index_misses: int = 0
    index_stores: int = 0
    kernel_hits: int = 0
    kernel_misses: int = 0
    kernel_stores: int = 0
    result_hits: int = 0
    result_misses: int = 0
    result_stores: int = 0
    evictions: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "index_hits": self.index_hits,
            "index_misses": self.index_misses,
            "index_stores": self.index_stores,
            "kernel_hits": self.kernel_hits,
            "kernel_misses": self.kernel_misses,
            "kernel_stores": self.kernel_stores,
            "result_hits": self.result_hits,
            "result_misses": self.result_misses,
            "result_stores": self.result_stores,
            "evictions": self.evictions,
        }


@dataclass
class _ManifestEntry:
    file: str
    size: int
    last_used: int = 0
    #: the parent matrix digest a delta-updated artifact was derived
    #: from (``None`` for cold-built artifacts) — lineage provenance,
    #: surfaced through :meth:`ArtifactCache.derived_from`
    parent_digest: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "file": self.file,
            "size": self.size,
            "last_used": self.last_used,
        }
        if self.parent_digest is not None:
            payload["parent_digest"] = self.parent_digest
        return payload


#: Index/kernel keys embed the matrix digest; results do not.
_ARTIFACT_KEY = re.compile(r"^(?:index|kernel)-([0-9a-f]{64})-gamma-")
#: The class a pickled artifact of each kind must unpickle to.
_ARTIFACT_TYPES = {"index": RWaveIndex, "kernel": RegulationKernel}


def _key_digest(key: str) -> Optional[str]:
    match = _ARTIFACT_KEY.match(key)
    return match.group(1) if match else None


def _artifact_key(kind: str, matrix_digest: str, gamma: float) -> str:
    return f"{kind}-{matrix_digest}-gamma-{float(gamma)!r}"


def kernel_cache_key(matrix_digest: str, gamma: float) -> str:
    """The cache key of a kernel artifact — doubles as the fleet's
    shard-affinity token: a node advertising this key already built
    the (matrix, gamma) kernel (docs/distributed.md)."""
    return _artifact_key("kernel", matrix_digest, gamma)


def _result_key(job_id: str) -> str:
    return f"result-{job_id}"


class ArtifactCache:
    """LRU-bounded artifact store under one directory.

    Parameters
    ----------
    root:
        Cache directory (created if absent).
    max_bytes:
        Total artifact size bound; least-recently-used entries are
        evicted when an insertion would exceed it.  The entry being
        inserted is never evicted by its own insertion, so a single
        oversized artifact still caches (as the sole entry).
    fault_plan:
        Chaos-testing hook: an active plan with ``cache-write-fail``
        faults makes :meth:`_store` raise :class:`OSError`, simulating
        a full or flaky disk.  ``None`` (production) adds no overhead.
        The service treats cache writes as best-effort, so an injected
        write failure must never fail a job (``docs/robustness.md``).
    """

    def __init__(
        self,
        root: Union[str, Path],
        *,
        max_bytes: int = DEFAULT_MAX_BYTES,
        fault_plan: Optional[FaultPlan] = None,
        fault_observer: Optional[Callable[[FaultKind], None]] = None,
    ) -> None:
        if max_bytes < 1:
            raise ValueError(f"max_bytes must be >= 1, got {max_bytes}")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.max_bytes = int(max_bytes)
        self.fault_plan = fault_plan
        #: notified with the :class:`FaultKind` of every fault this
        #: cache fires (metrics seam; the injected error still raises).
        self.fault_observer = fault_observer
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._clock = 0
        self._manifest: Dict[str, _ManifestEntry] = {}
        #: secondary indexes over the manifest — matrix digest -> keys
        #: of its index/kernel artifacts, and parent digest -> keys of
        #: artifacts delta-derived from it.  Maintained on every
        #: insert/evict/drop so lineage lookups never scan the manifest.
        self._by_digest: Dict[str, Set[str]] = {}
        self._by_parent: Dict[str, Set[str]] = {}
        # Construction is single-threaded, but the index helpers are
        # shared with locked paths — hold the (reentrant) lock so every
        # mutation of the secondary indexes is under it.
        with self._lock:
            self._load_manifest()

    # ------------------------------------------------------------------
    # Manifest persistence
    # ------------------------------------------------------------------

    @property
    def _manifest_path(self) -> Path:
        return self.root / "manifest.json"

    def _load_manifest(self) -> None:
        try:
            payload = json.loads(self._manifest_path.read_text("utf-8"))
        except (FileNotFoundError, json.JSONDecodeError):
            return
        for key, entry in payload.get("entries", {}).items():
            if (self.root / entry["file"]).exists():
                parent = entry.get("parent_digest")
                self._manifest[key] = _ManifestEntry(
                    file=entry["file"],
                    size=int(entry["size"]),
                    last_used=int(entry.get("last_used", 0)),
                    parent_digest=None if parent is None else str(parent),
                )
                self._index_entry(key)
        if self._manifest:
            self._clock = max(e.last_used for e in self._manifest.values())

    def _save_manifest(self) -> None:
        payload = {
            "entries": {
                key: entry.to_dict() for key, entry in self._manifest.items()
            }
        }
        tmp = self._manifest_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        os.replace(tmp, self._manifest_path)

    # ------------------------------------------------------------------
    # Secondary indexes (matrix digest / parent digest -> keys)
    # ------------------------------------------------------------------

    def _index_entry(self, key: str) -> None:
        """Register one manifest entry in the digest/parent indexes."""
        digest = _key_digest(key)
        if digest is not None:
            self._by_digest.setdefault(digest, set()).add(key)
        parent = self._manifest[key].parent_digest
        if parent is not None:
            self._by_parent.setdefault(parent, set()).add(key)

    def _unindex_entry(self, key: str, entry: _ManifestEntry) -> None:
        """Drop one (removed) manifest entry from the secondary indexes."""
        digest = _key_digest(key)
        if digest is not None:
            bucket = self._by_digest.get(digest)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_digest[digest]
        if entry.parent_digest is not None:
            bucket = self._by_parent.get(entry.parent_digest)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._by_parent[entry.parent_digest]

    def _forget(self, key: str) -> Optional[_ManifestEntry]:
        """Remove one key from manifest + indexes (file left to caller)."""
        entry = self._manifest.pop(key, None)
        if entry is not None:
            self._unindex_entry(key, entry)
        return entry

    def artifacts_for_digest(self, matrix_digest: str) -> List[str]:
        """Cached index/kernel keys of one matrix (no manifest scan)."""
        with self._lock:
            return sorted(self._by_digest.get(matrix_digest, ()))

    def derived_from(self, parent_digest: str) -> List[str]:
        """Keys of artifacts delta-derived from ``parent_digest``.

        Children are self-contained: the parent artifact is only an
        input at *build* time, so evicting a parent never invalidates
        the artifacts derived from it — this lookup exists for
        provenance and cache-warming decisions, not liveness.
        """
        with self._lock:
            return sorted(self._by_parent.get(parent_digest, ()))

    # ------------------------------------------------------------------
    # LRU core
    # ------------------------------------------------------------------

    def _touch(self, key: str) -> None:
        self._clock += 1
        self._manifest[key].last_used = self._clock

    def _bump(self, counter: str) -> None:
        """Increment one :class:`CacheStats` field under the cache lock.

        Counters are written concurrently from HTTP handler threads
        (result lookups) and the executor thread (index/kernel reuse);
        an unlocked ``+=`` is a read-modify-write race that loses
        updates (reglint RL301).
        """
        with self._lock:
            setattr(self.stats, counter, getattr(self.stats, counter) + 1)

    def total_bytes(self) -> int:
        """Bytes currently accounted to cached artifacts."""
        with self._lock:
            return sum(entry.size for entry in self._manifest.values())

    def _evict_for(self, incoming_key: str) -> None:
        """Drop LRU entries until the bound holds (sparing the newcomer)."""
        while (
            sum(e.size for e in self._manifest.values()) > self.max_bytes
        ):
            victims = [k for k in self._manifest if k != incoming_key]
            if not victims:
                break
            victim = min(victims, key=lambda k: self._manifest[k].last_used)
            entry = self._forget(victim)
            if entry is None:
                continue
            try:
                (self.root / entry.file).unlink()
            except FileNotFoundError:
                pass
            self.stats.evictions += 1

    def _store(
        self,
        key: str,
        filename: str,
        data: bytes,
        *,
        parent_digest: Optional[str] = None,
    ) -> None:
        if self.fault_plan is not None and self.fault_plan.fire(
            FaultKind.CACHE_WRITE_FAIL
        ):
            if self.fault_observer is not None:
                self.fault_observer(FaultKind.CACHE_WRITE_FAIL)
            raise OSError(
                f"injected {FaultKind.CACHE_WRITE_FAIL.value} storing {key}"
            )
        with self._lock:
            path = self.root / filename
            tmp = path.with_suffix(path.suffix + ".tmp")
            tmp.write_bytes(data)
            os.replace(tmp, path)
            self._forget(key)
            self._manifest[key] = _ManifestEntry(
                file=filename, size=len(data), parent_digest=parent_digest
            )
            self._index_entry(key)
            self._touch(key)
            self._evict_for(key)
            self._save_manifest()

    def _load(self, key: str) -> Optional[bytes]:
        with self._lock:
            entry = self._manifest.get(key)
            if entry is None:
                return None
            try:
                data = (self.root / entry.file).read_bytes()
            except FileNotFoundError:
                self._forget(key)
                self._save_manifest()
                return None
            self._touch(key)
            self._save_manifest()
            return data

    def keys(self) -> Dict[str, int]:
        """Mapping of cached key -> artifact size in bytes."""
        with self._lock:
            return {k: e.size for k, e in self._manifest.items()}

    # ------------------------------------------------------------------
    # RWave indexes and regulation kernels
    # ------------------------------------------------------------------

    def _get_pickled(self, kind: str, matrix_digest: str, gamma: float) -> Any:
        """The unpickled ``kind`` artifact of (digest, gamma), or ``None``."""
        key = _artifact_key(kind, matrix_digest, gamma)
        data = self._load(key)
        artifact = None
        if data is not None:
            try:
                artifact = pickle.loads(data)
            except (pickle.UnpicklingError, EOFError, AttributeError,
                    ImportError):
                # A corrupt or stale artifact is a miss, not an error.
                with self._lock:
                    self._forget(key)
                    self._save_manifest()
        if not isinstance(artifact, _ARTIFACT_TYPES[kind]):
            self._bump(f"{kind}_misses")
            return None
        self._bump(f"{kind}_hits")
        return artifact

    def _put_pickled(
        self,
        kind: str,
        matrix_digest: str,
        gamma: float,
        artifact: Any,
        parent_digest: Optional[str],
    ) -> None:
        key = _artifact_key(kind, matrix_digest, gamma)
        data = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        self._store(key, f"{key}.pkl", data, parent_digest=parent_digest)
        self._bump(f"{kind}_stores")

    def get_index(
        self, matrix_digest: str, gamma: float
    ) -> Optional[RWaveIndex]:
        """A cached index for (digest, gamma), or ``None`` on a miss."""
        index: Optional[RWaveIndex] = self._get_pickled(
            "index", matrix_digest, gamma
        )
        return index

    def put_index(
        self,
        matrix_digest: str,
        gamma: float,
        index: RWaveIndex,
        *,
        parent_digest: Optional[str] = None,
    ) -> None:
        """Memoize a built index under (digest, gamma).

        ``parent_digest`` records lineage when the index was
        delta-updated from another matrix's index (docs/incremental.md).
        """
        self._put_pickled("index", matrix_digest, gamma, index, parent_digest)

    def get_kernel(
        self, matrix_digest: str, gamma: float
    ) -> Optional[RegulationKernel]:
        """A cached kernel for (digest, gamma), or ``None`` on a miss."""
        kernel: Optional[RegulationKernel] = self._get_pickled(
            "kernel", matrix_digest, gamma
        )
        return kernel

    def put_kernel(
        self,
        matrix_digest: str,
        gamma: float,
        kernel: RegulationKernel,
        *,
        parent_digest: Optional[str] = None,
    ) -> None:
        """Memoize a built kernel under (digest, gamma).

        ``parent_digest`` records lineage when the kernel was
        delta-updated from another matrix's kernel (docs/incremental.md).
        """
        self._put_pickled(
            "kernel", matrix_digest, gamma, kernel, parent_digest
        )

    def resolve(
        self,
        kind: str,
        matrix_digest: str,
        gamma: float,
        matrix: ExpressionMatrix,
        *,
        index: Optional[RWaveIndex] = None,
        lineage: Optional[Lineage] = None,
    ) -> Tuple[Any, str, Dict[str, int]]:
        """The ``kind`` artifact (``"index"`` or ``"kernel"``) of
        (digest, gamma), however it has to be obtained.

        Tries a cache hit, then — when ``lineage`` names the matrix's
        ``(parent_digest, parent_matrix, delta)`` — a delta update of
        the parent's cached artifact (docs/incremental.md), then a cold
        build (from ``index`` when one is given).  Whatever was built
        is stored, tagged with its parent digest when delta-updated;
        the store is best-effort, so a failed write (e.g. a full disk)
        still returns the artifact.

        Returns ``(artifact, build, planes)``: ``build`` is
        ``"cached"``, ``"delta"`` or ``"cold"``, and ``planes`` holds a
        delta-updated kernel's ``reused_planes`` / ``rebuilt_planes``
        (empty otherwise).
        """
        artifact = self._get_pickled(kind, matrix_digest, gamma)
        if artifact is not None:
            return artifact, "cached", {}
        planes: Dict[str, int] = {}
        parent_digest: Optional[str] = None
        if lineage is not None:
            parent_digest, parent_matrix, delta = lineage
            parent = self._get_pickled(kind, parent_digest, gamma)
            try:
                if parent is not None and kind == "index":
                    artifact = update_index(parent, matrix, delta).index
                elif parent is not None:
                    update = update_kernel(
                        parent, parent_matrix, matrix, delta, gamma=gamma
                    )
                    artifact = update.kernel
                    planes = {
                        "reused_planes": update.reused_planes,
                        "rebuilt_planes": update.rebuilt_planes,
                    }
            except (TypeError, ValueError):
                pass  # the parent does not fit the lineage: build cold
        build = "delta" if artifact is not None else "cold"
        if artifact is None:
            parent_digest = None
            if index is None:
                index = RWaveIndex(matrix, gamma)
            artifact = index if kind == "index" else index.kernel
        try:
            self._put_pickled(
                kind, matrix_digest, gamma, artifact, parent_digest
            )
        except OSError:
            pass  # best-effort: the in-memory artifact still serves
        return artifact, build, planes

    def get_kernel_bytes(
        self, matrix_digest: str, gamma: float
    ) -> Optional[bytes]:
        """The raw pickled kernel artifact, or ``None`` on a miss.

        The fleet artifact-exchange seam: the coordinator serves this
        verbatim over ``GET /artifacts/kernel/...`` and a node stores
        it straight into its own cache via :meth:`put_kernel_bytes` —
        no unpickle/re-pickle round trip on either side
        (docs/distributed.md).  Counted as a kernel hit/miss like
        :meth:`get_kernel`.
        """
        data = self._load(_artifact_key("kernel", matrix_digest, gamma))
        self._bump("kernel_misses" if data is None else "kernel_hits")
        return data

    def put_kernel_bytes(
        self, matrix_digest: str, gamma: float, data: bytes
    ) -> None:
        """Store an already-pickled kernel artifact under (digest, gamma)."""
        key = _artifact_key("kernel", matrix_digest, gamma)
        self._store(key, f"{key}.pkl", data)
        self._bump("kernel_stores")

    def kernel_keys(self) -> List[str]:
        """Cache keys of every kernel artifact currently held.

        The fleet node advertises these in its lease requests so the
        coordinator can route shards of the same (matrix, gamma) back
        to it — the shard-affinity seam (docs/distributed.md).
        """
        with self._lock:
            return sorted(
                key for key in self._manifest if key.startswith("kernel-")
            )

    # ------------------------------------------------------------------
    # Completed results
    # ------------------------------------------------------------------

    def get_result(self, job_id: str) -> Optional[Dict[str, Any]]:
        """A cached ``reg-cluster/v1`` payload for a job id, or ``None``."""
        data = self._load(_result_key(job_id))
        if data is None:
            self._bump("result_misses")
            return None
        try:
            payload = json.loads(data.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError):
            self._bump("result_misses")
            return None
        self._bump("result_hits")
        return dict(payload)

    def put_result(self, job_id: str, payload: Dict[str, Any]) -> None:
        """Memoize a completed result payload under its job id."""
        key = _result_key(job_id)
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._store(key, f"{key}.json", data)
        self._bump("result_stores")

    def drop_result(self, job_id: str) -> None:
        """Forget a cached result (used when a job record is deleted)."""
        self.drop_artifact(_result_key(job_id))

    def drop_artifact(self, key: str) -> None:
        """Evict one artifact by cache key (no-op when absent).

        Safe on any key — including a parent whose delta-derived
        children are still cached: children are self-contained
        (:meth:`derived_from`), so dropping the parent only costs the
        next revision a cold build, never correctness.
        """
        with self._lock:
            entry = self._forget(key)
            if entry is not None:
                try:
                    (self.root / entry.file).unlink()
                except FileNotFoundError:
                    pass
                self._save_manifest()
