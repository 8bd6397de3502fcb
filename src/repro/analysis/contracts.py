"""Debug-mode runtime contracts for the RWave index (Lemma 3.1).

The RWave^gamma model replaces the O(n^2) pairwise regulation table with
O(n) non-embedded pointers from which every regulation predecessor /
successor is recovered with one lookup.  That compression is exactly
where a subtle bug would corrupt every downstream cluster, so this
module re-verifies the invariants against brute force:

* the condition order is a permutation sorted by expression value, and
  ``position`` is its inverse;
* pointers are strictly increasing in both tail and head — i.e. no
  pointer is embedded in another (Definition 3.1);
* every pointer marks a regulated bordering pair (Eq. 3, strict);
* one-lookup predecessor/successor bounds agree with the brute-force
  pairwise scan for every condition (Lemma 3.1);
* the max-chain tables used by the MinC pruning agree with a
  brute-force dynamic program;
* the index's columnar tables — sorted ``order`` and ``position``,
  ``successor_bound`` / ``predecessor_bound`` and ``max_up`` /
  ``max_down`` — agree with each gene's model, built on demand;
* along each gene's sorted order ``max_up`` never increases and
  ``max_down`` never decreases: the miner's extension runs are
  contiguous because of it.

The checks are O(n^2) per gene and therefore OFF by default.  Enable
them for a debugging session with the ``REPRO_CONTRACTS=1`` environment
variable, or programmatically::

    from repro.analysis import contracts
    contracts.enable()            # or: with contracts.activated(): ...

:class:`repro.core.rwave.RWaveIndex` consults this module after
construction, so an enabled contract guards every miner run.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, List, Set, Tuple

import numpy as np

if TYPE_CHECKING:  # imported for annotations only: core imports us at runtime
    from repro.core.rwave import RWaveIndex, RWaveModel

__all__ = [
    "ContractViolation",
    "enable",
    "disable",
    "set_enabled",
    "activated",
    "contracts_enabled",
    "check_rwave_model",
    "check_rwave_index",
    "maybe_check_rwave_index",
]

_ENV_FLAG = "REPRO_CONTRACTS"
_TRUTHY = {"1", "true", "yes", "on"}

_enabled: bool = os.environ.get(_ENV_FLAG, "").strip().lower() in _TRUTHY


class ContractViolation(AssertionError):
    """An RWave invariant does not hold — the index is corrupt."""


def set_enabled(flag: bool) -> None:
    """Turn contract checking on or off for this process.

    The one writer of the flag.  A pool worker gets the driver's flag
    with each run's worker context
    (:func:`repro.service.executor._install_context`), so a programmatic
    :func:`enable` reaches the workers of runs started after it, warm or
    new, under ``spawn`` as under ``fork``.
    """
    global _enabled
    _enabled = flag


def enable() -> None:
    """Turn contract checking on for this process."""
    set_enabled(True)


def disable() -> None:
    """Turn contract checking off."""
    set_enabled(False)


def contracts_enabled() -> bool:
    """Are debug contracts currently active?"""
    return _enabled


@contextmanager
def activated() -> Iterator[None]:
    """Context manager enabling contracts for a scoped block (tests)."""
    previous = _enabled
    set_enabled(True)
    try:
        yield
    finally:
        set_enabled(previous)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ContractViolation(message)


def _brute_chain_tables(
    values: "np.ndarray", threshold: float
) -> Tuple[List[int], List[int]]:
    """Longest up/down chain per position, by O(n^2) dynamic programming."""
    n = len(values)
    up = [1] * n
    down = [1] * n
    for p in range(n - 1, -1, -1):
        reachable = [q for q in range(p + 1, n) if values[q] - values[p] > threshold]
        if reachable:
            up[p] = 1 + max(up[q] for q in reachable)
    for p in range(n):
        reachable = [q for q in range(p) if values[p] - values[q] > threshold]
        if reachable:
            down[p] = 1 + max(down[q] for q in reachable)
    return up, down


def check_rwave_model(model: "RWaveModel") -> None:
    """Verify one gene's model against Definition 3.1 / Lemma 3.1.

    Raises :class:`ContractViolation` on the first broken invariant.
    """
    gene = f"gene {model.gene}" if model.gene is not None else "gene ?"
    n = model.n_conditions
    order = np.asarray(model.order)
    position = np.asarray(model.position)
    values = np.asarray(model.sorted_values)

    _require(
        sorted(int(c) for c in order) == list(range(n)),
        f"{gene}: order is not a permutation of the conditions",
    )
    _require(
        bool(np.all(position[order] == np.arange(n))),
        f"{gene}: position is not the inverse of order",
    )
    _require(
        bool(np.all(np.diff(values) >= 0)) if n else True,
        f"{gene}: sorted_values are not in non-descending order",
    )

    # Pointer invariants: strictly increasing tails AND heads <=> no
    # pointer embedded in another (Definition 3.1), in scan order.
    pointers = model.pointers
    for pointer in pointers:
        _require(
            0 <= pointer.tail < pointer.head < n,
            f"{gene}: pointer {pointer} out of bounds",
        )
        _require(
            float(values[pointer.head] - values[pointer.tail]) > model.threshold,
            f"{gene}: pointer {pointer} is not a regulated pair (Eq. 3)",
        )
    for before, after in zip(pointers, pointers[1:]):
        _require(
            before.tail < after.tail and before.head < after.head,
            f"{gene}: pointers {before} and {after} are embedded/unordered",
        )

    # Lemma 3.1: the one-lookup predecessor/successor bounds must agree
    # with the brute-force pairwise scan for every condition.
    for p in range(n):
        condition = int(order[p])
        true_preds: Set[int] = {
            int(order[q]) for q in range(n) if values[p] - values[q] > model.threshold
        }
        true_succs: Set[int] = {
            int(order[q]) for q in range(n) if values[q] - values[p] > model.threshold
        }
        got_preds = {int(c) for c in model.regulation_predecessors(condition)}
        got_succs = {int(c) for c in model.regulation_successors(condition)}
        _require(
            got_preds == true_preds,
            f"{gene}: predecessor lookup for condition {condition} returned "
            f"{sorted(got_preds)}, brute force says {sorted(true_preds)}",
        )
        _require(
            got_succs == true_succs,
            f"{gene}: successor lookup for condition {condition} returned "
            f"{sorted(got_succs)}, brute force says {sorted(true_succs)}",
        )

    # MinC pruning tables (strategy 2) against the brute-force DP.
    up, down = _brute_chain_tables(values, model.threshold)
    _require(
        [int(x) for x in model.max_chain_up] == up,
        f"{gene}: max_chain_up disagrees with brute-force chains",
    )
    _require(
        [int(x) for x in model.max_chain_down] == down,
        f"{gene}: max_chain_down disagrees with brute-force chains",
    )


def check_rwave_index(index: "RWaveIndex") -> None:
    """Verify every gene's model plus the bulk lookup arrays.

    First the monotonicity the miner's extension runs rely on is
    checked for all genes at once.  Then each gene's
    :class:`RWaveModel` is built on demand from the index's row and
    threshold, checked against brute force, and used as the reference
    for that gene's rows of every index table.
    """
    n_conditions = index.matrix.n_conditions
    up = np.take_along_axis(index.max_up, index.order, axis=1)
    down = np.take_along_axis(index.max_down, index.order, axis=1)
    _require(
        bool(np.all(up[:, 1:] <= up[:, :-1])),
        "index.max_up increases along a gene's sorted order",
    )
    _require(
        bool(np.all(down[:, 1:] >= down[:, :-1])),
        "index.max_down decreases along a gene's sorted order",
    )
    for i in range(index.matrix.n_genes):
        model = index.model(i)
        check_rwave_model(model)
        expected = {
            "order": model.order,
            "position": model.position,
            "successor_bound": [
                model.successor_bound(c) for c in range(n_conditions)
            ],
            "predecessor_bound": [
                model.predecessor_bound(c) for c in range(n_conditions)
            ],
            "max_up": model.max_chain_up[model.position],
            "max_down": model.max_chain_down[model.position],
        }
        for name, reference in expected.items():
            _require(
                bool(np.array_equal(getattr(index, name)[i], reference)),
                f"gene {i}: index.{name} disagrees with the gene's model",
            )


def maybe_check_rwave_index(index: "RWaveIndex") -> None:
    """Run :func:`check_rwave_index` only when contracts are enabled."""
    if _enabled:
        check_rwave_index(index)
