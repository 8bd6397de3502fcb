"""Typed matrix deltas and the revision lineage edge.

A *delta* is the difference between two matrix revisions, restricted to
the three shapes real compendia grow by:

``append_conditions``
    new arrays (columns) arrive; every existing gene gains one value
    per new condition.
``append_genes``
    new genes (rows) arrive with a full profile over the existing
    conditions.
``drop_genes``
    genes are retired (failed probes, withdrawn annotations); the
    remaining rows keep their relative order.

Conditions are never dropped or reordered and existing cells are never
edited — such a change is modeled as a fresh matrix, not a revision.

A :class:`MatrixRevision` binds a delta to its parent and child matrix
content digests; the child digest is derived by *applying* the delta,
so lineage is content-addressed end to end and an empty or no-op delta
is rejected outright (it would alias its parent).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from repro.matrix.expression import ExpressionMatrix

__all__ = [
    "AppendConditions",
    "AppendGenes",
    "DropGenes",
    "MatrixDelta",
    "MatrixRevision",
    "REVISION_FORMAT",
    "apply_delta",
    "delta_from_dict",
    "delta_to_dict",
]

REVISION_FORMAT = "reg-cluster-revision/v1"


def _checked_names(names: Any, kind: str) -> Tuple[str, ...]:
    resolved = tuple(str(name) for name in names)
    if not resolved:
        raise ValueError(f"a delta must name at least one {kind}")
    if len(set(resolved)) != len(resolved):
        raise ValueError(f"delta {kind} names must be unique")
    return resolved


def _checked_values(values: Any, rows: int, kind: str) -> NDArray[np.float64]:
    try:
        array = np.asarray(values, dtype=np.float64)
    except TypeError:
        raise ValueError("delta values must be rows of numbers") from None
    if array.ndim != 2:
        raise ValueError(
            f"delta values must be 2-D, got shape {array.shape}"
        )
    if array.shape[0] != rows:
        raise ValueError(
            f"delta values must have one row per {kind}: expected "
            f"{rows}, got {array.shape[0]}"
        )
    if array.size and not np.all(np.isfinite(array)):
        raise ValueError("delta values must be finite")
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class AppendConditions:
    """New conditions (columns), one expression value per existing gene.

    ``values`` has shape ``(len(names), n_genes_of_parent)`` — one row
    per new condition, matching the wire/file form where each new array
    arrives as a vector over the current gene set.
    """

    names: Tuple[str, ...]
    values: NDArray[np.float64] = field(repr=False)
    kind = "append_conditions"

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", _checked_names(self.names, "condition"))
        object.__setattr__(
            self,
            "values",
            _checked_values(self.values, len(self.names), "condition"),
        )


@dataclass(frozen=True, eq=False)
class AppendGenes:
    """New genes (rows) with a full profile over the parent's conditions.

    ``values`` has shape ``(len(names), n_conditions_of_parent)``.
    """

    names: Tuple[str, ...]
    values: NDArray[np.float64] = field(repr=False)
    kind = "append_genes"

    def __post_init__(self) -> None:
        object.__setattr__(self, "names", _checked_names(self.names, "gene"))
        object.__setattr__(
            self,
            "values",
            _checked_values(self.values, len(self.names), "gene"),
        )


@dataclass(frozen=True)
class DropGenes:
    """Retire genes by name; surviving rows keep their relative order."""

    genes: Tuple[str, ...]
    kind = "drop_genes"

    def __post_init__(self) -> None:
        object.__setattr__(self, "genes", _checked_names(self.genes, "gene"))


MatrixDelta = Union[AppendConditions, AppendGenes, DropGenes]


def delta_to_dict(delta: MatrixDelta) -> Dict[str, Any]:
    """A delta as a JSON-ready dict (inverse of :func:`delta_from_dict`)."""
    if isinstance(delta, AppendConditions):
        return {
            "kind": delta.kind,
            "names": list(delta.names),
            "values": [[float(v) for v in row] for row in delta.values],
        }
    if isinstance(delta, AppendGenes):
        return {
            "kind": delta.kind,
            "names": list(delta.names),
            "values": [[float(v) for v in row] for row in delta.values],
        }
    if isinstance(delta, DropGenes):
        return {"kind": delta.kind, "genes": list(delta.genes)}
    raise TypeError(f"unknown delta type {type(delta).__name__}")


def delta_from_dict(payload: Dict[str, Any]) -> MatrixDelta:
    """Build a typed delta from its JSON form (re-validated on build).

    Raises :class:`ValueError` for a member of the wrong JSON type.
    """
    if not isinstance(payload, dict):
        raise ValueError("delta must be a JSON object")
    kind = payload.get("kind")
    for key in ("names", "values", "genes"):
        # A request body's numeric rows arrive decoded as an ndarray.
        kinds = (list, np.ndarray) if key == "values" else list
        if not isinstance(payload.get(key, []), kinds):
            raise ValueError(f"delta {key!r} must be a list")
    if kind == AppendConditions.kind:
        return AppendConditions(
            names=tuple(payload.get("names", ())),
            values=payload.get("values", []),
        )
    if kind == AppendGenes.kind:
        return AppendGenes(
            names=tuple(payload.get("names", ())),
            values=payload.get("values", []),
        )
    if kind == DropGenes.kind:
        return DropGenes(genes=tuple(payload.get("genes", ())))
    raise ValueError(
        f"unknown delta kind {kind!r}; expected one of "
        f"'append_conditions', 'append_genes', 'drop_genes'"
    )


def apply_delta(
    matrix: ExpressionMatrix, delta: MatrixDelta
) -> ExpressionMatrix:
    """The child matrix of applying one delta to a parent matrix.

    Raises :class:`ValueError` when the delta does not fit the parent
    (wrong width, clashing or unknown names, or dropping every gene).
    """
    if isinstance(delta, AppendConditions):
        if delta.values.shape[1] != matrix.n_genes:
            raise ValueError(
                f"append_conditions values must have {matrix.n_genes} "
                f"columns (one per parent gene), got {delta.values.shape[1]}"
            )
        clash = set(delta.names) & set(matrix.condition_names)
        if clash:
            raise ValueError(
                f"condition name(s) already present: {sorted(clash)}"
            )
        return ExpressionMatrix(
            np.hstack([matrix.values, delta.values.T]),
            matrix.gene_names,
            (*matrix.condition_names, *delta.names),
        )
    if isinstance(delta, AppendGenes):
        if delta.values.shape[1] != matrix.n_conditions:
            raise ValueError(
                f"append_genes values must have {matrix.n_conditions} "
                f"columns (one per parent condition), got "
                f"{delta.values.shape[1]}"
            )
        clash = set(delta.names) & set(matrix.gene_names)
        if clash:
            raise ValueError(
                f"gene name(s) already present: {sorted(clash)}"
            )
        return ExpressionMatrix(
            np.vstack([matrix.values, delta.values]),
            (*matrix.gene_names, *delta.names),
            matrix.condition_names,
        )
    if isinstance(delta, DropGenes):
        unknown = set(delta.genes) - set(matrix.gene_names)
        if unknown:
            raise ValueError(f"unknown gene name(s): {sorted(unknown)}")
        dropped = set(delta.genes)
        keep = [
            name for name in matrix.gene_names if name not in dropped
        ]
        if not keep:
            raise ValueError("a delta cannot drop every gene")
        return matrix.submatrix(genes=keep)
    raise TypeError(f"unknown delta type {type(delta).__name__}")


@dataclass(frozen=True)
class MatrixRevision:
    """One edge of the matrix lineage: parent --delta--> child, as a
    revision request's response reports it (it is not stored).

    Both endpoints are content digests
    (:func:`repro.matrix.summary.matrix_digest`): the child digest is
    *derived* by applying the delta, never supplied, and a no-op delta —
    which would make the child alias its parent — is structurally
    impossible (every delta kind changes the matrix shape or
    membership).
    """

    parent_digest: str
    child_digest: str
    delta: Dict[str, Any]
    created_at: float

    def __post_init__(self) -> None:
        if self.parent_digest == self.child_digest:
            raise ValueError(
                "a revision cannot alias its parent (no-op delta)"
            )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "format": REVISION_FORMAT,
            "parent_digest": self.parent_digest,
            "child_digest": self.child_digest,
            "delta": dict(self.delta),
            "created_at": self.created_at,
        }
