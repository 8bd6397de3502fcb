"""Reading and writing expression matrices.

The on-disk format is the tab-delimited layout used by the benchmark yeast
dataset the paper evaluates on (one header row of condition names, one row
per gene, first column the gene name).  Missing values — common in real
microarray exports — may be written as an empty field, ``NA``, ``NaN`` or
``?`` and are imputed before an :class:`~repro.matrix.expression.ExpressionMatrix`
is constructed, because the reg-cluster model is defined over complete
profiles.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import BinaryIO, List, Optional, Union

import numpy as np
from numpy.typing import ArrayLike, NDArray

from repro.matrix.expression import ExpressionMatrix

__all__ = [
    "load_expression_matrix",
    "save_expression_matrix",
    "parse_expression_text",
    "format_expression_text",
    "write_matrix_npz",
    "read_matrix_npz",
    "impute_missing",
]

_MISSING_TOKENS = {"", "na", "nan", "null", "?", "-"}


def _parse_cell(token: str) -> float:
    stripped = token.strip()
    if stripped.lower() in _MISSING_TOKENS:
        return float("nan")
    return float(stripped)


def parse_expression_text(
    text: str,
    *,
    delimiter: str = "\t",
    impute: str = "gene_mean",
) -> ExpressionMatrix:
    """Parse a tab-delimited expression table from a string.

    Parameters
    ----------
    text:
        Header row of condition names (first field is an arbitrary corner
        label and is ignored), then one row per gene.
    delimiter:
        Field separator, tab by default.
    impute:
        Strategy for missing values, see :func:`impute_missing`.

    Raises
    ------
    ValueError
        On an empty table, ragged rows, or duplicate names.
    """
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("empty expression table")
    header = lines[0].split(delimiter)
    condition_names = [h.strip() for h in header[1:]]
    if not condition_names:
        raise ValueError("expression table has no condition columns")

    gene_names: List[str] = []
    rows: List[List[float]] = []
    for lineno, line in enumerate(lines[1:], start=2):
        fields = line.split(delimiter)
        if len(fields) != len(condition_names) + 1:
            raise ValueError(
                f"line {lineno}: expected {len(condition_names) + 1} fields, "
                f"got {len(fields)}"
            )
        gene_names.append(fields[0].strip())
        rows.append([_parse_cell(tok) for tok in fields[1:]])
    if not rows:
        raise ValueError("expression table has no gene rows")

    values = impute_missing(np.asarray(rows, dtype=np.float64), strategy=impute)
    return ExpressionMatrix(values, gene_names, condition_names)


def load_expression_matrix(
    path: Union[str, Path],
    *,
    delimiter: str = "\t",
    impute: str = "gene_mean",
) -> ExpressionMatrix:
    """Load a matrix from a tab-delimited file (yeast benchmark format)."""
    with open(path, "r", encoding="utf-8") as handle:
        return parse_expression_text(
            handle.read(), delimiter=delimiter, impute=impute
        )


def format_expression_text(
    matrix: ExpressionMatrix,
    *,
    delimiter: str = "\t",
    corner_label: str = "gene",
    float_format: str = "%.6g",
) -> str:
    """Render a matrix back into the tab-delimited text format."""
    buffer = io.StringIO()
    buffer.write(delimiter.join([corner_label, *matrix.condition_names]))
    buffer.write("\n")
    for name, row in zip(matrix.gene_names, matrix.values):
        cells = [float_format % v for v in row]
        buffer.write(delimiter.join([name, *cells]))
        buffer.write("\n")
    return buffer.getvalue()


def save_expression_matrix(
    matrix: ExpressionMatrix,
    path: Union[str, Path],
    *,
    delimiter: str = "\t",
    float_format: str = "%.6g",
) -> None:
    """Write a matrix to a tab-delimited file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(
            format_expression_text(
                matrix, delimiter=delimiter, float_format=float_format
            )
        )


def write_matrix_npz(matrix: ExpressionMatrix, handle: BinaryIO) -> None:
    """Store a matrix exactly — values bit for bit, and its names — as
    ``.npz``: the service's matrix store and fleet artifact format."""
    np.savez(
        handle,
        values=matrix.values,
        gene_names=np.asarray(matrix.gene_names),
        condition_names=np.asarray(matrix.condition_names),
    )


def read_matrix_npz(source: Union[str, Path, BinaryIO]) -> ExpressionMatrix:
    """The matrix :func:`write_matrix_npz` stored (never unpickles)."""
    with np.load(source, allow_pickle=False) as data:
        matrix = ExpressionMatrix(
            data["values"],
            [str(name) for name in data["gene_names"]],
            [str(name) for name in data["condition_names"]],
        )
    return matrix


def impute_missing(
    values: ArrayLike,
    *,
    strategy: str = "gene_mean",
    fill_value: Optional[float] = None,
) -> NDArray[np.float64]:
    """Replace NaN entries so the matrix is complete.

    Strategies
    ----------
    ``"gene_mean"``
        Replace a gene's missing entries with the mean of its observed
        entries (the standard microarray pre-processing choice).  A gene
        with no observed entry at all is filled with the global mean.
    ``"drop"``
        Remove gene rows that contain any missing entry.
    ``"constant"``
        Replace with ``fill_value`` (required).
    ``"error"``
        Raise :class:`ValueError` if anything is missing.
    """
    if strategy not in ("gene_mean", "drop", "constant", "error"):
        raise ValueError(f"unknown imputation strategy {strategy!r}")
    data = np.array(values, dtype=np.float64, copy=True)
    mask = np.isnan(data)
    if not mask.any():
        return data

    if strategy == "error":
        raise ValueError(f"matrix contains {int(mask.sum())} missing values")
    if strategy == "drop":
        keep = ~mask.any(axis=1)
        return np.asarray(data[keep], dtype=np.float64)
    if strategy == "constant":
        if fill_value is None:
            raise ValueError("strategy 'constant' requires fill_value")
        data[mask] = fill_value
        return data
    if strategy == "gene_mean":
        observed = np.where(mask, 0.0, data)
        counts = (~mask).sum(axis=1)
        overall = observed.sum() / max(int((~mask).sum()), 1)
        with np.errstate(invalid="ignore"):
            gene_means = np.where(
                counts > 0, observed.sum(axis=1) / np.maximum(counts, 1), overall
            )
        fill = np.broadcast_to(gene_means[:, None], data.shape)
        data[mask] = fill[mask]
        return data
    raise AssertionError("unreachable")  # pragma: no cover
