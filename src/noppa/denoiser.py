"""SVD noise model: fit on training embeddings, subtract the projection
onto the k right singular directions with the smallest singular values.

The right singular vectors are obtained from the eigendecomposition of the
D x D Gram matrix X^T X (D = 2*dim), which is much cheaper than a full SVD
when the row count is large.  No mean-centering is applied before the
decomposition; that is a deliberate literal reading of the fitting recipe.

``remove_matrix`` subtracts the projection from a whole matrix in one
product (``eval``).  ``remove`` does it one row at a time, so each row has
the bits of a one-sentence removal (``embed``); a single product over all
rows changes the last bits of the result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InfeasibleConfigError, NoppaError
from .lexicon import read_lines

_HEADER_MAGIC = "NOPPA-NOISE v1"


@dataclass(frozen=True)
class NoiseModel:
    """k retained noise directions (rows of ``vk``, orthonormal) in R^dim.

    Rows are ordered by descending singular value; ``singular_values``
    lists the matching k smallest singular values of the fitted matrix.
    """

    vk: np.ndarray  # (k, dim) float64, read-only
    dim: int
    singular_values: np.ndarray  # (k,) float64, descending

    @property
    def k(self) -> int:
        return self.vk.shape[0]


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Scale each row so its largest-magnitude component is positive."""
    if rows.shape[0] == 0:
        return rows
    lead = np.abs(rows).argmax(axis=1)
    signs = np.sign(rows[np.arange(rows.shape[0]), lead])
    signs[signs == 0] = 1.0
    return rows * signs[:, None]


def fit(embeddings: np.ndarray, k: int) -> NoiseModel:
    """Fit the noise model on an (l x D) matrix of raw sentence embeddings.

    Keeps the right singular directions paired with the k smallest
    singular values.  Ties at the k-boundary break by the deterministic
    ordering of the symmetric eigensolver (arbitrary but stable).
    """
    if k < 0:
        raise NoppaError(f"k must be >= 0, got {k}")
    X = np.asarray(embeddings, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 1:
        raise NoppaError("embeddings must be a non-empty 2-d matrix")
    if not np.isfinite(X).all():
        raise NoppaError("non-finite values in embedding matrix")
    l, dim = X.shape
    if k > min(l, dim):
        raise InfeasibleConfigError(
            f"k={k} exceeds min(sentences, dim) = {min(l, dim)}")
    if k == 0:
        vk = np.zeros((0, dim), dtype=np.float64)
        vk.setflags(write=False)
        return NoiseModel(vk=vk, dim=dim, singular_values=np.zeros(0))
    gram = X.T @ X
    eigvals, eigvecs = np.linalg.eigh(gram)  # ascending
    svals = np.sqrt(np.clip(eigvals, 0.0, None))
    # k smallest, ordered descending to match an overall descending spectrum
    order = np.arange(k - 1, -1, -1)
    vk = _fix_signs(eigvecs[:, order].T.copy())
    vk.setflags(write=False)
    return NoiseModel(vk=vk, dim=dim, singular_values=svals[order].copy())


def remove_matrix(vectors: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Subtract the vk-projection from each row; identity when k = 0."""
    X = np.asarray(vectors, dtype=np.float64)
    if X.shape[-1] != model.dim:
        raise NoppaError(f"dim mismatch: vectors dim {X.shape[-1]} vs model dim {model.dim}")
    if model.k == 0:
        return X
    return X - (X @ model.vk.T) @ model.vk


def remove(rows: np.ndarray, model: NoiseModel) -> np.ndarray:
    """``remove_matrix`` of each row on its own; ``rows`` itself when k = 0."""
    if model.k == 0:
        return rows
    out = np.empty_like(rows, dtype=np.float64)
    for i, row in enumerate(rows):
        out[i] = remove_matrix(row, model)
    return out


def save(model: NoiseModel, path) -> None:
    """Write the text format: header, k rows of dim reals, singular values.

    Values carry 17 significant digits, which round-trips float64 exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_HEADER_MAGIC} k={model.k} dim={model.dim}\n")
        for row in model.vk:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")
        fh.write(" ".join(f"{v:.17g}" for v in model.singular_values) + "\n")


def _reals(path, lineno: int, fields: list[str]) -> list[float]:
    """``fields`` as floats; the first that is not a finite real raises a
    FormatError naming the file and line."""
    values = []
    for field in fields:
        try:
            value = float(field)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise FormatError(f"{path}: not a finite real at line {lineno}: {field!r}")
        values.append(value)
    return values


# Largest |V V^T - I| entry accepted from a file.  A fitted model's rows are
# orthonormal to about dim * eps, and ``save`` round-trips them exactly.
_ORTHONORMAL_TOL = 1e-9


def load(path) -> NoiseModel:
    """Read a model written by ``save``; validates the header, the row
    shapes, that every value is a finite real and that the rows are
    orthonormal."""
    lines = [line for _, line in read_lines(path)]
    if not lines:
        raise FormatError(f"{path}: empty noise-model file")
    header = lines[0]
    parts = header.split()
    if (len(parts) != 4 or " ".join(parts[:2]) != _HEADER_MAGIC
            or not parts[2].startswith("k=") or not parts[3].startswith("dim=")):
        raise FormatError(f"{path}: corrupted header: {header!r}")
    try:
        k = int(parts[2][2:])
        dim = int(parts[3][4:])
    except ValueError:
        raise FormatError(f"{path}: corrupted header: {header!r}") from None
    if k < 0 or dim < 1:
        raise FormatError(f"{path}: corrupted header: {header!r}")
    body = lines[1:]
    if len(body) != k + 1:
        raise FormatError(f"{path}: row-count mismatch: expected {k} rows "
                          f"plus singular values, found {len(body)} lines")
    rows = []
    for i in range(k):
        values = body[i].split()
        if len(values) != dim:
            raise FormatError(f"{path}: row {i} has {len(values)} values, expected {dim}")
        rows.append(_reals(path, i + 2, values))
    svals = body[k].split()
    if len(svals) != k:
        raise FormatError(f"{path}: expected {k} singular values, found {len(svals)}")
    singular_values = np.array(_reals(path, k + 2, svals))
    vk = np.array(rows, dtype=np.float64).reshape(k, dim)
    with np.errstate(over="ignore", invalid="ignore"):  # huge rows: inf, nan
        error = np.abs(vk @ vk.T - np.eye(k)).max(initial=0.0)
    if not error <= _ORTHONORMAL_TOL:
        raise FormatError(f"{path}: noise directions are not orthonormal "
                          f"(max |V V^T - I| = {error:.3g})")
    vk.setflags(write=False)
    return NoiseModel(vk=vk, dim=dim, singular_values=singular_values)
