"""SVD noise model: fit on training embeddings, subtract the projection
onto the k right singular directions with the smallest singular values.

``fit`` streams its rows into the triangular factor R of a QR
decomposition; the SVD of R gives the rows' own singular values and right
vectors, in memory flat in the row count.  No mean-centering is applied
before the decomposition; that is a deliberate literal reading of the
fitting recipe.  The k smallest directions of one decomposition are nested:
``smallest(k)`` of a fit is bit for bit the fit with k, so ``eval`` fits once per a.

``remove`` subtracts the projection from every row in one stacked product
of one-row products, so a row's bits do not depend on how many rows come
with it: ``embed``, ``eval`` and ``bench`` give a row the same bits.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InfeasibleConfigError, NoppaError
from .lexicon import parse_count, read_lines

_HEADER_MAGIC = "NOPPA-NOISE v1"
_CHUNK_ROWS = 512  # rows per QR step of ``fit``: below the final SVD's memory at D=600


@dataclass(frozen=True)
class NoiseModel:
    """k retained noise directions (rows of ``vk``, orthonormal) in R^dim.

    Rows are ordered by descending singular value; ``singular_values``
    lists the matching k smallest singular values of the fitted matrix.
    ``undetermined`` counts the last rows whose singular value is at or below
    the fit's rank tolerance: LAPACK, not the data, picks them (0 if loaded).
    """

    vk: np.ndarray  # (k, dim) float64, read-only
    singular_values: np.ndarray  # (k,) float64, descending
    undetermined: int = 0

    @property
    def k(self) -> int:
        return self.vk.shape[0]

    @property
    def dim(self) -> int:
        return self.vk.shape[1]

    def smallest(self, k: int) -> "NoiseModel":
        """The model of the k smallest of these directions (the last k
        rows): the same bits as ``fit`` of the same matrix with k."""
        if not 0 <= k <= self.k:
            raise InfeasibleConfigError(f"k must be in 0..{self.k}, got {k}")
        return NoiseModel(vk=self.vk[self.k - k:],
                          singular_values=self.singular_values[self.k - k:],
                          undetermined=min(k, self.undetermined))


def _fix_signs(rows: np.ndarray) -> np.ndarray:
    """Scale each row so its largest-magnitude component is positive."""
    lead = np.abs(rows).argmax(axis=1)
    return rows * np.sign(rows[np.arange(rows.shape[0]), lead])[:, None]


def fit(rows: Iterable, k: int) -> NoiseModel:
    """Fit the noise model on raw sentence embeddings: any iterable of
    D-length rows of ints or floats, such as an (l x D) matrix or a
    generator.  Keeps the right singular directions of the k smallest
    singular values (l < D pads the spectrum with zeros; ties break by
    LAPACK's fixed ordering).  The rank tolerance is max(l, D) * eps * sigma_max."""
    if k < 0:
        raise NoppaError(f"k must be >= 0, got {k}")
    r, l, it = None, 0, iter(rows)
    while chunk := list(itertools.islice(it, _CHUNK_ROWS)):
        try:  # numpy numbers only: not ragged rows, text, complex or Python objects
            X = np.array(chunk).astype(np.float64, casting="same_kind", copy=False)
        except (TypeError, ValueError):
            X = np.empty(0)  # refused just below
        if X.ndim != 2 or X.size == 0 or (r is not None and X.shape[1] != r.shape[1]):
            raise NoppaError("embeddings must be rows of one non-zero length")
        if not np.isfinite(X).all():
            raise NoppaError("non-finite values in embedding matrix")
        r = np.linalg.qr(X if r is None else np.vstack([r, X]), mode="r")
        l += X.shape[0]
    if r is None:
        raise InfeasibleConfigError(f"k={k} but no sentences to fit")
    dim = r.shape[1]
    if k > min(l, dim):
        raise InfeasibleConfigError(f"k={k} exceeds min(sentences, dim) = {min(l, dim)}")
    _, svals, vt = np.linalg.svd(r, full_matrices=True)
    svals = np.concatenate([svals, np.zeros(dim - svals.size)])
    tol = max(l, dim) * np.finfo(np.float64).eps * svals[0]
    vk = _fix_signs(vt[dim - k:])
    vk.setflags(write=False)
    return NoiseModel(vk=vk, singular_values=svals[dim - k:].copy(),
                      undetermined=int(np.sum(svals[dim - k:] <= tol)))


def remove(rows: np.ndarray, model: NoiseModel) -> np.ndarray:
    """Subtract the vk-projection from each row (or from one 1-D row), one
    row at a time in a stacked product; ``rows`` itself when k = 0."""
    X = np.asarray(rows, dtype=np.float64)
    if X.shape[-1] != model.dim:
        raise NoppaError(f"dim mismatch: vectors dim {X.shape[-1]} vs model dim {model.dim}")
    if model.k == 0:
        return X
    return X - np.matmul(np.matmul(X[..., None, :], model.vk.T), model.vk)[..., 0, :]


# The benchmark's tracer binds this name; it goes when that binding does.
remove_matrix = remove


def save(model: NoiseModel, path) -> None:
    """Write the text format: header, k rows of dim reals, singular values.

    Values carry 17 significant digits, which round-trips float64 exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{_HEADER_MAGIC} k={model.k} dim={model.dim}\n")
        for row in [*model.vk, model.singular_values]:
            fh.write(" ".join(f"{v:.17g}" for v in row) + "\n")


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
    shapes, that every value is a finite real, that the singular values
    are non-negative and descending (``smallest`` selects by position) and
    that the rows are orthonormal."""
    lines = [line for _, line in read_lines(path)]
    if not lines:
        raise FormatError(f"{path}: empty noise-model file")
    header = lines[0]
    parts = header.split()
    if (len(parts) != 4 or " ".join(parts[:2]) != _HEADER_MAGIC
            or not parts[2].startswith("k=") or not parts[3].startswith("dim=")):
        raise FormatError(f"{path}: corrupted header: {header!r}")
    k, dim = parse_count(parts[2][2:]), parse_count(parts[3][4:])
    if k is None or not dim:
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
    if (singular_values < 0).any() or (np.diff(singular_values) > 0).any():
        raise FormatError(f"{path}: singular values at line {k + 2} are not "
                          f"non-negative and descending")
    vk = np.array(rows, dtype=np.float64).reshape(k, dim)
    with np.errstate(over="ignore", invalid="ignore"):  # huge rows: inf, nan
        error = np.abs(vk @ vk.T - np.eye(k)).max(initial=0.0)
    if not error <= _ORTHONORMAL_TOL:
        raise FormatError(f"{path}: noise directions are not orthonormal "
                          f"(max |V V^T - I| = {error:.3g})")
    vk.setflags(write=False)
    return NoiseModel(vk=vk, singular_values=singular_values)
