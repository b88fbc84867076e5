"""Word vectors, unigram frequencies, and tokenization.

Tables are loaded once from plain-text files and are immutable afterwards,
so they can be shared freely across worker threads.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import FormatError

logger = logging.getLogger(__name__)

# Punctuation marks split into standalone tokens before whitespace splitting.
PUNCTUATION = '.,!?;:"()'

_PUNCT_TABLE = {ord(c): f" {c} " for c in PUNCTUATION}


@dataclass(frozen=True)
class VectorTable:
    """Immutable token -> d-dimensional word vector map.

    Vectors are stored as float32 rows of a shared read-only matrix;
    lookups return views.  A missing token yields an explicit ``None``,
    never a silent zero vector.
    """

    dim: int
    matrix: np.ndarray  # (vocab_size, dim) float32, read-only
    index: dict[str, int]
    source_hash: str | None = None
    parsed_lines: int = 0

    @property
    def vocab_size(self) -> int:
        return len(self.index)

    def __contains__(self, token: str) -> bool:
        return token in self.index

    def get(self, token: str) -> np.ndarray | None:
        """Vector for ``token``, or ``None`` when absent."""
        i = self.index.get(token)
        return None if i is None else self.matrix[i]

    def tokens(self):
        return self.index.keys()

    @classmethod
    def from_mapping(cls, entries: dict[str, "np.ndarray | list[float]"]) -> "VectorTable":
        """Build a table from an in-memory mapping (tests, synthetic data)."""
        if not entries:
            raise FormatError("vector table must not be empty")
        index: dict[str, int] = {}
        rows = []
        for token, vec in entries.items():
            row = np.asarray(vec, dtype=np.float32)
            if row.ndim != 1:
                raise FormatError(f"vector for {token!r} is not 1-dimensional")
            if not np.isfinite(row).all():
                raise FormatError(f"non-finite vector for {token!r}")
            index[token] = len(rows)
            rows.append(row)
        matrix = np.stack(rows)
        dims = {r.shape[0] for r in rows}
        if len(dims) != 1:
            raise FormatError(f"inconsistent vector dimensions: {sorted(dims)}")
        matrix.setflags(write=False)
        return cls(dim=matrix.shape[1], matrix=matrix, index=index,
                   parsed_lines=len(rows))


@dataclass(frozen=True)
class FrequencyTable:
    """Unigram probabilities derived from raw corpus counts."""

    probabilities: dict[str, float]
    total_count: int

    def get(self, token: str) -> float:
        """Pr(token); absent tokens are treated as maximally rare (0.0)."""
        return self.probabilities.get(token, 0.0)

    def __contains__(self, token: str) -> bool:
        return token in self.probabilities

    @classmethod
    def from_counts(cls, counts: dict[str, int]) -> "FrequencyTable":
        if not counts:
            raise FormatError("frequency table must not be empty")
        total = 0
        for token, count in counts.items():
            if count <= 0:
                raise FormatError(f"non-positive count for {token!r}: {count}")
            total += count
        probs = {t: c / total for t, c in counts.items()}
        return cls(probabilities=probs, total_count=total)


@dataclass(frozen=True)
class TokenSequence:
    """Ordered tokens of one sentence plus the OOV tokens that were dropped.

    ``dropped`` holds (position, token) pairs indexed against the
    pre-filter token stream, in strictly increasing position order.
    """

    tokens: list[str]
    dropped: list[tuple[int, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)


def _decode(raw: bytes, path, lineno: int) -> str:
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 at line {lineno}") from None


def read_lines(path):
    """Yield (line number, line without its newline) of a UTF-8 text file;
    bytes that are not UTF-8 raise FormatError naming the file and line."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield from enumerate((line.rstrip("\n") for line in fh), start=1)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:  # text mode decodes ahead; find the line
            for lineno, raw in enumerate(fh, start=1):
                _decode(raw, path, lineno)
        raise


def load_vectors(path, expected_dim: int | None = None) -> VectorTable:
    """Load a plain-text vector file (``token f1 f2 ... fd`` per line).

    Duplicate tokens keep their first occurrence.  Every line must carry the
    same number of components; the first offending line is named in the
    error.  Raises FileNotFoundError / FormatError.
    """
    sha = hashlib.sha256()
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim: int | None = expected_dim
    parsed = 0
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            sha.update(raw)
            line = _decode(raw, path, lineno).rstrip("\n")
            if not line.strip():
                continue
            parts = line.split()
            token, values = parts[0], parts[1:]
            if dim is None:
                dim = len(values)
                if dim == 0:
                    raise FormatError(f"{path}: no vector components at line {lineno}")
            if len(values) != dim:
                raise FormatError(f"{path}: dim mismatch at line {lineno} "
                                  f"(expected {dim}, got {len(values)})")
            try:
                row = np.array(values, dtype=np.float32)
            except ValueError as exc:
                raise FormatError(f"{path}: unparseable float at line {lineno}: {exc}") from None
            if not np.isfinite(row).all():
                raise FormatError(f"{path}: non-finite vector at line {lineno}")
            parsed += 1
            if token not in index:
                index[token] = len(rows)
                rows.append(row)
    if not rows:
        raise FormatError(f"{path}: empty vector file")
    matrix = np.stack(rows)
    matrix.setflags(write=False)
    logger.info("loaded %d vectors (dim=%d, %d lines parsed) from %s",
                len(rows), dim, parsed, path)
    return VectorTable(dim=int(dim), matrix=matrix, index=index,
                       source_hash=sha.hexdigest(), parsed_lines=parsed)


def save_vectors(table: VectorTable, path) -> None:
    """Write the table in the text format ``load_vectors`` reads.

    Values are printed with 9 significant digits, which round-trips
    float32 exactly.
    """
    with open(path, "w", encoding="utf-8") as fh:
        for token, i in table.index.items():
            row = table.matrix[i]
            fh.write(token + " " + " ".join(f"{float(v):.8e}" for v in row) + "\n")


def load_frequencies(path) -> FrequencyTable:
    """Load ``token<TAB>count`` lines into a normalized FrequencyTable."""
    counts: dict[str, int] = {}
    for lineno, line in read_lines(path):
        if not line.strip():
            continue
        try:
            token, count_str = line.split("\t")
        except ValueError:
            raise FormatError(f"{path}: expected 'token<TAB>count' at line {lineno}") from None
        try:
            count = int(count_str)
        except ValueError:
            raise FormatError(f"{path}: unparseable count at line {lineno}: {count_str!r}") from None
        if count <= 0:
            raise FormatError(f"{path}: non-positive count at line {lineno}")
        if token in counts:
            raise FormatError(f"{path}: duplicate token at line {lineno}: {token!r}")
        counts[token] = count
    if not counts:
        raise FormatError(f"{path}: empty frequency file")
    logger.info("loaded %d frequencies from %s", len(counts), path)
    return FrequencyTable.from_counts(counts)


def tokenize(raw: str, vectors: VectorTable | None = None) -> TokenSequence:
    """Lowercase, isolate punctuation, split on whitespace.

    When ``vectors`` is given, tokens without a vector are excluded from
    ``tokens`` and recorded in ``dropped`` with their pre-filter position.
    """
    pieces = raw.lower().translate(_PUNCT_TABLE).split()
    if vectors is None:
        return TokenSequence(tokens=pieces)
    kept: list[str] = []
    dropped: list[tuple[int, str]] = []
    for pos, token in enumerate(pieces):
        if token in vectors:
            kept.append(token)
        else:
            dropped.append((pos, token))
    return TokenSequence(tokens=kept, dropped=dropped)
