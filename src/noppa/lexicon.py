"""Word vectors, unigram frequencies, and tokenization.

Tables are read from plain-text files and are immutable afterwards.  The
vector table, the one large input, is parsed once per distinct file: the
parsed matrix and tokens are kept in a content-addressed cache entry under
``cache_root()`` and memory-mapped by every later load of the same bytes.
Finding that entry takes the file's sha256, unless a stamp vouches for the
file: a load that hashed a file that had not changed for a few seconds
records its device and inode, size, mtime, ctime and sha256, and a later
load whose ``os.stat`` of the file matches all of them maps the entry
without opening the file.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import logging
import os
import stat
import time
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

    ``index`` maps each token, in row order, to its row of a shared
    read-only float32 ``matrix``; ``tokenize`` is the one place that looks
    a word up in it.
    """

    matrix: np.ndarray  # (vocab_size, dim) float32, read-only
    index: dict[str, int]
    source_hash: str | None = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def vocab_size(self) -> int:
        return len(self.index)

    @classmethod
    def from_mapping(cls, entries: dict[str, "np.ndarray | list[float]"]) -> "VectorTable":
        """Build a table from an in-memory mapping (tests, synthetic data);
        a vector with no components is refused, as in a vector file."""
        if not entries:
            raise FormatError("vector table must not be empty")
        index: dict[str, int] = {}
        rows = []
        for token, vec in entries.items():
            row = np.asarray(vec, dtype=np.float32)
            if row.ndim != 1:
                raise FormatError(f"vector for {token!r} is not 1-dimensional")
            if row.shape[0] == 0:
                raise FormatError(f"no vector components for {token!r}")
            if not np.isfinite(row).all():
                raise FormatError(f"non-finite vector for {token!r}")
            index[token] = len(rows)
            rows.append(row)
        dims = {r.shape[0] for r in rows}
        if len(dims) != 1:
            raise FormatError(f"inconsistent vector dimensions: {sorted(dims)}")
        matrix = np.stack(rows)
        matrix.setflags(write=False)
        return cls(matrix=matrix, index=index)


@dataclass(frozen=True)
class FrequencyTable:
    """Unigram probabilities derived from raw corpus counts."""

    probabilities: dict[str, float]
    total_count: int

    def get(self, token: str) -> float:
        """Pr(token); absent tokens are treated as maximally rare (0.0)."""
        return self.probabilities.get(token, 0.0)

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

    ``rows`` holds the vector-table row of each token, in order.
    ``dropped`` holds (position, token) pairs indexed against the
    pre-filter token stream, in strictly increasing position order.
    """

    tokens: list[str]
    rows: list[int]
    dropped: list[tuple[int, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.tokens)


def _decode(raw: bytes, path, lineno: int) -> str:
    try:  # "utf-8-sig" drops a byte-order mark that starts line 1
        return raw.decode("utf-8-sig" if lineno == 1 else "utf-8")
    except UnicodeDecodeError:
        raise FormatError(f"{path}: not UTF-8 at line {lineno}") from None


def read_lines(path):
    """Yield (line number, line without its newline) of a UTF-8 text file
    with no leading byte-order mark; bytes that are not UTF-8 raise
    FormatError naming the file and line."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            yield from enumerate((line.rstrip("\n") for line in fh), start=1)
    except UnicodeDecodeError:
        with open(path, "rb") as fh:  # text mode decodes ahead; find the line
            for lineno, raw in enumerate(fh, start=1):
                _decode(raw, path, lineno)
        raise


def load_vectors(path) -> VectorTable:
    """Load a plain-text vector file (``token f1 f2 ... fd`` per line).

    Duplicate tokens keep their first occurrence.  Every line must carry the
    same number of components; the first offending line is named in the
    error.  A word2vec ``count dim`` first line is read as a header (see
    ``_parse_vectors``).  Raises FileNotFoundError / FormatError.

    The parsed table is kept in a cache entry keyed by the file's sha256
    (``cache_root()``); a later load of the same bytes maps that entry in
    place of parsing the text, with the same result bit for bit.  The
    sha256 comes from the file's stamp when ``_stamped_digest`` trusts it,
    else from hashing the file.  A file that is not regular, such as a pipe,
    may give up its bytes only once: it is parsed on every load, with no
    lookup, and still leaves its entry for a later load of the same bytes.
    """
    start = time.perf_counter()
    st = os.stat(path)
    if stat.S_ISREG(st.st_mode):
        digest = _stamped_digest(st)
        if digest is not None and os.path.isdir(_entry_path(digest)):
            how = "stamp"
        else:
            digest, how = _hash_file(path), "hashed"
        entry = _entry_path(digest)
        if os.path.isdir(entry):
            table = _read_entry(entry, digest)
            logger.info("vector cache hit: %s (%.3f s, %s)", entry,
                        time.perf_counter() - start, how)
            return table
    table = _parse_vectors(path)
    # The bytes parsed may differ from the bytes hashed above if the file
    # changed in between, so the entry is keyed by the parse's own hash.
    entry = _entry_path(table.source_hash)
    try:
        _write_entry(entry, table)
        outcome = "miss, wrote"
    except OSError as exc:
        outcome = f"miss, skipped writing ({exc})"
    logger.info("vector cache %s %s (%.3f s)", outcome, entry,
                time.perf_counter() - start)
    return table


# A stamp is written only for a file whose mtime and ctime are older than
# the start of its hash by this margin.  File times are coarse: a file
# changed just before or while it was hashed could change again with the
# same size and times, and a stamp would then vouch for the wrong bytes
# (git's "racily clean" entries).
STAMP_MARGIN_NS = 3_000_000_000


def _stamp_record(st: os.stat_result, digest) -> dict:
    return {"size": st.st_size, "mtime_ns": st.st_mtime_ns,
            "ctime_ns": st.st_ctime_ns, "sha256": digest}


def _stamp_path(st: os.stat_result) -> str:
    return os.path.join(cache_root(), "stamps", f"{st.st_dev}-{st.st_ino}.json")


def _stamped_digest(st: os.stat_result) -> str | None:
    """The sha256 that the stamp of a file's device and inode records, if
    its size, mtime and ctime equal ``st``, the file's ``os.stat``; else
    None.  A stamp is only a hint: one that is missing, unreadable or
    malformed is None, never an error."""
    try:
        with open(_stamp_path(st), "rb") as fh:
            stamp = json.load(fh)
    except (OSError, ValueError, RecursionError):  # bad UTF-8 or JSON
        return None
    digest = stamp.get("sha256") if isinstance(stamp, dict) else None
    if isinstance(digest, str) and stamp == _stamp_record(st, digest):
        return digest
    return None


def _hash_file(path) -> str:
    """The sha256 of the file at ``path``.  Leaves a stamp for it when it is
    a regular file whose size and times did not move while it was hashed
    and whose mtime and ctime precede the hash by ``STAMP_MARGIN_NS``."""
    import hashlib

    started = time.time_ns()
    with open(path, "rb") as fh:
        before = os.fstat(fh.fileno())
        digest = hashlib.file_digest(fh, "sha256").hexdigest()
        after = os.fstat(fh.fileno())
    record = _stamp_record(before, digest)
    if (stat.S_ISREG(before.st_mode) and record == _stamp_record(after, digest)
            and max(before.st_mtime_ns, before.st_ctime_ns)
            < started - STAMP_MARGIN_NS):
        _write_stamp(_stamp_path(before), record)
    return digest


def _write_stamp(target: str, record: dict) -> None:
    """Publish a stamp atomically (a temporary file renamed into place).  A
    stamp that cannot be written is skipped: it only saves a later hash."""
    import tempfile

    root = os.path.dirname(target)
    try:
        os.makedirs(root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=root)
    except OSError:
        return
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        os.replace(tmp, target)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(tmp)


def _vector_lines(fh, sha, path):
    """Yield (line number, whitespace-split fields) of each non-blank line,
    feeding every byte of the file, a byte-order mark too, to ``sha``."""
    for lineno, raw in enumerate(fh, start=1):
        sha.update(raw)
        parts = _decode(raw, path, lineno).split()
        if parts:
            yield lineno, parts


def parse_count(text: str) -> int | None:
    """``text`` as a non-negative integer, else None: 1 to 18 ASCII digits,
    surrounding whitespace allowed.  Every integer of an input file is read
    with it; ``int`` also reads signs, ``1_000`` and other scripts' digits."""
    text = text.strip()
    return int(text) if text.isascii() and text.isdigit() and len(text) <= 18 else None


def _is_header(head) -> bool:
    """Whether the first of the first two non-blank lines is a word2vec
    ``count dim`` header: two integers, dim > 1, and the next line has dim
    components.  ``count 1`` stays a one-component vector line."""
    if len(head) < 2 or len(head[0][1]) != 2:
        return False
    count, dim = map(parse_count, head[0][1])
    return (count is not None and dim is not None and dim > 1
            and len(head[1][1]) - 1 == dim)


def _parse_vectors(path) -> VectorTable:
    """The text parser behind ``load_vectors``; a header's count must equal
    the number of vector lines after it."""
    import hashlib

    sha = hashlib.sha256()
    index: dict[str, int] = {}
    rows: list[np.ndarray] = []
    dim: int | None = None
    parsed = 0
    # A component beyond float32 range casts to inf, which the isfinite check
    # below reports as one error line; numpy's overflow warning would add two.
    with open(path, "rb") as fh, np.errstate(over="ignore"):
        lines = _vector_lines(fh, sha, path)
        head = list(itertools.islice(lines, 2))
        header = head.pop(0) if _is_header(head) else None
        for lineno, parts in itertools.chain(head, lines):
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
    if header is not None and parse_count(header[1][0]) != parsed:
        raise FormatError(f"{path}: word2vec header at line {header[0]} gives "
                          f"{header[1][0]} vectors, the file has {parsed}")
    if not rows:
        raise FormatError(f"{path}: empty vector file")
    matrix = np.stack(rows)
    matrix.setflags(write=False)
    logger.info("loaded %d vectors (dim=%d, %d lines parsed) from %s",
                len(rows), dim, parsed, path)
    return VectorTable(matrix=matrix, index=index, source_hash=sha.hexdigest())


# Version of a cache entry's layout and of the parser behind it; a change to
# either changes it, so an entry written by older code is never read.
CACHE_VERSION = 3
_MATRIX, _TOKENS = "matrix.npy", "tokens.txt"


def cache_root() -> str:
    """``$XDG_CACHE_HOME/noppa``, or ``~/.cache/noppa`` when XDG_CACHE_HOME
    is unset or not an absolute path."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(base, "noppa")


def _entry_path(digest: str) -> str:
    return os.path.join(cache_root(), f"vectors-v{CACHE_VERSION}-{digest}")


def _write_entry(entry: str, table: VectorTable) -> None:
    """Publish ``table`` at ``entry`` atomically: write a temporary directory
    beside it and rename it into place.  An entry a concurrent writer
    published first is kept."""
    import shutil
    import tempfile

    root = os.path.dirname(entry)
    os.makedirs(root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=".tmp-", dir=root)
    try:
        np.save(os.path.join(tmp, _MATRIX), table.matrix)
        with open(os.path.join(tmp, _TOKENS), "wb") as fh:
            fh.write("\n".join(table.index).encode("utf-8"))
        try:
            os.rename(tmp, entry)
        except OSError:
            if not os.path.isdir(entry):
                raise
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _read_entry(entry: str, digest: str) -> VectorTable:
    """Map a cache entry.  Any part that is missing, unreadable or disagrees
    with the others raises a one-line FormatError naming the entry."""
    def corrupted(reason):
        return FormatError(f"corrupted vector cache entry {entry} ({reason}); "
                           f"remove it to rebuild")

    try:
        with open(os.path.join(entry, _TOKENS), "rb") as fh:
            tokens = fh.read().decode("utf-8").split("\n")
        matrix = np.asarray(np.load(os.path.join(entry, _MATRIX), mmap_mode="r"))
    except (OSError, EOFError, ValueError) as exc:  # bad UTF-8 or .npy
        raise corrupted(" ".join(str(exc).split())) from None
    index = dict(zip(tokens, range(len(tokens))))
    if not (matrix.dtype == np.float32 and matrix.flags.c_contiguous
            and matrix.ndim == 2 and len(index) == len(tokens) == matrix.shape[0]
            and matrix.shape[1] >= 1):
        raise corrupted(f"matrix {matrix.dtype} {matrix.shape}, "
                        f"{len(tokens)} tokens, {len(index)} distinct")
    return VectorTable(matrix=matrix, index=index, source_hash=digest)


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
        if not token:
            raise FormatError(f"{path}: empty token at line {lineno}")
        if token.split() != [token]:
            raise FormatError(f"{path}: whitespace in token at line {lineno}: {token!r}")
        count = parse_count(count_str)
        if count is None:
            raise FormatError(f"{path}: unparseable count at line {lineno}: {count_str!r}")
        if count == 0:
            raise FormatError(f"{path}: non-positive count at line {lineno}")
        if token in counts:
            raise FormatError(f"{path}: duplicate token at line {lineno}: {token!r}")
        counts[token] = count
    if not counts:
        raise FormatError(f"{path}: empty frequency file")
    logger.info("loaded %d frequencies from %s", len(counts), path)
    return FrequencyTable.from_counts(counts)


def tokenize(raw: str, vectors: VectorTable) -> TokenSequence:
    """Lowercase, isolate punctuation, split on whitespace, and look each
    piece up once in ``vectors.index``: a piece with a vector is kept in
    ``tokens`` with its row in ``rows``; one without is recorded in
    ``dropped`` with its pre-filter position.
    """
    kept, rows, dropped = [], [], []
    for pos, token in enumerate(raw.lower().translate(_PUNCT_TABLE).split()):
        row = vectors.index.get(token)
        if row is None:
            dropped.append((pos, token))
        else:
            kept.append(token)
            rows.append(row)
    return TokenSequence(tokens=kept, rows=rows, dropped=dropped)
