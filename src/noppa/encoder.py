"""The raw sentence embedding: positional vectors, pairwise attention,
log-kernel contextual embedding, and smooth-frequency-weighted averaging.

All heavy loops accumulate in float64; word-vector storage stays float32.
``contextual_embeddings`` is the one stage that turns a sentence and its
weight rows into sentence vectors.  It sums the log-kernel over unordered
word pairs (``_pooled_context``) instead of forming each word's contextual
row, and pools the word vectors with ``pool``.  ``encode`` embeds one
sentence and also returns its attention matrix (``embed``, ``fit-noise``,
``attention``, ``contrib``); ``encode_batch`` embeds many, one weight row
per a (``eval``, ``bench``).  Both weight words with ``token_weights``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import EmptySentenceError, InfeasibleConfigError, NoppaError
from .lexicon import FrequencyTable, TokenSequence, VectorTable


@dataclass(frozen=True)
class EncoderConfig:
    """Hyper-parameters of the embedding pipeline.

    ``a`` controls the smooth frequency weight, ``dim`` must match the
    vector table.
    """

    a: float
    dim: int
    use_positions: bool = True

    def __post_init__(self):
        check_a_k([self.a])
        if self.dim < 1:
            raise NoppaError(f"dim must be >= 1, got {self.dim}")


# The documented ranges of a and k; the CLI refuses values outside them
# unless --unsafe-ranges is given.
A_RANGE = (0.01, 0.15)
K_RANGE = (0, 24)

# The embedders ``eval --variant`` compares (``evalkit.embed_split``).
VARIANTS = ("noppa", "ce_avg", "ce_avg_nr", "ce_sfw", "glove_avg", "freq_weighted_avg")


def check_a_k(a_values=(), k_values=(), enforce_ranges: bool = False) -> None:
    """The rules for a and k, which every command applies before it opens a
    file: each value inside A_RANGE and K_RANGE if ``enforce_ranges``
    (InfeasibleConfigError), then each a finite and positive, then each
    k >= 0 (NoppaError)."""
    if enforce_ranges:
        for a in a_values:
            if not (A_RANGE[0] <= a <= A_RANGE[1]):
                raise InfeasibleConfigError(
                    f"a={a:g} outside documented range [{A_RANGE[0]}, {A_RANGE[1]}] "
                    f"(use --unsafe-ranges to override)")
        for k in k_values:
            if not (K_RANGE[0] <= k <= K_RANGE[1]):
                raise InfeasibleConfigError(
                    f"k={k} outside documented range [{K_RANGE[0]}, {K_RANGE[1]}] "
                    f"(use --unsafe-ranges to override)")
    for a in a_values:
        if not (a > 0 and math.isfinite(a)):
            raise NoppaError(f"a must be finite and positive, got {a}")
    if min(k_values, default=0) < 0:
        raise NoppaError(f"k must be >= 0, got {min(k_values)}")


def pos_embed(i: int, dim: int) -> np.ndarray:
    """Sinusoidal position embedding for zero-based position ``i``.

    Even components are sin(i / 10000^(e/dim)) and the following odd
    component is the matching cosine; an odd ``dim`` leaves the final
    unpaired component on the sine branch.
    """
    if i < 0:
        raise NoppaError(f"position must be >= 0, got {i}")
    if dim < 1:
        raise NoppaError(f"dim must be >= 1, got {dim}")
    return _position_matrix(i + 1, dim)[i].copy()


@lru_cache(maxsize=128)
def _position_matrix(n: int, dim: int) -> np.ndarray:
    """Rows 0..n-1 of the position embedding, cached read-only."""
    even = np.arange(0, dim, 2, dtype=np.float64)
    inv_freq = np.power(10000.0, -even / dim)  # (ceil(dim/2),)
    angles = np.arange(n, dtype=np.float64)[:, None] * inv_freq[None, :]
    out = np.empty((n, dim), dtype=np.float64)
    out[:, 0::2] = np.sin(angles)
    out[:, 1::2] = np.cos(angles[:, : dim // 2])
    out.setflags(write=False)
    return out


def attention(pv: np.ndarray) -> np.ndarray:
    """Row-wise softmax of the scaled pairwise dot products of ``pv``.

    Returns an n x n matrix with strictly positive entries whose rows sum
    to 1.  The row maximum is subtracted before exponentiation.
    """
    pv = np.asarray(pv, dtype=np.float64)
    if pv.ndim != 2 or pv.shape[0] == 0:
        raise NoppaError("positional vectors must be a non-empty 2-d array")
    logits = pv @ pv.T
    logits /= np.sqrt(pv.shape[1])
    logits -= logits.max(axis=1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=1, keepdims=True)
    return logits


def log_kernel(x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Component-wise log2(1 + (y - x)^2), ``x`` broadcast against ``y``;
    non-negative and symmetric.  Written into ``out`` when it is given."""
    try:
        out = np.asarray(np.subtract(y, x, out=out, dtype=np.float64))
    except ValueError as exc:
        raise NoppaError(f"shape mismatch: {np.shape(x)} vs {np.shape(y)}") from exc
    np.square(out, out=out)
    out += 1.0
    return np.log2(out, out=out)


def sfw(pr, a):
    """Smooth frequency weight a / (pr + a/2); decreasing in pr, range (0, 2].

    ``a`` may be an array that broadcasts against ``pr``.
    """
    check_a_k(np.ravel(a))
    return a / (np.asarray(pr, dtype=np.float64) + a / 2.0)


# Target element count of the per-block kernel buffer (~1 MB of float64);
# a cache-resident working set keeps wall time tracking the pair count
# instead of DRAM bandwidth.
_BLOCK_ELEMS = 131_072


def _pooled_context(pv: np.ndarray, att: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Contextual block of the sentence vector, one row per weight row:
    (1/n) sum_i w_i sum_j A_ij K(pv_i, pv_j).

    K is symmetric with a zero diagonal, so this is the sum over unordered
    pairs {i, j} of (w_i A_ij + w_j A_ji) / n * K_ij, and each pair's
    log2 is evaluated once.  Slab k holds the n pairs (i, (i + k) mod n);
    slabs k = 1..n//2 cover every pair once, except that for even n the
    last slab lists each of its pairs twice and so counts half.
    """
    n, d = pv.shape
    r = weights.shape[0]
    m = n // 2
    ctx = np.zeros((r, d))
    if m == 0:
        return ctx
    # Both pair layouts are strided views of an array with its first m
    # rows (or columns) appended, so they need no index arrays.  Slab k is
    # rows k..k+n-1 of ``ext``.
    ext = np.concatenate([pv, pv[:m]])
    step, elem = ext.strides
    slabs = np.ndarray((m, n, d), buffer=ext, offset=step, strides=(step, step, elem))
    # coef[:, k-1, i] = sym[:, i, (i + k) mod n], copied so that each row is
    # contiguous and goes through the same unit-stride product below.
    scaled = weights[:, :, None] * att
    sym = scaled + scaled.transpose(0, 2, 1)
    wrapped = np.concatenate([sym, sym[:, :, :m]], axis=2)
    outer, row, _ = wrapped.strides
    coef = np.ndarray((r, m, n), buffer=wrapped, offset=elem,
                      strides=(outer, elem, row + elem)).copy().reshape(r, m * n)
    if n % 2 == 0:
        coef[:, -n:] *= 0.5
    block = max(1, _BLOCK_ELEMS // (n * d))
    buf = np.empty((min(block, m), n, d))
    for start in range(0, m, block):
        stop = min(start + block, m)
        b = log_kernel(pv, slabs[start:stop], out=buf[: stop - start])
        # A stack of vector-matrix products, one per contiguous coefficient
        # row: a row's bits do not depend on how many rows come with it.
        ctx += np.matmul(coef[:, None, start * n: stop * n], b.reshape(-1, d))[:, 0]
    ctx /= n
    return ctx


def word_rows(tokens: TokenSequence, vectors: VectorTable) -> np.ndarray:
    """The rows that ``tokenize`` looked up, gathered as float64."""
    if len(tokens) == 0:
        raise EmptySentenceError("empty after filtering")
    return vectors.matrix[tokens.rows].astype(np.float64)


def pool(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Length-normalized weighted sum of ``rows``, one result per weight row."""
    return (weights[..., :, None] * rows).sum(axis=-2) / rows.shape[0]


def contextual_embeddings(
    tokens: TokenSequence,
    vectors: VectorTable,
    config: EncoderConfig,
    weights: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Sentence vectors of ``tokens``, one per row of ``weights``.

    Each is the length-normalized weighted sum over words i of
    concat(ctx_i, raw_i): ctx_i = sum_j A_ij K(pv_i, pv_j), and raw_i is
    the word vector without the positional offset.  ``weights`` is (n,)
    or (r, n); the vectors are (2*dim,) or (r, 2*dim).
    Returns (vectors, n x n attention matrix).
    """
    raw = word_rows(tokens, vectors)
    if vectors.dim != config.dim:
        raise NoppaError(f"dim mismatch: vectors dim {vectors.dim} vs config dim {config.dim}")
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape[-1:] != (len(tokens),) or weights.ndim > 2:
        raise NoppaError(f"weights of shape {weights.shape} for {len(tokens)} tokens")
    if config.use_positions:
        pv = raw + _position_matrix(len(tokens), config.dim)
    else:
        pv = raw
    att = attention(pv)
    rows = weights.reshape(-1, len(tokens))
    out = np.concatenate([_pooled_context(pv, att, rows), pool(rows, raw)], axis=1)
    return out.reshape(*weights.shape[:-1], -1), att


def token_weights(words: list[str], frequencies: FrequencyTable, a) -> np.ndarray:
    """Smooth frequency weights of ``words``: (n,) for a scalar ``a``, one
    row per a for an (r, 1) column.  A word with no frequency entry has
    Pr = 0 and therefore the maximal weight 2."""
    probs = np.array([frequencies.get(w) for w in words], dtype=np.float64)
    return sfw(probs, a)


def encode(
    tokens: TokenSequence,
    vectors: VectorTable,
    frequencies: FrequencyTable,
    config: EncoderConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Embed one tokenized sentence: (2*dim vector, n x n attention matrix).

    The vector is the length-normalized, smooth-frequency-weighted sum of
    the per-word contextual vectors.
    """
    return contextual_embeddings(tokens, vectors, config,
                                 token_weights(tokens.tokens, frequencies, config.a))


def encode_batch(token_lists: list[TokenSequence], vectors: VectorTable,
                 frequencies: FrequencyTable | None, config: EncoderConfig,
                 a_values: list[float] | None = None,
                 raw: bool = False) -> dict[float, np.ndarray]:
    """a -> matrix whose row i is ``encode(token_lists[i], ...)[0]`` at a.

    One contextual pass per sentence serves every a in ``a_values``
    (default ``[config.a]``).  ``frequencies=None`` weights every word 1;
    ``raw=True`` pools the stored word vectors instead of the contextual rows.
    """
    a_values = [config.a] if a_values is None else list(a_values)
    a_column = np.array(a_values, dtype=np.float64)[:, None]
    width = vectors.dim if raw else 2 * config.dim
    out = np.empty((len(a_values), len(token_lists), width))
    for i, tokens in enumerate(token_lists):
        if frequencies is None:
            weights = np.ones(len(tokens))  # one row, the same for every a
        else:
            weights = token_weights(tokens.tokens, frequencies, a_column)
        if raw:
            out[:, i] = pool(weights, word_rows(tokens, vectors))
        else:
            out[:, i] = contextual_embeddings(tokens, vectors, config, weights)[0]
    return dict(zip(a_values, out))
