"""The raw sentence embedding: positional vectors, pairwise attention,
log-kernel contextual embedding, and smooth-frequency-weighted averaging.

All heavy loops accumulate in float64; word-vector storage stays float32.
``encode`` embeds one sentence and also returns its diagnostics;
``evalkit.encode_batch`` embeds many.  Both pool with ``pool``.
"""

from __future__ import annotations

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
        if not self.a > 0:
            raise NoppaError(f"a must be positive, got {self.a}")
        if self.dim < 1:
            raise NoppaError(f"dim must be >= 1, got {self.dim}")


# The documented ranges of a and k; the CLI refuses values outside them
# unless --unsafe-ranges is given.
A_RANGE = (0.01, 0.15)
K_RANGE = (0, 24)

# The embedders ``eval --variant`` compares (``evalkit.embed_split``).
VARIANTS = ("noppa", "ce_avg", "ce_avg_nr", "ce_sfw", "glove_avg", "freq_weighted_avg")


def check_ranges(a_grid, k_grid):
    """Reject a and k values outside A_RANGE and K_RANGE."""
    for a in a_grid:
        if not (A_RANGE[0] <= a <= A_RANGE[1]):
            raise InfeasibleConfigError(
                f"a={a:g} outside documented range [{A_RANGE[0]}, {A_RANGE[1]}] "
                f"(use --unsafe-ranges to override)")
    for k in k_grid:
        if not (K_RANGE[0] <= k <= K_RANGE[1]):
            raise InfeasibleConfigError(
                f"k={k} outside documented range [{K_RANGE[0]}, {K_RANGE[1]}] "
                f"(use --unsafe-ranges to override)")


@dataclass(frozen=True)
class SentenceEmbedding:
    """A 2*dim sentence vector plus per-word diagnostics.

    ``token_weights`` holds the n smooth-frequency weights; ``attention``
    is the n x n row-stochastic matrix, retained only when diagnostics
    were requested.
    """

    vector: np.ndarray  # (2*dim,) float64
    token_weights: np.ndarray  # (n,) float64
    attention: np.ndarray | None = None


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


def log_kernel(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Component-wise log2(1 + (y - x)^2); non-negative and symmetric."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise NoppaError(f"shape mismatch: {x.shape} vs {y.shape}")
    return np.log2(1.0 + np.square(y - x))


def sfw(pr, a: float):
    """Smooth frequency weight a / (pr + a/2); decreasing in pr, range (0, 2]."""
    if not a > 0:
        raise NoppaError(f"a must be positive, got {a}")
    return a / (np.asarray(pr, dtype=np.float64) + a / 2.0)


# Target element count of the per-block kernel buffer (~1 MB of float64);
# a cache-resident working set keeps wall time tracking the n^2*d
# operation count instead of DRAM bandwidth.
_BLOCK_ELEMS = 131_072
_BLOCK_ROWS_MAX = 8


def _contextual_part(pv: np.ndarray, att: np.ndarray) -> np.ndarray:
    """Attention-weighted log-kernel context, row i = sum_j A_ij K(pv_i, pv_j)."""
    n, d = pv.shape
    block = min(_BLOCK_ROWS_MAX, max(1, _BLOCK_ELEMS // (n * d)))
    ctx = np.empty((n, d), dtype=np.float64)
    buf = np.empty((min(block, n), n, d), dtype=np.float64)
    for start in range(0, n, block):
        stop = min(start + block, n)
        b = buf[: stop - start]
        np.subtract(pv[None, :, :], pv[start:stop, None, :], out=b)
        np.square(b, out=b)
        b += 1.0
        np.log2(b, out=b)
        ctx[start:stop] = np.matmul(att[start:stop, None, :], b)[:, 0, :]
    return ctx


def contextual_embeddings(
    tokens: TokenSequence,
    vectors: VectorTable,
    config: EncoderConfig,
    want_attention: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-word 2*dim vectors: contextual block first, raw word vector second.

    The raw block is the word vector without the positional offset.
    Returns (n x 2*dim matrix, attention matrix or None).
    """
    if len(tokens) == 0:
        raise EmptySentenceError("empty after filtering")
    if vectors.dim != config.dim:
        raise NoppaError(f"dim mismatch: vectors dim {vectors.dim} vs config dim {config.dim}")
    raw = np.empty((len(tokens), config.dim), dtype=np.float64)
    for i, token in enumerate(tokens.tokens):
        vec = vectors.get(token)
        if vec is None:
            raise NoppaError(f"token without vector reached the encoder: {token!r}")
        raw[i] = vec
    if config.use_positions:
        pv = raw + _position_matrix(len(tokens), config.dim)
    else:
        pv = raw
    att = attention(pv)
    ctx = _contextual_part(pv, att)
    per_word = np.concatenate([ctx, raw], axis=1)
    return per_word, (att if want_attention else None)


def pool(weights: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Length-normalized weighted sum of the per-word rows: the sentence vector."""
    return (weights[:, None] * rows).sum(axis=0) / rows.shape[0]


def encode(
    tokens: TokenSequence,
    vectors: VectorTable,
    frequencies: FrequencyTable,
    config: EncoderConfig,
    diagnostics: bool = False,
) -> SentenceEmbedding:
    """Embed one tokenized sentence and keep its per-word diagnostics.

    The result is the length-normalized, smooth-frequency-weighted sum of
    the per-word contextual vectors.  Tokens with no frequency entry get
    Pr = 0 and therefore the maximal weight 2.
    """
    per_word, att = contextual_embeddings(tokens, vectors, config,
                                          want_attention=diagnostics)
    probs = np.array([frequencies.get(t) for t in tokens.tokens], dtype=np.float64)
    weights = sfw(probs, config.a)
    return SentenceEmbedding(vector=pool(weights, per_word),
                             token_weights=weights, attention=att)
