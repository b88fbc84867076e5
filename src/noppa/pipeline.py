"""End-to-end composition: tokenize -> encode -> optional noise removal."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import denoiser
from .denoiser import NoiseModel
from .encoder import EncoderConfig, SentenceEmbedding, encode
from .errors import EmptySentenceError
from .lexicon import FrequencyTable, TokenSequence, VectorTable, tokenize


@dataclass(frozen=True)
class Pipeline:
    """Immutable bundle of everything needed to embed raw sentences."""

    vectors: VectorTable
    frequencies: FrequencyTable
    config: EncoderConfig
    noise: NoiseModel | None = None

    def embed(
        self,
        raw: str,
        diagnostics: bool = False,
        denoise: bool = True,
    ) -> tuple[TokenSequence, SentenceEmbedding]:
        """Tokenize and embed one sentence; applies the noise model if present."""
        toks = tokenize(raw, self.vectors)
        emb = encode(toks, self.vectors, self.frequencies, self.config,
                     diagnostics=diagnostics)
        if denoise and self.noise is not None:
            emb = denoiser.remove(emb, self.noise)
        return toks, emb

    def embed_lines(self, lines: list[str],
                    denoise: bool = True) -> tuple[np.ndarray, list[int]]:
        """Embed many sentences; row i is ``embed(lines[kept[i]])``'s vector.

        Returns (rows, kept): lines with no in-vocabulary token are left out
        of ``rows`` and their indices out of ``kept``.
        """
        rows = np.empty((len(lines), 2 * self.config.dim))
        kept: list[int] = []
        for i, raw in enumerate(lines):
            try:
                rows[len(kept)] = self.embed(raw, denoise=denoise)[1].vector
            except EmptySentenceError:
                continue
            kept.append(i)
        return rows[:len(kept)], kept
