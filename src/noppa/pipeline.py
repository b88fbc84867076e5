"""End-to-end composition: tokenize -> encode -> optional noise removal.

``embed`` embeds one sentence and also returns its attention matrix;
``embed_lines`` embeds a file for the CLI, one ``embed`` per line.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import denoiser
from .denoiser import NoiseModel
from .encoder import EncoderConfig, encode
from .errors import EmptySentenceError
from .lexicon import FrequencyTable, TokenSequence, VectorTable, tokenize


@dataclass(frozen=True)
class Pipeline:
    """Immutable bundle of everything needed to embed raw sentences."""

    vectors: VectorTable
    frequencies: FrequencyTable
    config: EncoderConfig
    noise: NoiseModel | None = None

    def embed(self, raw: str,
              denoise: bool = True) -> tuple[TokenSequence, np.ndarray, np.ndarray]:
        """Tokenize and embed one sentence: (tokens, vector, attention
        matrix).  The noise model, if present, is applied when ``denoise``."""
        toks = tokenize(raw, self.vectors)
        vector, att = encode(toks, self.vectors, self.frequencies, self.config)
        if denoise and self.noise is not None:
            vector = denoiser.remove(vector[None], self.noise)[0]
        return toks, vector, att

    def embed_lines(self, lines: list[str]) -> tuple[np.ndarray, list[int]]:
        """Embed many sentences; row i is ``embed(lines[kept[i]])``'s vector.

        Returns (rows, kept): lines with no in-vocabulary token are left out
        of ``rows`` and their indices out of ``kept``.
        """
        rows = np.empty((len(lines), 2 * self.config.dim))
        kept: list[int] = []
        for i, raw in enumerate(lines):
            try:
                rows[len(kept)] = self.embed(raw)[1]
            except EmptySentenceError:
                continue
            kept.append(i)
        return rows[:len(kept)], kept
