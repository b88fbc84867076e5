"""End-to-end composition: tokenize -> encode -> optional noise removal.

``embed`` embeds one sentence (``contrib``); ``embed_lines`` yields the
vector of each line of a file, one ``embed`` each (``embed``, ``fit-noise``).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
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

    def embed(self, raw: str) -> tuple[TokenSequence, np.ndarray]:
        """Tokenize and embed one sentence: (tokens, vector), with the noise
        model's directions removed if there is one."""
        toks = tokenize(raw, self.vectors)
        vector = encode(toks, self.vectors, self.frequencies, self.config)
        if self.noise is not None:
            vector = denoiser.remove(vector, self.noise)
        return toks, vector

    def embed_lines(self, lines: Iterable[str]) -> Iterator[np.ndarray | None]:
        """Yield ``embed(line)``'s vector for each line in order, or None for
        a line with no in-vocabulary token."""
        for raw in lines:
            try:
                yield self.embed(raw)[1]
            except EmptySentenceError:
                yield None
