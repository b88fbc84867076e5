"""Synthetic lexicon and topic corpus for desk-scale runs without
external word vectors.

The construction mirrors the regime the weighting scheme targets:
stopwords are frequent, large-norm, and class-neutral; topic words are
rare and carry a class-specific direction.  Unweighted averaging dilutes
the class signal with stopword noise, which frequency-aware weighting
recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evalkit import LabeledDataset
from .lexicon import FrequencyTable, VectorTable


N_CLASSES = 2
STOP_SCALE = 2.0  # stopword norm over that of the other words
TOPIC_STRENGTH = 0.8  # length of a topic word's class component
STOP_FRAC = 0.55  # chance that a word of a sentence is a stopword,
NEUTRAL_FRAC = 0.10  # or else a neutral word; the rest are topic words
TOPIC_FLIP = 0.08  # chance that a topic word is of a random class
LABEL_NOISE = 0.04  # chance that a label is redrawn at random


@dataclass(frozen=True)
class SyntheticLexicon:
    vectors: VectorTable
    frequencies: FrequencyTable
    stopwords: list[str]
    neutral: list[str]
    topics: list[list[str]]  # one word list per class


def make_lexicon(seed: int = 7, dim: int = 50, n_stop: int = 40,
                 n_neutral: int = 200, n_topic: int = 150) -> SyntheticLexicon:
    """Vectors and corpus-like frequencies for a synthetic vocabulary."""
    rng = np.random.default_rng(seed)
    directions = rng.standard_normal((N_CLASSES, dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)

    entries: dict[str, np.ndarray] = {}
    counts: dict[str, int] = {}
    stopwords = [f"stop{i:02d}" for i in range(n_stop)]
    for w in stopwords:
        entries[w] = rng.standard_normal(dim) * STOP_SCALE / np.sqrt(dim)
        counts[w] = 50_000
    neutral = [f"word{i:03d}" for i in range(n_neutral)]
    for w in neutral:
        entries[w] = rng.standard_normal(dim) / np.sqrt(dim)
        counts[w] = 100
    topics = []
    for c in range(N_CLASSES):
        words = [f"c{c}t{i:03d}" for i in range(n_topic)]
        for w in words:
            entries[w] = (rng.standard_normal(dim) / np.sqrt(dim)
                          + TOPIC_STRENGTH * directions[c])
            counts[w] = 20
        topics.append(words)
    return SyntheticLexicon(
        vectors=VectorTable.from_mapping(entries),
        frequencies=FrequencyTable.from_counts(counts),
        stopwords=stopwords, neutral=neutral, topics=topics)


def make_topic_corpus(lex: SyntheticLexicon, seed: int = 11,
                      train: int = 2000, dev: int = 250, test: int = 500,
                      min_len: int = 6, max_len: int = 14) -> LabeledDataset:
    """Labeled sentences whose class shows only through rare topic words."""
    rng = np.random.default_rng(seed)
    n_classes = len(lex.topics)

    def sentence(label: int) -> str:
        length = int(rng.integers(min_len, max_len + 1))
        words = []
        for _ in range(length):
            roll = rng.random()
            if roll < STOP_FRAC:
                pool = lex.stopwords
            elif roll < STOP_FRAC + NEUTRAL_FRAC:
                pool = lex.neutral
            else:
                cls = label
                if rng.random() < TOPIC_FLIP:
                    cls = int(rng.integers(0, n_classes))
                pool = lex.topics[cls]
            words.append(pool[int(rng.integers(0, len(pool)))])
        return " ".join(words)

    def split(count: int):
        rows = []
        for _ in range(count):
            label = int(rng.integers(0, n_classes))
            text = sentence(label)
            if rng.random() < LABEL_NOISE:
                label = int(rng.integers(0, n_classes))
            rows.append((text, label))
        return rows

    return LabeledDataset(name="synthetic-topics", train=split(train),
                          dev=split(dev), test=split(test),
                          label_count=n_classes)
