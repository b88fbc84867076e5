import numpy as np
import pytest

from noppa import EncoderConfig, FrequencyTable, TokenSequence, VectorTable


def random_table(rng, vocab_size=30, dim=8, scale=1.0):
    entries = {f"w{i:03d}": rng.standard_normal(dim).astype(np.float32) * scale
               for i in range(vocab_size)}
    return VectorTable.from_mapping(entries)


def random_frequencies(rng, table):
    counts = {t: int(rng.integers(1, 5000)) for t in table.index}
    return FrequencyTable.from_counts(counts)


def random_sentence(rng, table, n):
    vocab = list(table.index)
    rows = rng.integers(0, len(vocab), n).tolist()
    return TokenSequence(tokens=[vocab[i] for i in rows], rows=rows)


@pytest.fixture
def tiny_world():
    rng = np.random.default_rng(42)
    table = random_table(rng, vocab_size=20, dim=6)
    freqs = random_frequencies(rng, table)
    config = EncoderConfig(a=0.05, dim=6)
    return table, freqs, config


@pytest.fixture(autouse=True)
def vector_cache(tmp_path_factory, monkeypatch):
    """Point the vector-table cache at a fresh directory for every test, so
    the suite and the CLI processes it starts never write to ~/.cache.
    Returns the cache root that ``lexicon.cache_root()`` resolves to."""
    base = tmp_path_factory.mktemp("xdg-cache")
    monkeypatch.setenv("XDG_CACHE_HOME", str(base))
    return base / "noppa"
