"""Inputs for the benchmark workloads, built once per seed and cached.

Every file the program reads is generated here:

* ``embed``, all from the workload seed: a Zipf-ranked text vector table (``vectors.txt``), its Zipf
  count file (``freq.tsv``), SST-2-length lines (``sst2.txt``), long lines
  (``long.txt``), a separate training file (``fit.txt``), a one-line probe
  (``probe.txt``) and, once the CLI has fitted it, the k=10 noise model
  (``noise.txt``).  ``meta.json`` holds what the output checks need: the
  all-OOV line numbers and, for a fixed sample of short rows, the exact
  vector strings and counts the oracle recomputes the embedding from.
* ``eval``: the ``noppa.synth`` topic corpus, at synth's own default seeds,
  written as a ``train/dev/test.tsv`` directory with its own table and
  counts.  The workload seed picks the classifier seeds instead: drawing a
  new corpus per seed changed the epochs trained over the grid by up to
  a fifth between seeds, classifier seeds by a few percent.

Vocabulary words use only the letters a-p; OOV tokens carry a digit, so no
OOV token can collide with the table.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil

import numpy as np

# Sizes per input profile.  "full" is what the benchmark measures; "tiny"
# keeps the self-tests fast.
SIZES = {
    "full": dict(vocab=10_000, dim=300, sst2_lines=1500, long_lines=150,
                 fit_lines=400, oracle_rows=6, oracle_long_rows=1,
                 synth_dim=50, train=500, dev=250, test=500),
    "tiny": dict(vocab=3000, dim=16, sst2_lines=120, long_lines=8,
                 fit_lines=80, oracle_rows=6, oracle_long_rows=1,
                 synth_dim=8, train=120, dev=40, test=40),
}

OOV_TOKEN_FRAC = 0.04      # OOV share inside ordinary lines
ALL_OOV_LINE_FRAC = 0.01   # lines made only of OOV tokens
NO_FREQ_EVERY = 97         # every 97th word past rank 1000 has no count
PUNCT = [".", ",", "!", "?", ";", ":"]
_DECIMALS = 5              # GloVe-style fixed-point text
_CLIP = 3.0

# Cached inputs are keyed by this file's content, so a changed generator
# never reuses inputs an older one wrote.
with open(__file__, "rb") as _fh:
    VERSION = hashlib.sha256(_fh.read()).hexdigest()[:10]

# Keep the inputs of at most this many seeds per kind on disk (about 26 MB
# each at full size), enough for a set of ten seeds to be reused.
CACHE_KEEP = 12


def _word(i: int) -> str:
    """Distinct lowercase word over the letters a-p for vocabulary index i."""
    letters = []
    i += 16 * 16  # at least three letters
    while i:
        i, r = divmod(i, 16)
        letters.append(chr(ord("a") + r))
    return "".join(letters)


def _oov(rng) -> str:
    length = int(rng.integers(3, 8))
    chars = [chr(ord("a") + int(c)) for c in rng.integers(0, 26, length)]
    chars[int(rng.integers(0, length))] = str(int(rng.integers(0, 10)))
    return "".join(chars)


def _vocabulary(vocab: int) -> list[str]:
    # Punctuation sits at the top Zipf ranks, as in real corpora.
    words = [",", ".", *[_word(i) for i in range(vocab - len(PUNCT))]]
    words[10:10] = PUNCT[2:]
    return words


def _zipf_probs(vocab: int, exponent: float) -> np.ndarray:
    ranks = np.arange(vocab, dtype=np.float64)
    p = 1.0 / np.power(ranks + 2.7, exponent)
    return p / p.sum()


def _render(tokens: list[str], rng) -> str:
    """Join tokens as text: punctuation glued to the previous word, and the
    first letter capitalized on half the lines (tokenize lowercases)."""
    out = []
    for tok in tokens:
        if tok in PUNCT and out:
            out[-1] += tok
        else:
            out.append(tok)
    line = " ".join(out)
    if rng.random() < 0.5:
        line = line[:1].upper() + line[1:]
    return line


def _sst2_lengths(rng, count):
    """5-40 tokens, mean about 20, a fair share of short lines."""
    return np.clip(np.rint(rng.normal(20.0, 8.0, count)), 5, 40).astype(int)


def _long_lengths(rng, count):
    return rng.integers(64, 129, count)


def _lines(rng, words, cdf, lengths):
    """One line per entry of ``lengths`` (tokens per line).

    Returns (lines, kept token lists, all-OOV line indices).
    """
    lines, kept, all_oov = [], [], []
    for i, n in enumerate(lengths):
        if rng.random() < ALL_OOV_LINE_FRAC:
            toks = [_oov(rng) for _ in range(n)]
            all_oov.append(i)
            keep = []
        else:
            ids = np.minimum(np.searchsorted(cdf, rng.random(n)), len(words) - 1)
            toks = [words[j] for j in ids]
            oov = rng.random(n) < OOV_TOKEN_FRAC
            oov[int(rng.integers(0, n))] = False  # at least one kept token
            toks = [_oov(rng) if o else t for t, o in zip(toks, oov)]
            keep = [t for t, o in zip(toks, oov) if not o]
        lines.append(_render(toks, rng))
        kept.append(keep)
    return lines, kept, all_oov


def _write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_table(path, words, rng, dim):
    """Write the vector table; returns the row strings of every word."""
    scale = 10 ** _DECIMALS
    top = int(_CLIP * scale)
    lut = np.array([f"{v / scale:.{_DECIMALS}f}" for v in range(-top, top + 1)],
                   dtype=object)
    rows = {}
    with open(path, "w", encoding="utf-8") as fh:
        for start in range(0, len(words), 4096):
            block = words[start:start + 4096]
            q = np.rint(rng.standard_normal((len(block), dim)) * 0.4 * scale)
            q = np.clip(q, -top, top).astype(np.int64) + top
            for word, row in zip(block, q):
                text = " ".join(lut[row].tolist())
                rows[word] = text
                fh.write(f"{word} {text}\n")
    return rows


def _oracle_sample(kept, rows, counts, how_many, max_len):
    """The ``how_many`` shortest embeddable rows of at most ``max_len`` tokens,
    with the exact vector text and counts the oracle needs."""
    short = sorted((i for i, toks in enumerate(kept) if 0 < len(toks) <= max_len),
                   key=lambda i: (len(kept[i]), i))[:how_many]
    if len(short) < how_many:
        raise RuntimeError(f"only {len(short)} rows of at most {max_len} tokens")
    return {str(i): {"tokens": kept[i],
                     "vectors": [rows[t] for t in kept[i]],
                     "counts": [counts.get(t, 0) for t in kept[i]]}
            for i in short}


def build_embed(directory, seed: int, size: str = "full") -> None:
    """Tables and sentence files shared by the two embed workloads."""
    cfg = SIZES[size]
    rng = np.random.default_rng([seed, 1])
    words = _vocabulary(cfg["vocab"])
    rows = _write_table(os.path.join(directory, "vectors.txt"), words, rng,
                        cfg["dim"])

    count_probs = _zipf_probs(len(words), 1.07)
    counts = {}
    for rank, (word, p) in enumerate(zip(words, count_probs)):
        if rank > 1000 and rank % NO_FREQ_EVERY == NO_FREQ_EVERY - 1:
            continue  # words without a count get the maximal weight
        counts[word] = int(p * 1e9) + 1
    with open(os.path.join(directory, "freq.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(f"{w}\t{c}\n" for w, c in counts.items())

    cdf = np.cumsum(_zipf_probs(len(words), 1.0))
    sst2, sst2_kept, sst2_oov = _lines(rng, words, cdf,
                                       _sst2_lengths(rng, cfg["sst2_lines"]))
    long, long_kept, long_oov = _lines(rng, words, cdf,
                                       _long_lengths(rng, cfg["long_lines"]))
    fit, _, _ = _lines(rng, words, cdf, _sst2_lengths(rng, cfg["fit_lines"]))
    _write_lines(os.path.join(directory, "sst2.txt"), sst2)
    _write_lines(os.path.join(directory, "long.txt"), long)
    _write_lines(os.path.join(directory, "fit.txt"), fit)
    _write_lines(os.path.join(directory, "probe.txt"), [" ".join(words[20:35])])

    total = sum(counts.values())
    meta = {
        "seed": seed, "size": size, "dim": cfg["dim"], "total_count": total,
        "sst2": {"lines": len(sst2), "all_oov": sst2_oov,
                 "tokens_kept": sum(map(len, sst2_kept)),
                 "oracle": _oracle_sample(sst2_kept, rows, counts,
                                          cfg["oracle_rows"], max_len=8)},
        "long": {"lines": len(long), "all_oov": long_oov,
                 "tokens_kept": sum(map(len, long_kept)),
                 "oracle": _oracle_sample(long_kept, rows, counts,
                                          cfg["oracle_long_rows"], max_len=128)},
    }
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump(meta, fh)


def build_eval(directory, seed=None, size: str = "full") -> None:
    """The synth topic corpus as a split directory plus its table."""
    from noppa import synth
    from noppa.lexicon import save_vectors

    cfg = SIZES[size]
    lex = synth.make_lexicon(dim=cfg["synth_dim"])
    save_vectors(lex.vectors, os.path.join(directory, "vectors.txt"))
    freq = lex.frequencies
    with open(os.path.join(directory, "freq.tsv"), "w", encoding="utf-8") as fh:
        for word, p in freq.probabilities.items():
            fh.write(f"{word}\t{round(p * freq.total_count)}\n")
    corpus = synth.make_topic_corpus(lex, train=cfg["train"], dev=cfg["dev"],
                                     test=cfg["test"])
    os.makedirs(os.path.join(directory, "corpus"))
    for split in ("train", "dev", "test"):
        rows = getattr(corpus, split)
        with open(os.path.join(directory, "corpus", f"{split}.tsv"), "w",
                  encoding="utf-8") as fh:
            fh.writelines(f"{label}\t{text}\n" for text, label in rows)
    _write_lines(os.path.join(directory, "probe.txt"),
                 [" ".join(lex.stopwords[:4] + lex.topics[0][:3])])
    sentences = sum(len(getattr(corpus, s)) for s in ("train", "dev", "test"))
    with open(os.path.join(directory, "meta.json"), "w", encoding="utf-8") as fh:
        json.dump({"size": size, "sentences": sentences}, fh)


def cached(cache_root, kind: str, seed, size: str, build, finish=None) -> str:
    """Directory holding the ``kind`` inputs for ``seed``; builds it if absent.

    ``build(directory, seed, size)`` writes the files and ``finish(directory)``
    runs afterwards (the noise-model fit).  A directory is published only
    once complete, so an interrupted build is redone, never reused.
    """
    name = f"{kind}-{size}-{VERSION}-{seed}"
    final = os.path.join(cache_root, name)
    if os.path.isdir(final):
        os.utime(final)
        return final
    os.makedirs(cache_root, exist_ok=True)
    partial = final + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    build(partial, seed, size)
    if finish is not None:
        finish(partial)
    os.rename(partial, final)
    _evict(cache_root, f"{kind}-", keep=CACHE_KEEP)
    return final


def _evict(cache_root, prefix, keep):
    entries = [e for e in os.scandir(cache_root)
               if e.is_dir() and e.name.startswith(prefix)
               and not e.name.endswith(".partial")]
    entries.sort(key=lambda e: e.stat().st_mtime, reverse=True)
    for entry in entries[keep:]:
        shutil.rmtree(entry.path, ignore_errors=True)
