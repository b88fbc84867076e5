"""Desk-scale downstream evaluation: dataset ingestion, the embedding of
whole splits (through ``encoder.encode_batch``), a small MLP classifier,
baseline embedders and grid search.

``grid_search`` embeds each split once for the whole a grid and fits the
noise model once per a, for the largest k (``NoiseModel.smallest`` gives the rest).

The classifier follows a fixed protocol: one hidden layer of 50 rectified
units, softmax cross-entropy, Adam with batch size 64 and no dropout,
early stopping on dev accuracy with patience 5, at most 50 epochs, and
all randomness drawn from one seed.
"""

from __future__ import annotations

import codecs
import hashlib
import io
import logging
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import denoiser
from .encoder import VARIANTS, EncoderConfig, check_a_k, encode_batch
# Unused here, but benchmark/spans.py still wraps it at this binding.
from .encoder import contextual_embeddings  # noqa: F401
from .errors import FormatError, NoppaError
from .lexicon import (FrequencyTable, TokenSequence, VectorTable, parse_count,
                      read_lines, tokenize)

logger = logging.getLogger(__name__)

# Variants whose weights are forced to the constant 1.
_UNIFORM_VARIANTS = frozenset({"ce_avg", "ce_avg_nr", "glove_avg"})
# Variants that average raw word vectors (dimension d, no contextual block).
_RAW_VARIANTS = frozenset({"glove_avg", "freq_weighted_avg"})
# Variants that apply noise removal.
_NR_VARIANTS = frozenset({"noppa", "ce_avg_nr"})
_SPLITS = ("train", "dev", "test")


@dataclass(frozen=True)
class LabeledDataset:
    name: str
    train: list[tuple[object, int]]
    dev: list[tuple[object, int]]
    test: list[tuple[object, int]]
    label_count: int

    def __post_init__(self):
        if not self.train or not self.test:
            raise FormatError(f"{self.name}: train and test splits must be non-empty")
        # Checked over all splits: a train split of single sentences and a
        # test split of pairs would give classifier inputs of two widths.
        if len({isinstance(s, tuple) for split in (self.train, self.dev, self.test)
                for s, _ in split}) > 1:
            raise FormatError(f"{self.name}: rows mix single sentences and "
                              "sentence pairs")


@dataclass(frozen=True)
class EvalResult:
    dataset: str
    variant: str
    a: float
    k: int
    seed: int
    dev_accuracy: float  # percent
    test_accuracy: float  # percent
    embed_seconds: float
    train_seconds: float

    def logline(self) -> str:
        return (f"{self.dataset},{self.variant},{self.a:g},{self.k},{self.seed},"
                f"{self.dev_accuracy:.4f},{self.test_accuracy:.4f},"
                f"{self.embed_seconds * 1e3:.1f},{self.train_seconds * 1e3:.1f}")


def _bucket(sentence: str) -> int:
    digest = hashlib.sha1(sentence.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % 10


def _hash_split(labeled) -> tuple[list, list, list]:
    """(train, dev, test): sentence hash buckets 0-7, 8 and 9."""
    splits = ([], [], [])
    for sentence, label in labeled:
        key = sentence if isinstance(sentence, str) else "\t".join(sentence)
        splits[max(_bucket(key) - 7, 0)].append((sentence, label))
    return splits


def _parse_labeled_line(line: str, lineno: int, path) -> tuple[object, str]:
    fields = line.split("\t")
    if len(fields) == 2:
        label, sentence = fields
        return sentence, label
    if len(fields) == 3:
        label, first, second = fields
        return (first, second), label
    raise FormatError(f"{path}: expected 2 or 3 tab-separated fields at line {lineno}")


def _read_tsv(path) -> list[tuple[object, str]]:
    return [_parse_labeled_line(line, lineno, path)
            for lineno, line in read_lines(path) if line.strip()]


def _coerce_labels(rows: list[tuple[object, str]],
                   name: str) -> list[tuple[object, int]]:
    out = []
    for sentence, token in rows:
        label = parse_count(token)
        if label is None:
            shown = token if len(token) <= 40 else token[:37] + "..."
            raise FormatError(f"{name}: unknown label token {shown!r}")
        out.append((sentence, label))
    return out


def _inferred_label_count(labels: list[int], name: str) -> int:
    """``max(labels) + 1``, refused when it exceeds the number of labeled
    rows: the classifier's output layer has one unit per class, so a stray
    huge label would ask for more memory than the machine has."""
    count = max(labels, default=-1) + 1
    if count > len(labels):
        raise FormatError(f"{name}: label {count - 1} implies {count} classes, "
                          f"more than the {len(labels)} labeled rows")
    return count


def load_dataset(name: str, path) -> LabeledDataset:
    """Load a labeled dataset.

    ``path`` may be a single ``label<TAB>sentence`` TSV (split assignment is
    then the sha1 hash of the sentence mod 10: buckets 0-7 train, 8 dev,
    9 test), or a directory with official ``train.tsv``/``dev.tsv``/
    ``test.tsv`` files.  Pair tasks use a third tab-separated column.
    The labels are 0 .. max(label).
    """
    if os.path.isdir(path):
        splits = []
        for split in _SPLITS:
            split_path = os.path.join(path, f"{split}.tsv")
            rows = _read_tsv(split_path) if os.path.exists(split_path) else []
            splits.append(_coerce_labels(rows, name))
    else:
        splits = _hash_split(_coerce_labels(_read_tsv(path), name))
    label_count = _inferred_label_count([l for s in splits for _, l in s], name)
    return LabeledDataset(name, *splits, label_count=label_count)


def load_polarity_pair(name: str, pos_path, neg_path) -> LabeledDataset:
    """Adapter for one-file-per-class corpora (e.g. rt-polarity.pos/.neg):
    latin-1 text, after a leading UTF-8 byte-order mark is dropped."""
    labeled = []
    for path, label in ((pos_path, 1), (neg_path, 0)):
        with open(path, "rb") as fh:
            text = fh.read().removeprefix(codecs.BOM_UTF8).decode("latin-1")
        for line in io.StringIO(text, newline=None):  # universal newlines, as open() reads
            line = line.strip()
            if line:
                labeled.append((line, label))
    return LabeledDataset(name, *_hash_split(labeled), label_count=2)


def check_name(name: str) -> None:
    """Refuse a dataset name that would break its run-log line
    (``EvalResult.logline``): one holding a comma or a line break."""
    if "," in name or "".join(name.splitlines()) != name:
        raise NoppaError(f"dataset name must hold no comma or line break, got {name!r}")


def check_limits(*limits: int | None) -> None:
    """Refuse a negative train, dev or test limit (``subset``)."""
    for split, limit in zip(_SPLITS, limits):
        if limit is not None and limit < 0:
            raise NoppaError(f"{split} limit must be >= 0, got {limit}")


def subset(dataset: LabeledDataset, train_limit: int | None = None,
           dev_limit: int | None = None, test_limit: int | None = None) -> LabeledDataset:
    """Deterministic prefix subset of each split; a limit of None or 0
    keeps the whole split."""
    limits = (train_limit, dev_limit, test_limit)
    check_limits(*limits)
    return replace(dataset, **{split: getattr(dataset, split)[:limit or None]
                               for split, limit in zip(_SPLITS, limits)})


def pair_features(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard pair featurization along the last axis: concat(u, v, |u - v|)."""
    return np.concatenate([u, v, np.abs(u - v)], axis=-1)


# ---------------------------------------------------------------------------
# Embedding of whole datasets


def embed_split(sentences, variant: str, config: EncoderConfig,
                vectors: VectorTable, frequencies: FrequencyTable,
                a_values: list[float] | None = None, pairs: bool = False):
    """Embed a list of sentences (all str, or all (first, second) pairs
    when ``pairs``) with ``variant`` for each a in ``a_values``.

    Returns (dict a -> (l x D) matrix, kept_indices).  Sentences whose
    tokens are all out of vocabulary are dropped; ``kept_indices`` lists
    the others.  With none left, each matrix has 0 rows and the width
    ``pairs`` implies.
    """
    a_values = a_values if a_values is not None else [config.a]
    kept: list[int] = []
    token_lists: list[list[TokenSequence]] = []
    for i, sentence in enumerate(sentences):
        toks = [tokenize(p, vectors) for p in (sentence if pairs else (sentence,))]
        if all(len(t) for t in toks):
            token_lists.append(toks)
            kept.append(i)
    # One matrix per part: the sentence itself, or the two halves of a pair.
    weights = None if variant in _UNIFORM_VARIANTS else frequencies
    embedded = [encode_batch([toks[part] for toks in token_lists], vectors,
                             weights, config, a_values, raw=variant in _RAW_VARIANTS)
                for part in range(2 if pairs else 1)]
    if not pairs:
        return embedded[0], kept
    return {a: pair_features(embedded[0][a], embedded[1][a]) for a in a_values}, kept


# ---------------------------------------------------------------------------
# Classifier


def _views(flat: np.ndarray, shapes) -> list[np.ndarray]:
    """Consecutive slices of ``flat`` reshaped to ``shapes`` (views, not copies)."""
    views, start = [], 0
    for shape in shapes:
        size = int(np.prod(shape))
        views.append(flat[start:start + size].reshape(shape))
        start += size
    return views


class MLPClassifier:
    """One hidden layer of 50 rectified units trained with Adam.

    Softmax cross-entropy loss, batch size 64, dropout 0.0, early stopping
    on dev accuracy with patience 5 epochs, at most 50 epochs.  Weight
    initialization and shuffling come from a single seed.

    ``w1``, ``b1``, ``w2`` and ``b2`` are reshaped views of one float64
    vector ``theta``; the gradient and Adam's moments are vectors of the
    same layout, so one elementwise Adam pass updates every parameter.
    """

    HIDDEN = 50
    BATCH = 64
    MAX_EPOCHS = 50
    PATIENCE = 5
    LR = 1e-3

    def __init__(self, input_dim: int, label_count: int, seed: int):
        rng = np.random.default_rng(seed)
        self.rng = rng
        shapes = ((input_dim, self.HIDDEN), (self.HIDDEN,),
                  (self.HIDDEN, label_count), (label_count,))
        self.theta = np.zeros(sum(int(np.prod(s)) for s in shapes))
        self._grad = np.zeros_like(self.theta)
        self.w1, self.b1, self.w2, self.b2 = _views(self.theta, shapes)
        self._g_w1, self._g_b1, self._g_w2, self._g_b2 = _views(self._grad, shapes)
        self.w1[...] = rng.normal(0.0, np.sqrt(2.0 / input_dim), shapes[0])
        self.w2[...] = rng.normal(0.0, np.sqrt(1.0 / self.HIDDEN), shapes[2])
        self._adam_m = np.zeros_like(self.theta)
        self._adam_v = np.zeros_like(self.theta)
        self._adam_tmp = np.empty_like(self.theta)
        self._adam_step_size = np.empty_like(self.theta)
        self._adam_t = 0

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = x @ self.w1
        hidden += self.b1
        np.maximum(hidden, 0.0, out=hidden)
        logits = hidden @ self.w2
        logits += self.b2
        logits -= logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        return hidden, logits

    def _adam_step(self):
        """One Adam update of ``theta`` from the gradient in ``_grad``.

        Each operation is elementwise in the same order as the textbook
        per-tensor form, so the result is the same to the bit."""
        self._adam_t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        t = self._adam_t
        g, m, v = self._grad, self._adam_m, self._adam_v
        tmp, step = self._adam_tmp, self._adam_step_size
        m *= beta1
        np.multiply(g, 1 - beta1, out=tmp)
        m += tmp
        v *= beta2
        np.square(g, out=tmp)
        tmp *= 1 - beta2
        v += tmp
        np.divide(m, 1 - beta1 ** t, out=step)  # m_hat
        np.divide(v, 1 - beta2 ** t, out=tmp)  # v_hat
        np.sqrt(tmp, out=tmp)
        tmp += eps
        step *= self.LR
        step /= tmp
        self.theta -= step

    def fit(self, train_x: np.ndarray, train_y: np.ndarray,
            dev_x: np.ndarray | None = None, dev_y: np.ndarray | None = None) -> float:
        """Train; returns the best dev accuracy (train accuracy when no dev)."""
        n = train_x.shape[0]
        best_acc = -1.0
        best_theta = None
        stale = 0
        rows = np.arange(self.BATCH)
        for epoch in range(self.MAX_EPOCHS):
            order = self.rng.permutation(n)
            for start in range(0, n, self.BATCH):
                idx = order[start:start + self.BATCH]
                x, y = train_x[idx], train_y[idx]
                hidden, probs = self._forward(x)
                batch_rows = rows[:len(y)]
                # Softmax outputs lie in [0, 1], so log(p + 1e-12) is finite
                # exactly when p is; the loss is computed only to report it.
                picked = probs[batch_rows, y]
                if not np.isfinite(picked).all():
                    loss = -np.mean(np.log(picked + 1e-12))
                    raise NoppaError(
                        f"non-finite loss at epoch {epoch}, batch {start // self.BATCH}: "
                        f"loss={loss}, |w1|max={np.abs(self.w1).max():.3e}")
                delta = probs
                delta[batch_rows, y] -= 1.0
                delta /= len(y)
                np.matmul(hidden.T, delta, out=self._g_w2)
                np.add.reduce(delta, axis=0, out=self._g_b2)
                back = delta @ self.w2.T
                back[hidden <= 0.0] = 0.0
                np.matmul(x.T, back, out=self._g_w1)
                np.add.reduce(back, axis=0, out=self._g_b1)
                self._adam_step()
            eval_x = dev_x if dev_x is not None and len(dev_x) else train_x
            eval_y = dev_y if dev_x is not None and len(dev_x) else train_y
            acc = self.score(eval_x, eval_y)
            if acc > best_acc:
                best_acc = acc
                best_theta = self.theta.copy()
                stale = 0
            else:
                stale += 1
                if stale >= self.PATIENCE:
                    break
        if best_theta is not None:
            self.theta[:] = best_theta
        return best_acc

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x)[1].argmax(axis=1)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy in percent."""
        return float(np.mean(self.predict(x) == y) * 100.0)


def train_classifier(train_x: np.ndarray, train_y: np.ndarray,
                     dev_x: np.ndarray, dev_y: np.ndarray,
                     label_count: int, seed: int) -> tuple[MLPClassifier, float]:
    """Fit the standard classifier; returns (classifier, best dev accuracy %)."""
    clf = MLPClassifier(train_x.shape[1], label_count, seed)
    best_dev = clf.fit(train_x, train_y, dev_x, dev_y)
    return clf, best_dev


# ---------------------------------------------------------------------------
# Grid search


@dataclass
class GridSearchResult:
    runs: list[EvalResult]
    best: EvalResult  # argmax dev accuracy over all logged runs
    best_a: float
    best_k: int
    test_mean: float  # over seeds at (best_a, best_k)
    test_std: float


def check_grid(a_grid: list[float], k_grid: list[int], seeds: list[int],
               enforce_ranges: bool = True) -> None:
    """Refuse an empty grid, an a or k that ``encoder.check_a_k`` refuses,
    and a negative seed."""
    if not a_grid or not k_grid:
        raise NoppaError("a_grid and k_grid must each hold one or more values")
    check_a_k(a_grid, k_grid, enforce_ranges)
    if min(seeds, default=-1) < 0:
        raise NoppaError(f"seeds must be one or more integers >= 0, got {seeds}")


def grid_search(dataset: LabeledDataset, vectors: VectorTable,
                frequencies: FrequencyTable, a_grid: list[float],
                k_grid: list[int], seeds: list[int],
                variant: str = "noppa", use_positions: bool = True,
                fit_on_test: bool = False, enforce_ranges: bool = True,
                log_path=None) -> GridSearchResult:
    """Run variant x a_grid x k_grid x seeds, logging each run as it ends.

    Each split is embedded once for every a.  Per a, the noise model is
    fitted once with the largest k, on train (train+test if ``fit_on_test``).
    ``best`` is the pure argmax of dev accuracy over all runs;
    ``test_mean``/``test_std`` aggregate the seeds of the configuration
    with the highest mean dev accuracy.
    """
    check_grid(a_grid, k_grid, seeds, enforce_ranges)
    check_name(dataset.name)
    if variant not in VARIANTS:
        raise NoppaError(f"unknown variant {variant!r}; choose from {VARIANTS}")
    a_values = sorted(set(float(a) for a in a_grid))
    k_values = sorted(set(int(k) for k in k_grid)) if variant in _NR_VARIANTS else [0]
    seeds = list(dict.fromkeys(int(s) for s in seeds))
    if variant in _UNIFORM_VARIANTS:
        a_values = a_values[:1]  # weights are constant 1; a is inert

    runs = []
    # The log opens before any embedding, so an unwritable path fails first.
    with open(os.devnull if log_path is None else log_path, "a",
              encoding="utf-8", buffering=1) as log:
        t0 = time.perf_counter()
        config = EncoderConfig(a=a_values[0], dim=vectors.dim,
                               use_positions=use_positions)
        splits = (dataset.train, dataset.dev, dataset.test)
        pairs = isinstance(dataset.train[0][0], tuple)  # every split has train's arity
        embedded = [embed_split([s for s, _ in split], variant, config, vectors,
                                frequencies, a_values, pairs=pairs)
                    for split in splits]
        embed_seconds = (time.perf_counter() - t0) / len(a_values)
        # Checked before the drop warnings, so a failure prints one line.
        # A dev split with nothing left falls back to train accuracy.
        for name, (_, kept) in (("train", embedded[0]), ("test", embedded[2])):
            if not kept:
                raise FormatError(f"{dataset.name}: no {name} sentence has an "
                                  "in-vocabulary token")
        for name, split, (_, kept) in zip(_SPLITS, splits, embedded):
            if len(kept) < len(split):
                logger.warning("dropped %d %s sentences with no in-vocabulary "
                               "tokens", len(split) - len(kept), name)
        train_m, dev_m, test_m = (m for m, _ in embedded)
        train_y, dev_y, test_y = (np.array([split[i][1] for i in kept])
                                  for split, (_, kept) in zip(splits, embedded))

        for a in a_values:
            fitted_on = (train_m, test_m) if fit_on_test else (train_m,)
            fitted = denoiser.fit((row for m in fitted_on for row in m[a]), k_values[-1])
            for k in k_values:
                model = fitted.smallest(k)
                train_x, dev_x, test_x = (denoiser.remove(m[a], model)
                                          for m in (train_m, dev_m, test_m))
                for seed in seeds:
                    t1 = time.perf_counter()
                    clf, dev_acc = train_classifier(train_x, train_y, dev_x, dev_y,
                                                    dataset.label_count, seed)
                    train_seconds = time.perf_counter() - t1
                    result = EvalResult(
                        dataset=dataset.name, variant=variant, a=a, k=k, seed=seed,
                        dev_accuracy=dev_acc,
                        test_accuracy=clf.score(test_x, test_y),
                        embed_seconds=embed_seconds,
                        train_seconds=train_seconds)
                    runs.append(result)
                    logger.info("run %s", result.logline())
                    log.write(result.logline() + "\n")
    best = max(runs, key=lambda r: r.dev_accuracy)
    by_config: dict[tuple[float, int], list[EvalResult]] = {}
    for r in runs:
        by_config.setdefault((r.a, r.k), []).append(r)
    best_a, best_k = max(by_config,
                         key=lambda c: np.mean([r.dev_accuracy for r in by_config[c]]))
    tests = [r.test_accuracy for r in by_config[(best_a, best_k)]]
    return GridSearchResult(
        runs=runs, best=best, best_a=best_a, best_k=best_k,
        test_mean=float(np.mean(tests)),
        test_std=float(np.std(tests)),
    )
