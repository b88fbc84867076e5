"""Straight-line reference implementations.

The encoder references are written with plain Python floats and ``math``
only, as an independent check on the vectorized engine; keep them free of
numpy.  ``decimal_sentence_embedding`` evaluates the same formula in
``decimal`` arithmetic at 40 significant digits below the largest entry,
the reference for the engine's own rounding error.  ``contextual_part``
and ``pool`` are the earlier numpy engine, which evaluated all n^2 kernel
rows and pooled per word; they are the near-ulp reference for the
pair-sum engine in ``noppa.encoder``.  ``MLPClassifier`` at the end is a
per-tensor numpy trainer (one array and one Adam update per parameter),
the bitwise reference for the flat-vector trainer in ``noppa.evalkit``.
Keep this module free of any imports from the package under test.
"""

import decimal
import math

import numpy as np


def position_embedding(i, dim):
    out = [0.0] * dim
    for c in range(dim):
        m = c // 2
        angle = i / (10000.0 ** (2 * m / dim))
        out[c] = math.sin(angle) if c % 2 == 0 else math.cos(angle)
    return out


def positional_vectors(word_vectors, use_positions=True):
    n = len(word_vectors)
    d = len(word_vectors[0])
    rows = []
    for i in range(n):
        pe = position_embedding(i, d) if use_positions else [0.0] * d
        rows.append([word_vectors[i][c] + pe[c] for c in range(d)])
    return rows


def attention_matrix(pv):
    n = len(pv)
    d = len(pv[0])
    logits = [[sum(pv[i][c] * pv[j][c] for c in range(d)) / math.sqrt(d)
               for j in range(n)] for i in range(n)]
    out = []
    for i in range(n):
        row_max = max(logits[i])
        exps = [math.exp(v - row_max) for v in logits[i]]
        total = sum(exps)
        out.append([e / total for e in exps])
    return out


def log_kernel(x, y):
    return [math.log2(1.0 + (y[c] - x[c]) ** 2) for c in range(len(x))]


def smooth_weight(pr, a):
    return a / (pr + a / 2.0)


def sentence_embedding(word_vectors, probabilities, a, use_positions=True):
    """Full raw-embedding computation for one sentence.

    word_vectors: n lists of d floats; probabilities: n floats.
    Returns a list of 2*d floats (contextual block first, raw second).
    """
    n = len(word_vectors)
    d = len(word_vectors[0])
    pv = positional_vectors(word_vectors, use_positions)
    att = attention_matrix(pv)
    per_word = []
    for i in range(n):
        ctx = [0.0] * d
        for j in range(n):
            kern = log_kernel(pv[i], pv[j])
            for c in range(d):
                ctx[c] += att[i][j] * kern[c]
        per_word.append(ctx + list(word_vectors[i]))
    emb = [0.0] * (2 * d)
    for i in range(n):
        w = smooth_weight(probabilities[i], a)
        for c in range(2 * d):
            emb[c] += w * per_word[i][c]
    return [v / n for v in emb]


def remove_projection(vector, rows):
    """vector minus its projection coefficients times the given rows."""
    out = list(vector)
    for row in rows:
        coeff = sum(vector[c] * row[c] for c in range(len(vector)))
        for c in range(len(vector)):
            out[c] -= coeff * row[c]
    return out


# ---------------------------------------------------------------------------
# High-precision reference: the formula in decimal arithmetic.


def decimal_sentence_embedding(rows, positions, weights):
    """One sentence's vector as ``Decimal`` values: the contextual block,
    then the word block, each (1/n) sum_i w_i (...).

    ``rows`` (n x d word vectors), ``positions`` (n x d offsets; zeros for
    no positions) and ``weights`` (n) are floats read as exact inputs, so
    rows + positions is not rounded to float64.  Every operation is rounded
    to 40 significant digits plus the decimal exponent of the largest
    |entry| of ``rows``, so the rounding stays near 1e-40 and the position
    offsets survive at every magnitude: the attention uses ``Decimal.exp``,
    the kernel ``ln(1 + delta^2) / ln 2``, and nothing is rounded to float.
    """
    with decimal.localcontext() as ctx:
        dec = decimal.Decimal
        largest = max(abs(float(v)) for row in rows for v in row)
        ctx.prec = 40 + max(0, dec(largest).adjusted())
        n, d = len(rows), len(rows[0])
        raw = [[dec(float(v)) for v in row] for row in rows]
        pv = [[v + dec(float(p)) for v, p in zip(row, offsets)]
              for row, offsets in zip(raw, positions)]
        w = [dec(float(v)) for v in weights]
        scale = dec(d).sqrt()
        att = []
        for i in range(n):
            logits = [sum(x * y for x, y in zip(pv[i], pv[j])) / scale for j in range(n)]
            top = max(logits)
            exps = [(v - top).exp() for v in logits]
            total = sum(exps)
            att.append([e / total for e in exps])
        ln2 = dec(2).ln()
        # K(pv_i, pv_j) is symmetric and zero on the diagonal; each unordered
        # pair is evaluated once and used for both words.
        kernel = [[[dec(0)] * d for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                kernel[i][j] = kernel[j][i] = [
                    (1 + (x - y) * (x - y)).ln() / ln2 for x, y in zip(pv[i], pv[j])]
        out = [dec(0)] * (2 * d)
        for i in range(n):
            for c in range(d):
                out[c] += w[i] * sum(att[i][j] * kernel[i][j][c] for j in range(n))
                out[d + c] += w[i] * raw[i][c]
        return [v / n for v in out]


# ---------------------------------------------------------------------------
# Per-word numpy engine: every ordered pair's kernel row, pooled per word.


def contextual_part(pv, att, block_elems=131_072, block_rows_max=8):
    """Row i = sum_j A_ij K(pv_i, pv_j), all n^2 kernel rows in row blocks."""
    n, d = pv.shape
    block = min(block_rows_max, max(1, block_elems // (n * d)))
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


def pool(weights, rows):
    """Length-normalized weighted sum of the per-word rows."""
    return (weights[:, None] * rows).sum(axis=0) / rows.shape[0]


# ---------------------------------------------------------------------------
# Classifier: one array per parameter, one Adam update per array.


class MLPClassifier:
    """One hidden layer of 50 rectified units trained with Adam.

    Softmax cross-entropy loss, batch size 64, dropout 0.0, early stopping
    on dev accuracy with patience 5 epochs, at most 50 epochs.  Weight
    initialization and shuffling come from a single seed.
    """

    HIDDEN = 50
    BATCH = 64
    MAX_EPOCHS = 50
    PATIENCE = 5
    LR = 1e-3

    def __init__(self, input_dim: int, label_count: int, seed: int):
        rng = np.random.default_rng(seed)
        self.rng = rng
        self.w1 = rng.normal(0.0, np.sqrt(2.0 / input_dim), (input_dim, self.HIDDEN))
        self.b1 = np.zeros(self.HIDDEN)
        self.w2 = rng.normal(0.0, np.sqrt(1.0 / self.HIDDEN), (self.HIDDEN, label_count))
        self.b2 = np.zeros(label_count)
        self._adam_state = [
            [np.zeros_like(p), np.zeros_like(p)]
            for p in (self.w1, self.b1, self.w2, self.b2)
        ]
        self._adam_t = 0

    def _params(self):
        return [self.w1, self.b1, self.w2, self.b2]

    def _forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        hidden = np.maximum(x @ self.w1 + self.b1, 0.0)
        logits = hidden @ self.w2 + self.b2
        logits = logits - logits.max(axis=1, keepdims=True)
        np.exp(logits, out=logits)
        logits /= logits.sum(axis=1, keepdims=True)
        return hidden, logits

    def _adam_step(self, grads):
        self._adam_t += 1
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        t = self._adam_t
        for p, g, (m, v) in zip(self._params(), grads, self._adam_state):
            m *= beta1
            m += (1 - beta1) * g
            v *= beta2
            v += (1 - beta2) * np.square(g)
            m_hat = m / (1 - beta1 ** t)
            v_hat = v / (1 - beta2 ** t)
            p -= self.LR * m_hat / (np.sqrt(v_hat) + eps)

    def fit(self, train_x: np.ndarray, train_y: np.ndarray,
            dev_x: np.ndarray | None = None, dev_y: np.ndarray | None = None) -> float:
        """Train; returns the best dev accuracy (train accuracy when no dev)."""
        n = train_x.shape[0]
        best_acc = -1.0
        best_params = None
        stale = 0
        for epoch in range(self.MAX_EPOCHS):
            order = self.rng.permutation(n)
            for start in range(0, n, self.BATCH):
                idx = order[start:start + self.BATCH]
                x, y = train_x[idx], train_y[idx]
                hidden, probs = self._forward(x)
                loss = -np.mean(np.log(probs[np.arange(len(y)), y] + 1e-12))
                if not np.isfinite(loss):
                    raise FloatingPointError(
                        f"non-finite loss at epoch {epoch}, batch {start // self.BATCH}: "
                        f"loss={loss}, |w1|max={np.abs(self.w1).max():.3e}")
                delta = probs
                delta[np.arange(len(y)), y] -= 1.0
                delta /= len(y)
                grad_w2 = hidden.T @ delta
                grad_b2 = delta.sum(axis=0)
                back = delta @ self.w2.T
                back[hidden <= 0.0] = 0.0
                grad_w1 = x.T @ back
                grad_b1 = back.sum(axis=0)
                self._adam_step([grad_w1, grad_b1, grad_w2, grad_b2])
            eval_x = dev_x if dev_x is not None and len(dev_x) else train_x
            eval_y = dev_y if dev_x is not None and len(dev_x) else train_y
            acc = self.score(eval_x, eval_y)
            if acc > best_acc:
                best_acc = acc
                best_params = [p.copy() for p in self._params()]
                stale = 0
            else:
                stale += 1
                if stale >= self.PATIENCE:
                    break
        if best_params is not None:
            self.w1, self.b1, self.w2, self.b2 = best_params
        return best_acc

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self._forward(x)[1].argmax(axis=1)

    def score(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy in percent."""
        return float(np.mean(self.predict(x) == y) * 100.0)


def train_classifier(train_x, train_y, dev_x, dev_y, label_count, seed):
    """Fit the reference classifier; returns (classifier, best dev accuracy %)."""
    clf = MLPClassifier(train_x.shape[1], label_count, seed)
    best_dev = clf.fit(train_x, train_y, dev_x, dev_y)
    return clf, best_dev
