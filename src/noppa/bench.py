"""``noppa bench``: the length-scaling probe of acceptance criterion C5.

The probe times the encode pass on synthetic sentences of length n and 2n
(quadratic in n, so the ratio should be about 4) and the denoise pass on
the two embedding batches (independent of n, so the ratio should be about
1).  End-to-end timing of the CLI commands is ``benchmark/run.py``.
"""

from __future__ import annotations

import platform
import time
from functools import partial

import numpy as np

from . import denoiser
from .encoder import EncoderConfig, encode_batch
from .errors import NoppaError
from .lexicon import FrequencyTable, TokenSequence, VectorTable


def _timed(passes, repetitions):
    """Run every pass once per repetition, in turn, so a slow spell of the
    host that outlasts a round hits all of them.  Seconds and last result."""
    times, results = [[] for _ in passes], [None] * len(passes)
    for _ in range(repetitions):
        for i, run in enumerate(passes):
            t0 = time.perf_counter()
            results[i] = run()
            times[i].append(time.perf_counter() - t0)
    return times, results


def _remove_25(rows, model):
    for _ in range(25):
        denoiser.remove(rows, model)


# Sentences per timed chunk of the probe: one pass over all of them lasts
# long enough for the host's speed to change within it, a chunk does not.
PROBE_CHUNK = 50
# The probe's fixed settings, those of acceptance criterion C5: the
# directions of its noise model, the rounds of every encode timing (each
# chunk's time is the best of them), the sentences per length and the seed
# they are drawn with.
PROBE_K = 10
REPETITIONS = 3
PROBE_COUNT = 1000
PROBE_SEED = 5001
# The largest n: 3 million row ids, and ~200 MB per 2n-token encode at dim 300.
MAX_SCALE_N = 1024


def check_options(scaling_n: int) -> None:
    """Reject a probe length that ``report`` cannot run with."""
    if scaling_n < 1:
        raise NoppaError(f"scaling_n must be >= 1, got {scaling_n}")
    if scaling_n > MAX_SCALE_N:
        raise NoppaError(f"scaling_n must be <= {MAX_SCALE_N}, got {scaling_n}")


def report(vectors: VectorTable, frequencies: FrequencyTable,
           config: EncoderConfig, n: int) -> str:
    """Text of ``noppa bench``: the machine and the scaling probe at n and
    2n on ``PROBE_COUNT`` sentences of each length sampled from the vector
    vocabulary with ``PROBE_SEED``.  The probe's noise model removes
    ``PROBE_K`` directions."""
    check_options(n)
    rng = np.random.default_rng(PROBE_SEED)
    vocab = list(vectors.index)  # token of each row
    chunks = []
    for m in (n, 2 * n):
        ids = [rng.integers(0, len(vocab), m).tolist() for _ in range(PROBE_COUNT)]
        batch = [TokenSequence(tokens=[vocab[j] for j in r], rows=r) for r in ids]
        chunks.append([batch[i:i + PROBE_CHUNK]
                       for i in range(0, PROBE_COUNT, PROBE_CHUNK)])
    # Passes: short chunk 0, long chunk 0, short chunk 1, long chunk 1, ...
    times, results = _timed([partial(encode_batch, chunk, vectors, frequencies, config)
                             for pair in zip(*chunks) for chunk in pair], REPETITIONS)
    encode_short, encode_long = (sum(min(t) for t in times[side::2]) for side in (0, 1))
    emb_short, emb_long = (np.concatenate([r[config.a] for r in results[side::2]])
                           for side in (0, 1))
    model = denoiser.fit(emb_short, min(PROBE_K, *emb_short.shape))
    # One remove pass over 1000 rows takes a few ms, so each reading
    # averages 25 of them, over ten rounds.
    times, _ = _timed([partial(_remove_25, rows, model) for rows in (emb_short, emb_long)],
                      10)
    denoise_short, denoise_long = (float(np.mean(t)) / 25 for t in times)
    return (f"machine: {platform.platform()} | python {platform.python_version()} | "
            f"numpy {np.__version__} | cpu {platform.processor() or 'unknown'}\n"
            f"scaling probe (n={n} vs {2 * n}, {PROBE_COUNT} sentences): "
            f"encode {encode_short:.4f}s -> {encode_long:.4f}s "
            f"(ratio {encode_long / encode_short:.2f}); "
            f"denoise {denoise_short * 1e3:.3f}ms -> {denoise_long * 1e3:.3f}ms "
            f"(ratio {denoise_long / denoise_short:.2f})\n")
