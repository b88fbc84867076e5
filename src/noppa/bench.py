"""``noppa bench``: a quick encode timing and the length-scaling probe.

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
from .lexicon import FrequencyTable, TokenSequence, VectorTable, tokenize


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
        denoiser.remove_matrix(rows, model)


# Sentences per timed chunk of the probe: one pass over all of them lasts
# long enough for the host's speed to change within it, a chunk does not.
PROBE_CHUNK = 50
# The probe's fixed settings, those of acceptance criterion C5: the
# directions of its noise model, the rounds of every encode timing (the
# fewest with a spread), the sentences per length and the seed they are
# drawn with.
PROBE_K = 10
REPETITIONS = 3
PROBE_COUNT = 1000
PROBE_SEED = 5001


def _probe_line(vectors, frequencies, config, n) -> str:
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
    # One remove_matrix pass is ~ms, so each reading averages 25 of them,
    # over ten rounds.
    times, _ = _timed([partial(_remove_25, rows, model) for rows in (emb_short, emb_long)],
                      10)
    denoise_short, denoise_long = (float(np.mean(t)) / 25 for t in times)
    return (f"scaling probe (n={n} vs {2 * n}, {PROBE_COUNT} sentences): "
            f"encode {encode_short:.4f}s -> {encode_long:.4f}s "
            f"(ratio {encode_long / encode_short:.2f}); "
            f"denoise {denoise_short * 1e3:.3f}ms -> {denoise_long * 1e3:.3f}ms "
            f"(ratio {denoise_long / denoise_short:.2f})")


def check_options(scaling_n: int | None) -> None:
    """Reject a probe length that ``report`` cannot run with."""
    if scaling_n is not None and scaling_n < 1:
        raise NoppaError(f"scaling_n must be >= 1, got {scaling_n}")


def report(sentences, vectors: VectorTable, frequencies: FrequencyTable,
           config: EncoderConfig, scaling_n: int | None = None) -> str:
    """Text of ``noppa bench``: the machine, the encode time of
    ``sentences`` (raw strings) over ``REPETITIONS`` passes and, when
    ``scaling_n`` is given, the scaling probe on ``PROBE_COUNT`` sentences
    of each length sampled from the vector vocabulary with ``PROBE_SEED``.
    The probe's noise model removes ``PROBE_K`` directions."""
    check_options(scaling_n)
    token_lists = [t for t in (tokenize(s, vectors) for s in sentences) if len(t)]
    (times,), _ = _timed([partial(encode_batch, token_lists, vectors, frequencies, config)],
                         REPETITIONS)
    lines = [f"machine: {platform.platform()} | python {platform.python_version()} | "
             f"numpy {np.__version__} | cpu {platform.processor() or 'unknown'}",
             f"sentences: {len(token_lists)}",
             f"encode: {np.mean(times):.4f}s ± "
             f"{np.std(times, ddof=1) / np.sqrt(len(times)):.4f}s "
             f"over {len(times)} reps"]
    if scaling_n is not None:
        lines.append(_probe_line(vectors, frequencies, config, scaling_n))
    return "\n".join(lines) + "\n"
