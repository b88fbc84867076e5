"""``noppa bench``: a quick encode timing and the length-scaling probe.

The probe times the encode pass on synthetic sentences of length n and 2n
(quadratic in n, so the ratio should be about 4) and the denoise pass on
the two embedding batches (independent of n, so the ratio should be about
1).  End-to-end timing of the CLI commands is ``benchmark/run.py``.
"""

from __future__ import annotations

import platform
import time

import numpy as np

from . import denoiser
from .encoder import EncoderConfig, encode_batch
from .errors import NoppaError
from .lexicon import FrequencyTable, TokenSequence, VectorTable, tokenize


def _encode_times(token_lists, vectors, frequencies, config, repetitions):
    """Seconds of each repetition's encode pass, and the encoded rows."""
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        rows = encode_batch(token_lists, vectors, frequencies, config)[config.a]
        times.append(time.perf_counter() - t0)
    return times, rows


def _probe_line(vectors, frequencies, config, k, n, count, repetitions, seed) -> str:
    rng = np.random.default_rng(seed)
    vocab = list(vectors.tokens())

    def synthetic(length):
        return [TokenSequence(tokens=[vocab[j] for j in rng.integers(0, len(vocab), length)])
                for _ in range(count)]

    short, long = synthetic(n), synthetic(2 * n)
    encode_short, emb_short = _encode_times(short, vectors, frequencies, config,
                                            repetitions)
    encode_long, emb_long = _encode_times(long, vectors, frequencies, config,
                                          repetitions)
    model = denoiser.fit(emb_short, min(max(k, 1), min(emb_short.shape)))
    # One remove_matrix pass is ~ms, so each reading averages 25 of them.
    # The two batches take turns, so a slow spell of the host hits both.
    denoise = ([], [])
    for _ in range(max(repetitions, 10)):
        for rows, times in zip((emb_short, emb_long), denoise):
            t0 = time.perf_counter()
            for _ in range(25):
                denoiser.remove_matrix(rows, model)
            times.append((time.perf_counter() - t0) / 25)
    denoise_short, denoise_long = (float(np.mean(t)) for t in denoise)
    return (f"scaling probe (n={n} vs {2 * n}, {count} sentences): "
            f"encode {min(encode_short):.4f}s -> {min(encode_long):.4f}s "
            f"(ratio {min(encode_long) / min(encode_short):.2f}); "
            f"denoise {denoise_short * 1e3:.3f}ms -> {denoise_long * 1e3:.3f}ms "
            f"(ratio {denoise_long / denoise_short:.2f})")


def report(sentences, vectors: VectorTable, frequencies: FrequencyTable,
           config: EncoderConfig, k: int = 0, repetitions: int = 3,
           scaling_n: int | None = None, scaling_count: int = 1000,
           seed: int = 0) -> str:
    """Text of ``noppa bench``: the machine, the encode time of
    ``sentences`` (raw strings) over ``repetitions`` passes and, when
    ``scaling_n`` is given, the scaling probe on ``scaling_count``
    sentences sampled from the vector vocabulary with ``seed``.  The
    probe's noise model removes ``max(k, 1)`` directions."""
    if repetitions < 3:
        raise NoppaError(f"repetitions must be >= 3, got {repetitions}")
    if k < 0:
        raise NoppaError(f"k must be >= 0, got {k}")
    if seed < 0:
        raise NoppaError(f"seed must be >= 0, got {seed}")
    if scaling_n is not None and scaling_n < 1:
        raise NoppaError(f"scaling_n must be >= 1, got {scaling_n}")
    if scaling_count < 1:
        raise NoppaError(f"scaling_count must be >= 1, got {scaling_count}")
    token_lists = [t for t in (tokenize(s, vectors) for s in sentences) if len(t)]
    times, _ = _encode_times(token_lists, vectors, frequencies, config, repetitions)
    lines = [f"machine: {platform.platform()} | python {platform.python_version()} | "
             f"numpy {np.__version__} | cpu {platform.processor() or 'unknown'}",
             f"sentences: {len(token_lists)}",
             f"encode: {np.mean(times):.4f}s ± "
             f"{np.std(times, ddof=1) / np.sqrt(len(times)):.4f}s "
             f"over {len(times)} reps"]
    if scaling_n is not None:
        lines.append(_probe_line(vectors, frequencies, config, k, scaling_n,
                                 scaling_count, repetitions, seed))
    return "\n".join(lines) + "\n"
