import re

import numpy as np
import pytest

from noppa import EncoderConfig, NoppaError
from noppa import bench
from noppa.bench import report

from conftest import random_frequencies, random_table


class TestReport:
    def test_report_lines(self):
        rng = np.random.default_rng(200)
        vt = random_table(rng, vocab_size=50, dim=8)
        ft = random_frequencies(rng, vt)
        vocab = list(vt.index)
        sentences = [" ".join(vocab[i:i + 5]) for i in range(0, 40, 5)] + ["zzz"]
        text = report(sentences, vt, ft, EncoderConfig(a=0.05, dim=8), k=2,
                      repetitions=3, scaling_n=4, scaling_count=20)
        lines = text.splitlines()
        assert text.endswith("\n") and len(lines) == 4
        assert re.fullmatch(r"machine: .* \| python \S+ \| numpy \S+ \| cpu .*",
                            lines[0])
        assert lines[1] == "sentences: 8"
        assert re.fullmatch(r"encode: \d+\.\d{4}s ± \d+\.\d{4}s over 3 reps", lines[2])
        assert re.fullmatch(
            r"scaling probe \(n=4 vs 8, 20 sentences\): "
            r"encode \d+\.\d{4}s -> \d+\.\d{4}s \(ratio \d+\.\d\d\); "
            r"denoise \d+\.\d{3}ms -> \d+\.\d{3}ms \(ratio \d+\.\d\d\)", lines[3])

    def test_probe_alternates_short_and_long_encode_passes(self, monkeypatch):
        # A slow spell of the host must hit both sides of the ratio, so the
        # n and 2n passes take turns rather than running three then three.
        rng = np.random.default_rng(203)
        vt = random_table(rng, vocab_size=20, dim=4)
        ft = random_frequencies(rng, vt)
        lengths, encode_batch = [], bench.encode_batch

        def recording(token_lists, *args, **kwargs):
            lengths.append(sorted({len(t) for t in token_lists}))
            return encode_batch(token_lists, *args, **kwargs)

        monkeypatch.setattr(bench, "encode_batch", recording)
        report([], vt, ft, EncoderConfig(a=0.05, dim=4), k=1, repetitions=3,
               scaling_n=4, scaling_count=5)
        assert lengths == [[]] * 3 + [[4], [8]] * 3

    def test_probe_chunks_take_turns(self, monkeypatch):
        # Each side's sentences are timed in chunks of 50, and the short and
        # long chunks take turns within every round.
        rng = np.random.default_rng(204)
        vt = random_table(rng, vocab_size=20, dim=4)
        ft = random_frequencies(rng, vt)
        calls, encode_batch = [], bench.encode_batch

        def recording(token_lists, *args, **kwargs):
            calls.append((sorted({len(t) for t in token_lists}), len(token_lists)))
            return encode_batch(token_lists, *args, **kwargs)

        monkeypatch.setattr(bench, "encode_batch", recording)
        report([], vt, ft, EncoderConfig(a=0.05, dim=4), k=1, repetitions=3,
               scaling_n=4, scaling_count=120)
        assert calls == [([], 0)] * 3 + [([4], 50), ([8], 50), ([4], 50), ([8], 50),
                                          ([4], 20), ([8], 20)] * 3

    def test_repetition_floor(self):
        rng = np.random.default_rng(201)
        vt = random_table(rng, vocab_size=10, dim=4)
        ft = random_frequencies(rng, vt)
        with pytest.raises(NoppaError, match="repetitions"):
            report([], vt, ft, EncoderConfig(a=0.05, dim=4), repetitions=2)

    def test_negative_k(self):
        rng = np.random.default_rng(202)
        vt = random_table(rng, vocab_size=10, dim=4)
        ft = random_frequencies(rng, vt)
        with pytest.raises(NoppaError, match="k must be >= 0"):
            report([], vt, ft, EncoderConfig(a=0.05, dim=4), k=-1)
