import re

import numpy as np
import pytest

from noppa import EncoderConfig, NoppaError
from noppa import bench
from noppa.bench import report

from conftest import random_frequencies, random_table


class TestReport:
    def test_report_lines(self, monkeypatch):
        rng = np.random.default_rng(200)
        vt = random_table(rng, vocab_size=50, dim=8)
        ft = random_frequencies(rng, vt)
        monkeypatch.setattr(bench, "PROBE_COUNT", 20)
        text = report(vt, ft, EncoderConfig(a=0.05, dim=8), 4)
        lines = text.splitlines()
        assert text.endswith("\n") and len(lines) == 2
        assert re.fullmatch(r"machine: .* \| python \S+ \| numpy \S+ \| cpu .*",
                            lines[0])
        assert re.fullmatch(
            r"scaling probe \(n=4 vs 8, 20 sentences\): "
            r"encode \d+\.\d{4}s -> \d+\.\d{4}s \(ratio \d+\.\d\d\); "
            r"denoise \d+\.\d{3}ms -> \d+\.\d{3}ms \(ratio \d+\.\d\d\)", lines[1])

    @pytest.mark.parametrize("n", [0, -3])
    def test_refuses_probe_length_below_one(self, n):
        rng = np.random.default_rng(201)
        vt = random_table(rng, vocab_size=20, dim=4)
        with pytest.raises(NoppaError, match=f"^scaling_n must be >= 1, got {n}$"):
            report(vt, random_frequencies(rng, vt), EncoderConfig(a=0.05, dim=4), n)

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
        monkeypatch.setattr(bench, "PROBE_COUNT", 5)
        report(vt, ft, EncoderConfig(a=0.05, dim=4), 4)
        assert lengths == [[4], [8]] * 3

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
        monkeypatch.setattr(bench, "PROBE_COUNT", 120)
        report(vt, ft, EncoderConfig(a=0.05, dim=4), 4)
        assert calls == [([4], 50), ([8], 50), ([4], 50), ([8], 50),
                         ([4], 20), ([8], 20)] * 3

    def test_probe_draws_the_same_sentences_every_run(self, monkeypatch):
        # The probe's seed is fixed, so two reports time the same sentences.
        rng = np.random.default_rng(205)
        vt = random_table(rng, vocab_size=20, dim=4)
        ft = random_frequencies(rng, vt)
        drawn, encode_batch = [], bench.encode_batch

        def recording(token_lists, *args, **kwargs):
            drawn.append([t.rows for t in token_lists])
            return encode_batch(token_lists, *args, **kwargs)

        monkeypatch.setattr(bench, "encode_batch", recording)
        monkeypatch.setattr(bench, "PROBE_COUNT", 5)
        for _ in range(2):
            report(vt, ft, EncoderConfig(a=0.05, dim=4), 4)
        first, second = drawn[:len(drawn) // 2], drawn[len(drawn) // 2:]
        assert first == second and any(first)

    @pytest.mark.parametrize("count,dim,k", [(5, 4, 5), (20, 4, 8), (20, 8, 10)],
                             ids=["sentences-cap", "dimensions-cap", "probe-k"])
    def test_probe_noise_directions(self, monkeypatch, count, dim, k):
        # The probe removes PROBE_K directions, or as many as the short
        # side's (count x 2 dim) matrix has when that is fewer.
        rng = np.random.default_rng(206)
        vt = random_table(rng, vocab_size=20, dim=dim)
        ft = random_frequencies(rng, vt)
        fitted, fit = [], bench.denoiser.fit

        def recording(embeddings, k):
            fitted.append(k)
            return fit(embeddings, k)

        monkeypatch.setattr(bench.denoiser, "fit", recording)
        monkeypatch.setattr(bench, "PROBE_COUNT", count)
        report(vt, ft, EncoderConfig(a=0.05, dim=dim), 3)
        assert fitted == [k]
