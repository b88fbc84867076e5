import re
from dataclasses import replace

import numpy as np
import pytest

from noppa import (EmptySentenceError, EncoderConfig, FormatError,
                   InfeasibleConfigError, NoppaError, contextual_embeddings,
                   encode, evalkit, sfw, synth, tokenize)
from noppa.encoder import encode_batch
from noppa.evalkit import (MLPClassifier, grid_search, load_dataset,
                           pair_features, subset, train_classifier)

from conftest import random_frequencies, random_sentence, random_table
import oracles


def bucket_sentences(wanted):
    """Deterministic sentences hitting the requested hash buckets."""
    from noppa.evalkit import _bucket
    out = []
    i = 0
    for target in wanted:
        while True:
            cand = f"sentence number {i}"
            i += 1
            if _bucket(cand) == target:
                out.append(cand)
                break
    return out


class TestLoadDataset:
    def test_hash_split_8_1_1(self, tmp_path):
        sentences = bucket_sentences([0, 1, 2, 3, 4, 5, 6, 7, 8, 9])
        lines = [f"{i % 2}\t{s}" for i, s in enumerate(sentences)]
        p = tmp_path / "toy.tsv"
        p.write_text("\n".join(lines) + "\n")
        ds = load_dataset("toy", p)
        assert (len(ds.train), len(ds.dev), len(ds.test)) == (8, 1, 1)
        assert ds.label_count == 2

    def test_split_is_deterministic(self, tmp_path):
        lines = [f"{i % 3}\tthis is line {i}" for i in range(60)]
        p = tmp_path / "toy.tsv"
        p.write_text("\n".join(lines) + "\n")
        first = load_dataset("toy", p)
        second = load_dataset("toy", p)
        assert first.train == second.train
        assert first.dev == second.dev
        assert first.test == second.test

    def test_polarity_pair_drops_utf8_byte_order_mark(self, tmp_path):
        pos, neg = tmp_path / "rt.pos", tmp_path / "rt.neg"
        pos.write_bytes(b"\xef\xbb\xbfgood film\r\ncaf\xe9 scene\n")
        neg.write_bytes(b"\xef\xbb\xbf\n" + "".join(
            f"{s}\n" for s in bucket_sentences(range(10))).encode("latin-1"))
        ds = evalkit.load_polarity_pair("rt", pos, neg)
        rows = ds.train + ds.dev + ds.test
        assert ("good film", 1) in rows and ("caf\xe9 scene", 1) in rows
        assert len(rows) == 12
        assert not any("\xef" in sentence for sentence, _ in rows)

    def test_unknown_label_token(self, tmp_path):
        p = tmp_path / "toy.tsv"
        p.write_text("positive\thello there\n")
        with pytest.raises(FormatError, match="unknown label token"):
            load_dataset("toy", p)

    @pytest.mark.parametrize("label", ["\u0661", "1_0", "+1"],
                             ids=["arabic-indic", "underscore", "plus"])
    def test_label_is_ascii_digits(self, tmp_path, label):
        # int() reads the Arabic-Indic digit one as 1.
        p = tmp_path / "toy.tsv"
        p.write_text("".join(f"{i % 2}\tgirl eats cake {i}\n" for i in range(20))
                     + f"{label}\tbad film\n", encoding="utf-8")
        with pytest.raises(FormatError, match=re.escape(f"unknown label token '{label}'")):
            load_dataset("toy", p)

    def test_inferred_label_count_equal_to_row_count(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "train.tsv").write_text("0\ta b\n1\tc d\n")
        (d / "test.tsv").write_text("2\tg h\n")
        assert load_dataset("official", d).label_count == 3
        (d / "test.tsv").write_text("3\tg h\n")
        with pytest.raises(FormatError, match="label 3 implies 4 classes"):
            load_dataset("official", d)

    def test_single_and_pair_splits_rejected(self, tmp_path):
        # Single-sentence train and pair test rows would give classifier
        # inputs of two widths.
        d = tmp_path / "ds"
        d.mkdir()
        (d / "train.tsv").write_text("0\ta b\n1\tc d\n")
        (d / "test.tsv").write_text("1\tg h\ti j\n")
        with pytest.raises(FormatError, match="rows mix single sentences"):
            load_dataset("official", d)

    def test_official_split_directory(self, tmp_path):
        d = tmp_path / "ds"
        d.mkdir()
        (d / "train.tsv").write_text("0\ta b\n1\tc d\n")
        (d / "dev.tsv").write_text("0\te f\n")
        (d / "test.tsv").write_text("1\tg h\n")
        ds = load_dataset("official", d)
        assert len(ds.train) == 2 and len(ds.dev) == 1 and len(ds.test) == 1

    def test_pair_sentences(self, tmp_path):
        p = tmp_path / "pairs.tsv"
        rows = [f"{i % 2}\tleft sentence {i}\tright sentence {i}" for i in range(40)]
        p.write_text("\n".join(rows) + "\n")
        ds = load_dataset("pairs", p)
        sentence, _ = ds.train[0]
        assert isinstance(sentence, tuple) and len(sentence) == 2

    def test_subset_prefix(self, tmp_path):
        lines = [f"{i % 2}\tthis is line {i}" for i in range(100)]
        p = tmp_path / "toy.tsv"
        p.write_text("\n".join(lines) + "\n")
        ds = subset(load_dataset("toy", p), train_limit=5, test_limit=2)
        assert len(ds.train) == 5 and len(ds.test) == 2
        with pytest.raises(NoppaError, match="dev limit must be >= 0, got -1"):
            subset(ds, dev_limit=-1)


class TestEncodeBatch:
    A_VALUES = [0.01, 0.05, 0.15, 1.0]

    @pytest.mark.parametrize("use_positions", [True, False])
    @pytest.mark.parametrize("lengths", [[1], [1, 20, 3, 33, 1]])
    def test_rows_bitwise_equal_per_sentence_encode(self, tiny_world, lengths,
                                                   use_positions):
        vt, ft, _ = tiny_world
        rng = np.random.default_rng(sum(lengths))
        token_lists = [random_sentence(rng, vt, n) for n in lengths]
        cfg = EncoderConfig(a=0.05, dim=vt.dim, use_positions=use_positions)
        batch = encode_batch(token_lists, vt, ft, cfg, self.A_VALUES)
        assert sorted(batch) == self.A_VALUES
        for a in self.A_VALUES:
            assert batch[a].shape == (len(lengths), 2 * vt.dim)
            per_a = EncoderConfig(a=a, dim=vt.dim, use_positions=use_positions)
            for row, toks in zip(batch[a], token_lists):
                expected = encode(toks, vt, ft, per_a)
                assert row.tobytes() == expected.tobytes()

    def test_default_a_is_config_a(self, tiny_world):
        vt, ft, cfg = tiny_world
        toks = random_sentence(np.random.default_rng(11), vt, 4)
        batch = encode_batch([toks], vt, ft, cfg)
        assert list(batch) == [cfg.a]
        assert batch[cfg.a][0].tobytes() == encode(toks, vt, ft, cfg).tobytes()

    @pytest.mark.parametrize("use_positions", [True, False])
    def test_matches_scalar_oracle(self, tiny_world, use_positions):
        vt, ft, _ = tiny_world
        rng = np.random.default_rng(12)
        token_lists = [random_sentence(rng, vt, n) for n in (1, 21)]
        cfg = EncoderConfig(a=0.05, dim=vt.dim, use_positions=use_positions)
        batch = encode_batch(token_lists, vt, ft, cfg, [0.01, 0.1])
        for a, rows in batch.items():
            for row, toks in zip(rows, token_lists):
                stored = vt.matrix[[vt.index[t] for t in toks.tokens]].astype(float).tolist()
                probs = [ft.get(t) for t in toks.tokens]
                expected = oracles.sentence_embedding(stored, probs, a,
                                                      use_positions)
                np.testing.assert_allclose(row, expected, rtol=0, atol=1e-10)

    @pytest.mark.parametrize("a", [float("inf"), -1.0])
    @pytest.mark.parametrize("case", ["no-frequencies", "no-sentences"])
    def test_refuses_a_that_is_not_finite_and_positive(self, tiny_world, case, a):
        # Without frequencies no weight is computed, and without sentences
        # nothing is encoded: the a rule must not depend on either.
        vt, ft, cfg = tiny_world
        toks = random_sentence(np.random.default_rng(13), vt, 2)
        token_lists, freqs = {"no-frequencies": ([toks], None),
                              "no-sentences": ([], ft)}[case]
        with pytest.raises(NoppaError, match="a must be finite and positive"):
            encode_batch(token_lists, vt, freqs, cfg, a_values=[0.05, a])

    def test_no_frequencies_gives_plain_mean(self, tiny_world):
        vt, ft, cfg = tiny_world
        n = 20
        toks = random_sentence(np.random.default_rng(13), vt, n)
        batch = encode_batch([toks], vt, None, cfg, [0.01, 0.1])
        mean = contextual_embeddings(toks, vt, cfg, np.ones(n))
        per_word = contextual_embeddings(toks, vt, cfg, n * np.eye(n))
        for rows in batch.values():
            assert rows[0].tobytes() == mean.tobytes()
            np.testing.assert_allclose(rows[0], per_word.mean(axis=0),
                                       rtol=0, atol=1e-12)

    def test_infinite_a_refused(self, tiny_world):
        vt, ft, cfg = tiny_world
        toks = random_sentence(np.random.default_rng(15), vt, 5)
        with pytest.raises(NoppaError, match="a must be finite and positive, got inf"):
            encode_batch([toks], vt, ft, cfg, a_values=[float("inf")])

    def test_empty_batch(self, tiny_world):
        vt, ft, cfg = tiny_world
        assert encode_batch([], vt, ft, cfg)[cfg.a].shape == (0, 2 * cfg.dim)

    def test_empty_sentence_rejected(self, tiny_world):
        vt, ft, cfg = tiny_world
        with pytest.raises(EmptySentenceError):
            encode_batch([tokenize("", vt)], vt, ft, cfg)

    def test_raw_pools_stored_vectors(self, tiny_world):
        vt, ft, cfg = tiny_world
        toks = random_sentence(np.random.default_rng(14), vt, 7)
        stored = vt.matrix[[vt.index[t] for t in toks.tokens]].astype(np.float64)
        probs = np.array([ft.get(t) for t in toks.tokens], dtype=np.float64)
        batch = encode_batch([toks], vt, ft, cfg, [0.01, 0.1], raw=True)
        for a, rows in batch.items():
            expected = (sfw(probs, a)[:, None] * stored).sum(axis=0) / len(toks)
            assert rows[0].tobytes() == expected.tobytes()


class TestEmbedSplit:
    def test_raw_variant_dimension(self, tiny_world):
        vt, ft, cfg = tiny_world
        vocab = list(vt.index)
        sentences = [" ".join(vocab[:4]), " ".join(vocab[4:7])]
        mats, kept = evalkit.embed_split(sentences, "glove_avg", cfg, vt, ft)
        assert mats[cfg.a].shape == (2, vt.dim)
        assert kept == [0, 1]

    def test_contextual_variant_dimension(self, tiny_world):
        vt, ft, cfg = tiny_world
        vocab = list(vt.index)
        mats, _ = evalkit.embed_split([" ".join(vocab[:5])], "noppa", cfg, vt, ft,
                                      a_values=[0.01, 0.1])
        assert set(mats) == {0.01, 0.1}
        assert mats[0.01].shape == (1, 2 * vt.dim)
        assert not np.allclose(mats[0.01], mats[0.1])

    def test_all_oov_sentences_dropped(self, tiny_world):
        vt, ft, cfg = tiny_world
        vocab = list(vt.index)
        mats, kept = evalkit.embed_split(
            ["zzz qqq", " ".join(vocab[:3])], "noppa", cfg, vt, ft)
        assert kept == [1]
        assert mats[cfg.a].shape[0] == 1

    def test_uniform_weights_match_plain_mean(self, tiny_world):
        vt, ft, cfg = tiny_world
        vocab = list(vt.index)
        sentence = " ".join(vocab[:6])
        cfg_u = EncoderConfig(a=0.05, dim=vt.dim)
        mats, _ = evalkit.embed_split([sentence], "ce_avg", cfg_u, vt, ft)
        from noppa import contextual_embeddings, tokenize
        per_word = contextual_embeddings(tokenize(sentence, vt), vt, cfg_u,
                                         6 * np.eye(6))
        np.testing.assert_allclose(mats[0.05][0], per_word.mean(axis=0), atol=1e-12)

    def test_pairs_and_mixed_arity(self, tiny_world):
        vt, ft, cfg = tiny_world
        vocab = list(vt.index)
        u, v = " ".join(vocab[:3]), " ".join(vocab[3:7])
        mats, kept = evalkit.embed_split([(u, v), (u, "zzz")], "noppa", cfg, vt, ft,
                                         pairs=True)
        singles, _ = evalkit.embed_split([u, v], "noppa", cfg, vt, ft)
        assert kept == [0]
        np.testing.assert_array_equal(mats[cfg.a][0],
                                      pair_features(*singles[cfg.a]))

    def test_pair_features(self):
        u = np.array([1.0, 2.0])
        v = np.array([0.5, 4.0])
        np.testing.assert_array_equal(pair_features(u, v),
                                      [1.0, 2.0, 0.5, 4.0, 0.5, 2.0])
        np.testing.assert_array_equal(pair_features(np.stack([u, v]), np.stack([v, u])),
                                      [pair_features(u, v), pair_features(v, u)])

    @pytest.mark.parametrize("variant, pairs, width", [
        ("noppa", False, 2), ("noppa", True, 6), ("glove_avg", False, 1),
        ("glove_avg", True, 3)])
    @pytest.mark.parametrize("sentences", [[], ["zzz qqq"]], ids=["empty", "all-oov"])
    def test_nothing_kept_gives_zero_rows_of_the_arity_width(
            self, tiny_world, sentences, variant, pairs, width):
        vt, ft, cfg = tiny_world
        sentences = [(s, s) for s in sentences] if pairs else sentences
        mats, kept = evalkit.embed_split(sentences, variant, cfg, vt, ft, pairs=pairs)
        assert kept == []
        assert mats[cfg.a].shape == (0, width * vt.dim)


class TestClassifier:
    def test_linearly_separable_reaches_99(self):
        rng = np.random.default_rng(100)
        x0 = rng.normal(-2.0, 0.5, (200, 8))
        x1 = rng.normal(2.0, 0.5, (200, 8))
        x = np.vstack([x0, x1])
        y = np.array([0] * 200 + [1] * 200)
        clf, _ = train_classifier(x, y, x, y, 2, seed=1)
        assert clf.score(x, y) >= 99.0

    def test_shuffled_labels_near_chance(self):
        rng = np.random.default_rng(101)
        x = rng.standard_normal((400, 8))
        y = rng.integers(0, 2, 400)
        test_x = rng.standard_normal((400, 8))
        test_y = rng.integers(0, 2, 400)
        clf, _ = train_classifier(x, y, x[:50], y[:50], 2, seed=2)
        assert abs(clf.score(test_x, test_y) - 50.0) <= 10.0

    def test_seed_reproducibility(self):
        rng = np.random.default_rng(102)
        x = rng.standard_normal((300, 6))
        y = (x[:, 0] > 0).astype(int)
        accs = []
        for _ in range(2):
            clf, dev = train_classifier(x[:200], y[:200], x[200:], y[200:],
                                        2, seed=77)
            accs.append((dev, clf.score(x[200:], y[200:])))
        assert accs[0] == accs[1]

    def test_different_seeds_differ(self):
        rng = np.random.default_rng(103)
        x = rng.standard_normal((300, 6))
        y = rng.integers(0, 2, 300)
        c1 = MLPClassifier(6, 2, seed=1)
        c2 = MLPClassifier(6, 2, seed=2)
        assert not np.allclose(c1.w1, c2.w1)

    def test_nonfinite_loss_reported(self):
        x = np.ones((64, 4))
        y = np.zeros(64, dtype=int)
        clf = MLPClassifier(4, 2, seed=0)
        clf.w1[0, 0] = np.nan  # corrupted state must be caught, not trained on
        with pytest.raises(NoppaError) as info:
            clf.fit(x, y, x, y)
        assert re.fullmatch(r"non-finite loss at epoch 0, batch 0: loss=nan, "
                            r"\|w1\|max=nan", str(info.value)), str(info.value)


def _oracle_case(seed, n, d, classes, dev=0, shift=1.5):
    """Gaussian classes ``shift`` apart on their first coordinate."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, classes, n + dev)
    x = rng.standard_normal((n + dev, d))
    x[:, 0] += shift * y
    return x[:n], y[:n], x[n:], y[n:]


def _bits(clf):
    return [getattr(clf, name).view(np.uint64) for name in ("w1", "b1", "w2", "b2")]


class TestClassifierOracle:
    """The flat-vector trainer against the per-tensor reference in
    ``oracles.py``: every weight bit, the best dev accuracy and the test
    score must be equal."""

    @pytest.mark.parametrize("n, d, classes, dev, shift", [
        (500, 12, 2, 120, 1.5),   # last batch of 52
        (40, 5, 2, 20, 1.5),      # one short batch per epoch
        (128, 7, 3, 60, 1.5),     # two full batches, three classes
        (500, 9, 3, 100, 0.0),    # labels are noise: stops early
        (128, 6, 2, 0, 1.5),      # empty dev split: train accuracy selects
    ])
    def test_bitwise_equal_to_per_tensor_trainer(self, n, d, classes, dev, shift):
        train_x, train_y, dev_x, dev_y = _oracle_case(n + d, n, d, classes, dev, shift)
        test_x, test_y, _, _ = _oracle_case(7, 200, d, classes, 0, shift)
        got, got_dev = train_classifier(train_x, train_y, dev_x, dev_y, classes, seed=11)
        want, want_dev = oracles.train_classifier(train_x, train_y, dev_x, dev_y,
                                                  classes, seed=11)
        assert got_dev == want_dev
        for got_bits, want_bits in zip(_bits(got), _bits(want)):
            np.testing.assert_array_equal(got_bits, want_bits)
        assert got.score(test_x, test_y) == want.score(test_x, test_y)
        assert got._adam_t == want._adam_t
        if shift == 0.0:
            assert got._adam_t < MLPClassifier.MAX_EPOCHS * -(-n // MLPClassifier.BATCH)


def toy_grid_dataset():
    lex = synth.make_lexicon(seed=5, dim=12, n_stop=10, n_neutral=20,
                             n_topic=30)
    ds = synth.make_topic_corpus(lex, seed=6, train=150, dev=40, test=40,
                                 min_len=4, max_len=8)
    return lex, ds


class TestGridSearch:
    def test_single_point_identity_noise(self):
        lex, ds = toy_grid_dataset()
        result = grid_search(ds, lex.vectors, lex.frequencies,
                             a_grid=[0.05], k_grid=[0], seeds=[3])
        assert len(result.runs) == 1
        assert result.best.k == 0
        assert result.best_a == 0.05
        assert 0 <= result.best.test_accuracy <= 100

    def test_best_is_argmax_over_dev(self):
        lex, ds = toy_grid_dataset()
        result = grid_search(ds, lex.vectors, lex.frequencies,
                             a_grid=[0.01, 0.1], k_grid=[0, 2], seeds=[3])
        assert result.best.dev_accuracy == max(r.dev_accuracy for r in result.runs)
        assert len(result.runs) == 4

    def test_range_enforcement(self):
        lex, ds = toy_grid_dataset()
        with pytest.raises(InfeasibleConfigError):
            grid_search(ds, lex.vectors, lex.frequencies,
                        a_grid=[0.5], k_grid=[0], seeds=[3])
        with pytest.raises(InfeasibleConfigError):
            grid_search(ds, lex.vectors, lex.frequencies,
                        a_grid=[0.05], k_grid=[30], seeds=[3])
        # permitted when explicitly unlocked
        grid_search(ds, lex.vectors, lex.frequencies, a_grid=[0.5],
                    k_grid=[0], seeds=[3], enforce_ranges=False)

    def test_run_log_lines(self, tmp_path):
        lex, ds = toy_grid_dataset()
        log = tmp_path / "runs.log"
        grid_search(ds, lex.vectors, lex.frequencies, a_grid=[0.05],
                    k_grid=[0, 2], seeds=[3, 4], log_path=log)
        lines = log.read_text().strip().splitlines()
        assert len(lines) == 4
        fields = lines[0].split(",")
        assert fields[0] == "synthetic-topics"
        assert fields[1] == "noppa"
        assert len(fields) == 9

    @pytest.mark.parametrize("fit_on_test", [False, True])
    def test_one_fit_per_distinct_a(self, monkeypatch, fit_on_test):
        lex, ds = toy_grid_dataset()
        fits = []
        fit = evalkit.denoiser.fit

        def counting_fit(rows, k):
            rows = list(rows)  # train rows, then test rows: an iterable
            fits.append((len(rows), k))
            return fit(rows, k)

        monkeypatch.setattr(evalkit.denoiser, "fit", counting_fit)
        result = grid_search(ds, lex.vectors, lex.frequencies,
                             a_grid=[0.1, 0.01, 0.1], k_grid=[3, 0, 2], seeds=[3],
                             fit_on_test=fit_on_test)
        rows = len(ds.train) + (len(ds.test) if fit_on_test else 0)
        assert fits == [(rows, 3), (rows, 3)]
        assert [(r.a, r.k) for r in result.runs] == [
            (a, k) for a in (0.01, 0.1) for k in (0, 2, 3)]

    def test_negative_k_refused(self):
        lex, ds = toy_grid_dataset()
        with pytest.raises(NoppaError, match="k must be >= 0, got -2"):
            grid_search(ds, lex.vectors, lex.frequencies, a_grid=[0.05],
                        k_grid=[5, -1, -2], seeds=[3], enforce_ranges=False)

    @pytest.mark.parametrize("a_grid, k_grid", [([], [0]), ([0.05], [])])
    def test_empty_grid_refused(self, a_grid, k_grid):
        lex, ds = toy_grid_dataset()
        with pytest.raises(NoppaError, match="must each hold one or more values"):
            grid_search(ds, lex.vectors, lex.frequencies, a_grid=a_grid,
                        k_grid=k_grid, seeds=[3])

    @pytest.mark.parametrize("seeds", [[], [3, -1]])
    def test_seeds_non_empty_and_non_negative(self, seeds):
        lex, ds = toy_grid_dataset()
        with pytest.raises(NoppaError, match="seeds must be one or more"):
            grid_search(ds, lex.vectors, lex.frequencies, a_grid=[0.05],
                        k_grid=[0], seeds=seeds)

    @pytest.mark.parametrize("name", ["sst,2", "two\nlines", "tail\r"])
    def test_name_that_breaks_the_log_line_refused(self, tmp_path, name):
        lex, ds = toy_grid_dataset()
        log = tmp_path / "runs.log"
        with pytest.raises(NoppaError, match="dataset name must hold no comma or line break"):
            grid_search(replace(ds, name=name), lex.vectors, lex.frequencies,
                        a_grid=[0.05], k_grid=[0], seeds=[3], log_path=log)
        assert not log.exists()

    def test_unknown_variant(self):
        lex, ds = toy_grid_dataset()
        with pytest.raises(NoppaError, match="unknown variant 'bogus'"):
            grid_search(ds, lex.vectors, lex.frequencies, a_grid=[0.05],
                        k_grid=[0], seeds=[3], variant="bogus")

    def test_deterministic_across_calls(self):
        lex, ds = toy_grid_dataset()
        r1 = grid_search(ds, lex.vectors, lex.frequencies, a_grid=[0.05],
                         k_grid=[2], seeds=[9])
        r2 = grid_search(ds, lex.vectors, lex.frequencies, a_grid=[0.05],
                         k_grid=[2], seeds=[9])
        assert r1.best.test_accuracy == r2.best.test_accuracy
        assert r1.best.dev_accuracy == r2.best.dev_accuracy
