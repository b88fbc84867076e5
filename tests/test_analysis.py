import csv
import io

import numpy as np
import pytest

from noppa import (EncoderConfig, FrequencyTable, NoppaError, Pipeline,
                   VectorTable, analysis, denoiser, encoder)
from noppa.encoder import attention, positional_rows, word_rows


@pytest.fixture
def pipe():
    rng = np.random.default_rng(21)
    entries = {w: rng.standard_normal(4).astype(np.float32)
               for w in ["the", "girl", "eats", "a", "cake", ",", "."]}
    vt = VectorTable.from_mapping(entries)
    ft = FrequencyTable.from_counts(
        {"the": 5000, "girl": 40, "eats": 30, "a": 4000, "cake": 25,
         ",": 6000, ".": 7000})
    return Pipeline(vectors=vt, frequencies=ft,
                    config=EncoderConfig(a=0.05, dim=4))


def parse_csv(text):
    rows = [r for r in csv.reader(io.StringIO(text)) if r and not r[0].startswith("#")]
    comments = [l for l in text.splitlines() if l.startswith("#")]
    return comments, rows


class TestAttentionReport:
    def test_single_word(self, pipe):
        comments, rows = parse_csv(analysis.attention_report("cake", pipe.vectors))
        assert rows[0] == ["", "cake"]
        assert rows[1] == ["cake", "1.000000"]
        assert comments[0] == "# use_positions=True"
        assert any("rounded to 6 decimal places" in c for c in comments)

    @pytest.mark.parametrize("use_positions", [True, False])
    def test_matrix_is_the_embeddings(self, pipe, use_positions, monkeypatch):
        # The report builds its rows with positional_rows alone; its matrix
        # must be the one that embedding the sentence computes.
        sentence = "the girl eats a cake , the girl"
        config = EncoderConfig(a=0.05, dim=4, use_positions=use_positions)
        computed = []

        def recording(pv):
            computed.append(attention(pv))
            return computed[-1]

        monkeypatch.setattr(encoder, "attention", recording)
        Pipeline(pipe.vectors, pipe.frequencies, config).embed(sentence)
        [att] = computed
        _, rows = parse_csv(analysis.attention_report(sentence, pipe.vectors,
                                                      use_positions))
        assert [row[1:] for row in rows[1:]] == [[f"{v:.6f}" for v in row]
                                                 for row in att]

    def test_row_sums_and_labels(self, pipe):
        text = analysis.attention_report("the girl eats a cake", pipe.vectors)
        _, rows = parse_csv(text)
        header = rows[0][1:]
        assert header == ["the", "girl", "eats", "a", "cake"]
        for row in rows[1:]:
            assert row[0] in header
            total = sum(float(v) for v in row[1:])
            assert total == pytest.approx(1.0, abs=2e-5)  # post-rounding slack

    def test_comma_token_is_quoted_correctly(self, pipe):
        text = analysis.attention_report("the , cake", pipe.vectors)
        _, rows = parse_csv(text)
        assert rows[0][1:] == ["the", ",", "cake"]

    def test_unrounded_rows_sum_to_one(self, pipe):
        toks, _ = pipe.embed("the girl eats a cake .")
        att = attention(positional_rows(word_rows(toks, pipe.vectors), True))
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-6)


class TestContributionReport:
    def test_single_word_positive_score(self, pipe):
        report = analysis.contribution_report("cake", pipe)
        assert report.tokens == ["cake"]
        assert 0 < report.scores[0] <= 1 + 1e-9

    def test_scores_bounded(self, pipe):
        report = analysis.contribution_report("the girl eats a cake , .", pipe)
        assert len(report.scores) == len(report.tokens) == 7
        assert all(abs(s) <= 1 + 1e-9 for s in report.scores)

    def test_rescaling_invariance(self, pipe):
        # cosine scores must not depend on a uniform positive rescaling,
        # exercised here through the inert-by-scaling weight constant
        report = analysis.contribution_report("the girl eats a cake", pipe)
        vecs = {t: pipe.vectors.matrix[pipe.vectors.index[t]] for t in report.tokens}
        _, vector = pipe.embed("the girl eats a cake")
        scaled = vector * 7.5
        for token, score in zip(report.tokens, report.scores):
            w = np.asarray(vecs[token], dtype=np.float64)
            tiled = np.concatenate([w, w])
            manual = tiled @ scaled / (np.linalg.norm(tiled) * np.linalg.norm(scaled))
            assert manual == pytest.approx(score, abs=1e-9)

    def test_noise_model_changes_scores(self, pipe):
        sentences = ["the girl eats a cake", "a girl eats the cake .",
                     "the cake , the girl", "eats a cake the girl",
                     "the girl , a cake ."]
        X = np.stack([pipe.embed(s)[1] for s in sentences])
        noisy = Pipeline(vectors=pipe.vectors, frequencies=pipe.frequencies,
                         config=pipe.config, noise=denoiser.fit(X, 2))
        post = analysis.contribution_report("the girl eats a cake", noisy)
        pre = analysis.contribution_report("the girl eats a cake", pipe)
        assert post.scores != pre.scores

    def test_degenerate_embedding(self, pipe):
        # a noise model spanning the whole space zeroes the embedding
        X = np.eye(8)
        model = denoiser.fit(X, 8)
        zeroing = Pipeline(vectors=pipe.vectors, frequencies=pipe.frequencies,
                           config=pipe.config, noise=model)
        with pytest.raises(NoppaError, match="degenerate embedding"):
            analysis.contribution_report("the girl eats a cake", zeroing)

    def test_stopwords_score_below_content_words(self):
        # frequent words carry weight << rare words, depressing their share:
        # content words share a direction, stopwords sit orthogonal to it
        content = np.array([1.0, 0.2, 0.0, 0.0])
        stop = np.array([0.0, 0.0, 1.0, 0.3])
        rng = np.random.default_rng(33)
        entries = {
            "the": stop + rng.normal(0, 0.05, 4),
            "a": stop + rng.normal(0, 0.05, 4),
            "girl": content + rng.normal(0, 0.05, 4),
            "eats": content + rng.normal(0, 0.05, 4),
            "cake": content + rng.normal(0, 0.05, 4),
        }
        vt = VectorTable.from_mapping(entries)
        ft = FrequencyTable.from_counts(
            {"the": 50000, "a": 40000, "girl": 40, "eats": 30, "cake": 25})
        pipe = Pipeline(vectors=vt, frequencies=ft,
                        config=EncoderConfig(a=0.05, dim=4))
        report = analysis.contribution_report("the girl eats a cake", pipe)
        scores = dict(zip(report.tokens, report.scores))
        assert scores["girl"] > scores["the"]
        assert scores["cake"] > scores["a"]


class TestWeightCurve:
    def test_zero_probability_group_is_flat_one(self):
        ft = FrequencyTable.from_counts({"filler": 100})
        curve = analysis.weight_curve({"rare": ["unseen1", "unseen2"]}, ft,
                                      [1.0, 0.1, 0.01])
        assert curve.group_means["rare"] == [1.0, 1.0, 1.0]

    def test_grid_sorted_descending(self):
        ft = FrequencyTable.from_counts({"x": 1, "y": 9})
        curve = analysis.weight_curve({"g": ["x"]}, ft, [0.01, 1.0, 0.1])
        assert curve.a_values == [1.0, 0.1, 0.01]

    def test_group_means_increasing_in_a(self):
        ft = FrequencyTable.from_counts({"x": 5, "y": 95})
        curve = analysis.weight_curve({"g": ["x", "y"]}, ft,
                                      [1.0, 0.3, 0.1, 0.03, 0.01])
        means = curve.group_means["g"]
        assert all(means[i] > means[i + 1] for i in range(len(means) - 1))
        assert all(0 < m <= 2.0 for m in means)

    def test_stop_meaningful_ratio_strictly_decreases(self):
        # synthetic Pr levels: the mean-weight ratio stop/meaningful shrinks
        # as a decreases, because (Pr_m + a/2)/(Pr_s + a/2) does
        ft = FrequencyTable.from_counts({"stopper": 500, "meaning": 1,
                                         "pad": 9499})
        grid = [0.1, 0.05, 0.01, 0.005, 0.001]
        curve = analysis.weight_curve(
            {"stop": ["stopper"], "meaningful": ["meaning"]}, ft, grid)
        ratios = [s / m for s, m in zip(curve.group_means["stop"],
                                        curve.group_means["meaningful"])]
        assert all(ratios[i] > ratios[i + 1] for i in range(len(ratios) - 1))

    def test_weight_ratio_increasing_in_a_for_distinct_probs(self):
        from noppa import sfw
        a_grid = [0.001, 0.01, 0.1, 1.0]
        p_hi, p_lo = 0.02, 0.0007
        ratios = [float(sfw(p_hi, a) / sfw(p_lo, a)) for a in a_grid]
        assert all(ratios[i] < ratios[i + 1] for i in range(len(ratios) - 1))

    def test_empty_group_rejected(self):
        ft = FrequencyTable.from_counts({"x": 1})
        with pytest.raises(NoppaError, match="empty token group"):
            analysis.weight_curve({"bad": []}, ft, [0.1])

    def test_csv_layout(self):
        ft = FrequencyTable.from_counts({"x": 1, "y": 3})
        curve = analysis.weight_curve({"g1": ["x"], "g2": ["y"]}, ft, [0.1, 0.01])
        text = analysis.weight_curve_csv(curve, ft)
        comments, rows = parse_csv(text)
        assert rows[0] == ["a", "g1", "g2"]
        assert len(rows) == 3
        assert comments
