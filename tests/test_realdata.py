"""Checks that need real word vectors, frequencies, or datasets.

They run whenever $NOPPA_DATA_DIR provides the files below and skip
otherwise, so the core suite stays self-contained:

    glove.6B.50d.txt / glove.6B.100d.txt / glove.6B.300d.txt
    wordfreq.tsv           (token<TAB>count, Wikipedia-scale counts)
    sst2/                  (train.tsv/dev.tsv/test.tsv, label<TAB>sentence)
    mr/rt-polarity.pos, mr/rt-polarity.neg
"""

import os
import warnings

import pytest

from noppa import EncoderConfig, Pipeline, analysis, evalkit, load_frequencies, load_vectors

DATA_DIR = os.environ.get("NOPPA_DATA_DIR", "")

STOPWORDS = ["of", "the", "a", "in", "at", "to", "with", "by", "and",
             "are", "is", ".", ","]
MEANINGFUL = ["film", "man", "women", "dogs", "cats", "name", "air",
              "phone", "special", "large", "past", "emotional", "easy",
              "need", "found", "show"]


def _find(name):
    path = os.path.join(DATA_DIR, name)
    return path if DATA_DIR and os.path.exists(path) else None


def _vectors_path(preferred=("glove.6B.300d.txt", "glove.6B.100d.txt",
                             "glove.6B.50d.txt")):
    for name in preferred:
        path = _find(name)
        if path:
            return path
    return None


needs_vectors = pytest.mark.skipif(_vectors_path() is None,
                                   reason="no GloVe file under NOPPA_DATA_DIR")
needs_freq = pytest.mark.skipif(_find("wordfreq.tsv") is None,
                                reason="no wordfreq.tsv under NOPPA_DATA_DIR")


@pytest.fixture(scope="module")
def glove():
    return load_vectors(_vectors_path())


@pytest.fixture(scope="module")
def wordfreq():
    return load_frequencies(_find("wordfreq.tsv"))


@needs_vectors
class TestGloveFile:
    def test_glove_6b_vocab_size(self, glove):
        # the published 6B release carries 400k entries in every width
        assert glove.vocab_size == 400000

    def test_50d_dim_when_present(self):
        path = _find("glove.6B.50d.txt")
        if path is None:
            pytest.skip("50d file not present")
        table = load_vectors(path)
        assert table.dim == 50
        assert table.vocab_size == 400000


@needs_freq
class TestWikipediaFrequencies:
    def test_probabilities_sum_to_one(self, wordfreq):
        total = sum(wordfreq.probabilities.values())
        assert abs(total - 1.0) <= 1e-9

    def test_stopword_curve_point_near_published_value(self, wordfreq):
        # reported coordinate: normalized stopword mean ~0.790 at a=0.1;
        # an independent counts file only lands nearby
        curve = analysis.weight_curve({"stop": STOPWORDS}, wordfreq, [0.1])
        assert curve.group_means["stop"][0] == pytest.approx(0.79, abs=0.08)

    def test_stopwords_drop_faster_than_meaningful(self, wordfreq):
        curve = analysis.weight_curve(
            {"stop": STOPWORDS, "meaningful": MEANINGFUL}, wordfreq,
            [1.0, 0.1, 0.01, 0.001])
        stop = curve.group_means["stop"]
        meaning = curve.group_means["meaningful"]
        assert all(m > s for m, s in zip(meaning, stop))


@needs_vectors
@needs_freq
class TestQualitativeAnalyses:
    @pytest.fixture(scope="class")
    def pipe(self, glove, wordfreq):
        return Pipeline(vectors=glove, frequencies=wordfreq,
                        config=EncoderConfig(a=0.05, dim=glove.dim))

    def test_bleeding_attends_to_injured_top3(self, pipe):
        sentence = ("David got injured during rough hiking in the mountain , "
                    "so he is bleeding right now")
        toks, _, att = pipe.embed(sentence, denoise=False)
        row = att[toks.tokens.index("bleeding")]
        ranked = sorted(zip(toks.tokens, row), key=lambda p: -p[1])
        top3 = [t for t, _ in ranked[:3]]
        assert "injured" in top3, f"top3 was {ranked[:3]}"

    def test_contribution_ordering_stopwords_low(self, pipe):
        report = analysis.contribution_report("the girl eats a cake", pipe,
                                              denoised=False)
        scores = dict(zip(report.tokens, report.scores))
        assert scores["girl"] > scores["the"]
        assert scores["cake"] > scores["a"]


@needs_vectors
@needs_freq
class TestRealDeskScaleDownstream:
    def test_ordering_on_real_subset(self, glove, wordfreq):
        sst2 = _find("sst2")
        mr = _find("mr")
        if sst2:
            dataset = evalkit.load_dataset("sst2", sst2)
        elif mr and os.path.exists(os.path.join(mr, "rt-polarity.pos")):
            dataset = evalkit.load_polarity_pair(
                "mr", os.path.join(mr, "rt-polarity.pos"),
                os.path.join(mr, "rt-polarity.neg"))
        else:
            pytest.skip("no sst2/ or mr/ dataset under NOPPA_DATA_DIR")
        dataset = evalkit.subset(dataset, 2000, 250, 500)
        seeds = [1034, 1314, 20220505]
        noppa = evalkit.grid_search(dataset, glove, wordfreq,
                                    [0.01, 0.03, 0.05, 0.1],
                                    [0, 5, 10, 15, 20],
                                    seeds=seeds, variant="noppa")
        baseline = evalkit.grid_search(dataset, glove, wordfreq, [0.05], [0],
                                       seeds=seeds, variant="glove_avg")
        gap = noppa.test_mean - baseline.test_mean
        if gap < 0:
            warnings.warn(f"inconclusive: NoPPA below baseline by {-gap:.2f} pts")
        assert gap >= -0.5, (f"noppa {noppa.test_mean:.2f} vs "
                             f"glove_avg {baseline.test_mean:.2f}")
