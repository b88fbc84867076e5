import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noppa import (EmptySentenceError, EncoderConfig, NoppaError, FrequencyTable,
                   TokenSequence, VectorTable, attention, contextual_embeddings,
                   encode, log_kernel, pos_embed, sfw, tokenize)
from noppa import encoder
from noppa.encoder import token_weights

from conftest import random_sentence
import oracles


class TestPosEmbed:
    def test_position_zero(self):
        np.testing.assert_allclose(pos_embed(0, 4), [0, 1, 0, 1])

    def test_position_one_components(self):
        pe = pos_embed(1, 4)
        assert pe[0] == pytest.approx(math.sin(1), abs=1e-12)      # ~0.841471
        assert pe[2] == pytest.approx(math.sin(0.01), abs=1e-12)   # ~0.0099998
        assert pe[1] == pytest.approx(math.cos(1), abs=1e-12)
        assert pe[3] == pytest.approx(math.cos(0.01), abs=1e-12)

    def test_odd_dim_final_component_is_sine(self):
        pe = pos_embed(3, 5)
        assert pe[4] == pytest.approx(math.sin(3 / 10000 ** (4 / 5)), abs=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(st.integers(0, 200), st.integers(1, 64))
    def test_matches_scalar_reference(self, i, dim):
        np.testing.assert_allclose(pos_embed(i, dim),
                                   oracles.position_embedding(i, dim),
                                   atol=1e-12)

    def test_rejects_negative_position(self):
        with pytest.raises(NoppaError):
            pos_embed(-1, 4)


class TestAttention:
    def test_single_row(self):
        np.testing.assert_allclose(attention(np.array([[2.0, 1.0]])), [[1.0]])

    def test_identical_rows_are_uniform(self):
        out = attention(np.array([[1.0, 2.0], [1.0, 2.0]]))
        np.testing.assert_allclose(out, 0.5, atol=1e-12)

    def test_orthonormal_pair(self):
        out = attention(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_allclose(out[0], [0.6698, 0.3302], atol=1e-4)
        np.testing.assert_allclose(out[1], [0.3302, 0.6698], atol=1e-4)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            pv = rng.standard_normal((int(rng.integers(1, 40)), 5)) * 3
            out = attention(pv)
            np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
            assert (out > 0).all()

    def test_large_logits_stay_finite(self):
        out = attention(np.array([[1000.0, 0.0], [0.0, 1000.0]]))
        assert np.isfinite(out).all()

    def test_rejects_empty(self):
        with pytest.raises(NoppaError):
            attention(np.zeros((0, 3)))


class TestLogKernel:
    def test_self_pair_is_zero(self):
        v = np.array([0.3, -2.0, 5.5])
        np.testing.assert_array_equal(log_kernel(v, v), np.zeros(3))

    def test_unit_difference(self):
        assert log_kernel(np.array([0.0]), np.array([1.0]))[0] == pytest.approx(1.0)

    def test_difference_three(self):
        out = log_kernel(np.array([0.0]), np.array([3.0]))[0]
        assert out == pytest.approx(math.log2(10), abs=1e-9)  # ~3.321928

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=16),
           st.data())
    def test_nonnegative_and_symmetric(self, xs, data):
        ys = data.draw(st.lists(st.floats(-50, 50),
                                min_size=len(xs), max_size=len(xs)))
        x, y = np.array(xs), np.array(ys)
        fwd, rev = log_kernel(x, y), log_kernel(y, x)
        assert (fwd >= 0).all()
        np.testing.assert_array_equal(fwd, rev)

    def test_shape_mismatch(self):
        with pytest.raises(NoppaError):
            log_kernel(np.zeros(2), np.zeros(3))

    def test_broadcast_equals_stacked_pairs_bitwise(self):
        rng = np.random.default_rng(21)
        x, y = rng.standard_normal((5, 4)), rng.standard_normal((3, 5, 4))
        pairs = np.stack([[log_kernel(x[i], y[k, i]) for i in range(5)]
                          for k in range(3)])
        assert log_kernel(x, y).tobytes() == pairs.tobytes()
        buf = np.empty((3, 5, 4))
        assert log_kernel(x, y, out=buf) is buf
        assert buf.tobytes() == pairs.tobytes()

    @pytest.mark.parametrize("x,y,out", [
        ((5, 4), (3, 6, 4), None), ((5, 4), (3, 5, 4), (2, 5, 4))],
        ids=["operands", "out"])
    def test_shapes_that_do_not_broadcast(self, x, y, out):
        with pytest.raises(NoppaError, match="shape mismatch"):
            log_kernel(np.zeros(x), np.zeros(y), out=out and np.empty(out))

    def test_engine_evaluates_each_block_through_log_kernel(self, tiny_world,
                                                            monkeypatch):
        vt, _, cfg = tiny_world
        n, m = 15, 7
        toks = random_sentence(np.random.default_rng(22), vt, n)
        expected, _ = contextual_embeddings(toks, vt, cfg, np.ones(n))
        calls = []

        def recording(x, y, out=None):
            calls.append((x.shape, y.shape))
            return log_kernel(x, y, out=out)

        monkeypatch.setattr(encoder, "log_kernel", recording)
        monkeypatch.setattr(encoder, "_BLOCK_ELEMS", 2 * n * cfg.dim)
        vector, _ = contextual_embeddings(toks, vt, cfg, np.ones(n))
        # Blocks of two slabs: 2 + 2 + 2 + 1 of the m = n // 2 slabs.
        assert calls == [((n, cfg.dim), (b, n, cfg.dim)) for b in (2, 2, 2, 1)]
        np.testing.assert_allclose(vector, expected, rtol=0, atol=1e-12)


class TestSmoothFrequencyWeight:
    @pytest.mark.parametrize("a", [0.001, 0.05, 0.15, 1.0, 10.0])
    def test_zero_frequency_gives_two(self, a):
        assert sfw(0.0, a) == pytest.approx(2.0)

    def test_fixed_point(self):
        assert sfw(0.05, 0.1) == pytest.approx(1.0)
        for a in (0.01, 0.3, 2.0):
            assert sfw(a / 2, a) == pytest.approx(1.0)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0, 1), st.floats(0, 1),
           st.floats(1e-4, 10, exclude_min=True))
    def test_monotone_decreasing_and_in_range(self, p1, p2, a):
        lo, hi = sorted([p1, p2])
        w_lo, w_hi = sfw(lo, a), sfw(hi, a)
        assert 0 < w_lo <= 2.0 and 0 < w_hi <= 2.0
        assert w_lo >= w_hi
        # strict whenever the denominators are distinguishable in float64
        if lo + a / 2 < hi + a / 2:
            assert w_lo > w_hi

    def test_rejects_nonpositive_a(self):
        with pytest.raises(NoppaError):
            sfw(0.5, 0.0)

    @pytest.mark.parametrize("a", [float("inf"), np.array([[0.05], [np.inf]])],
                             ids=["scalar", "column"])
    def test_rejects_infinite_a(self, a):
        with pytest.raises(NoppaError, match="a must be finite and positive, got inf"):
            sfw(np.array([0.1, 0.2]), a)

    @pytest.mark.parametrize("a", [0.0, -1.0, float("inf"), float("nan")])
    def test_config_rejects_a_that_is_not_finite_and_positive(self, a):
        with pytest.raises(NoppaError, match="a must be finite and positive"):
            EncoderConfig(a=a, dim=2)


def single_token_world(p, a, vec):
    vt = VectorTable.from_mapping({"only": vec})
    total = 1000
    ft = FrequencyTable.from_counts({"only": max(int(p * total), 1),
                                     "rest": total - max(int(p * total), 1)})
    return vt, ft, EncoderConfig(a=a, dim=len(vec))


class TestEncode:
    def test_single_token_closed_form(self):
        vec = [0.5, -1.5, 2.0]
        vt, ft, cfg = single_token_world(0.2, 0.05, vec)
        toks = tokenize("only", vt)
        vector, _ = encode(toks, vt, ft, cfg)
        p = ft.get("only")
        expected = (cfg.a / (p + cfg.a / 2)) * np.concatenate([np.zeros(3), vec])
        np.testing.assert_allclose(vector, expected, atol=1e-12)
        np.testing.assert_allclose(token_weights(toks.tokens, ft, cfg.a),
                                   [cfg.a / (p + cfg.a / 2)])

    def test_output_length_is_twice_dim(self, tiny_world):
        vt, ft, cfg = tiny_world
        rng = np.random.default_rng(1)
        for n in (1, 2, 7, 30):
            vector, _ = encode(random_sentence(rng, vt, n), vt, ft, cfg)
            assert vector.shape == (2 * cfg.dim,)
            assert np.isfinite(vector).all()

    def test_two_token_hand_check_against_oracle(self):
        vectors = {"aa": [0.3, -0.7], "bb": [1.1, 0.4]}
        vt = VectorTable.from_mapping(vectors)
        ft = FrequencyTable.from_counts({"aa": 3, "bb": 1})
        cfg = EncoderConfig(a=0.08, dim=2)
        toks = tokenize("aa bb", vt)
        vector, _ = encode(toks, vt, ft, cfg)
        # float32 storage rounds the inputs; feed the oracle the same values
        stored = vt.matrix[[vt.index[t] for t in toks.tokens]].astype(float).tolist()
        expected = oracles.sentence_embedding(stored, [0.75, 0.25], 0.08)
        np.testing.assert_allclose(vector, expected, atol=1e-12)

    def test_empty_after_filtering(self, tiny_world):
        vt, ft, cfg = tiny_world
        with pytest.raises(EmptySentenceError, match="empty after filtering"):
            encode(tokenize("", vt), vt, ft, cfg)

    def test_dim_mismatch(self, tiny_world):
        vt, ft, _ = tiny_world
        bad = EncoderConfig(a=0.05, dim=vt.dim + 1)
        with pytest.raises(NoppaError, match="dim mismatch"):
            encode(tokenize(next(iter(vt.index)), vt), vt, ft, bad)

    def test_missing_frequency_gets_max_weight(self):
        vt = VectorTable.from_mapping({"raretok": [1.0, 0.0]})
        ft = FrequencyTable.from_counts({"other": 10})
        cfg = EncoderConfig(a=0.05, dim=2)
        toks = tokenize("raretok", vt)
        np.testing.assert_allclose(token_weights(toks.tokens, ft, cfg.a), [2.0])
        # One word pools to its weight times concat(0, word vector).
        vector, _ = encode(toks, vt, ft, cfg)
        np.testing.assert_allclose(vector, [0.0, 0.0, 2.0, 0.0], rtol=0, atol=1e-15)

    def test_deterministic_bitwise(self, tiny_world):
        vt, ft, cfg = tiny_world
        rng = np.random.default_rng(3)
        toks = random_sentence(rng, vt, 12)
        first, _ = encode(toks, vt, ft, cfg)
        second, _ = encode(toks, vt, ft, cfg)
        assert first.tobytes() == second.tobytes()

    def test_returns_attention_matrix(self, tiny_world):
        vt, ft, cfg = tiny_world
        rng = np.random.default_rng(4)
        toks = random_sentence(rng, vt, 5)
        _, att = encode(toks, vt, ft, cfg)
        assert att.shape == (5, 5)
        np.testing.assert_allclose(att.sum(axis=1), 1.0, atol=1e-9)


def one_hot_weights(n):
    """Weights under which row i of the pooled result is word i's own row."""
    return n * np.eye(n)


class TestContextualStructure:
    def test_raw_block_is_position_free_word_vector(self, tiny_world):
        vt, ft, cfg = tiny_world
        rng = np.random.default_rng(5)
        toks = random_sentence(rng, vt, 6)
        per_word, _ = contextual_embeddings(toks, vt, cfg, one_hot_weights(6))
        raw = vt.matrix[[vt.index[t] for t in toks.tokens]].astype(np.float64)
        np.testing.assert_array_equal(per_word[:, cfg.dim:], raw)

    def test_concatenation_orderings_agree(self, tiny_world):
        # Summing attention over pairwise concat(raw_i, kernel_ij) must equal
        # the per-word concat(context_i, raw_i) up to the fixed block swap.
        vt, ft, cfg = tiny_world
        rng = np.random.default_rng(6)
        toks = random_sentence(rng, vt, 8)
        per_word, att = contextual_embeddings(toks, vt, cfg, one_hot_weights(8))
        raw = vt.matrix[[vt.index[t] for t in toks.tokens]].astype(np.float64)
        pv = raw + np.stack([pos_embed(i, cfg.dim) for i in range(len(toks))])
        for i in range(len(toks)):
            pairwise = np.stack([
                np.concatenate([raw[i], log_kernel(pv[i], pv[j])])
                for j in range(len(toks))])
            summed = att[i] @ pairwise
            engine = np.concatenate([per_word[i, cfg.dim:], per_word[i, :cfg.dim]])
            np.testing.assert_allclose(summed, engine, atol=1e-12)

    def test_permutation_invariance_without_positions(self, tiny_world):
        vt, ft, _ = tiny_world
        cfg = EncoderConfig(a=0.05, dim=vt.dim, use_positions=False)
        rng = np.random.default_rng(7)
        toks = random_sentence(rng, vt, 10)
        base, _ = encode(toks, vt, ft, cfg)
        for _ in range(5):
            perm = list(rng.permutation(len(toks)))
            shuffled = TokenSequence(tokens=[toks.tokens[i] for i in perm],
                                     rows=[toks.rows[i] for i in perm])
            np.testing.assert_allclose(encode(shuffled, vt, ft, cfg)[0],
                                       base, atol=1e-10)

    def test_positions_break_permutation_invariance(self, tiny_world):
        vt, ft, cfg = tiny_world
        rng = np.random.default_rng(8)
        toks = random_sentence(rng, vt, 10)
        assert len(set(toks.tokens)) > 1
        base, _ = encode(toks, vt, ft, cfg)
        changed = False
        for _ in range(10):
            perm = list(rng.permutation(len(toks)))
            shuffled = TokenSequence(tokens=[toks.tokens[i] for i in perm],
                                     rows=[toks.rows[i] for i in perm])
            if not np.allclose(encode(shuffled, vt, ft, cfg)[0], base,
                               atol=1e-10):
                changed = True
                break
        assert changed

    def test_contextual_block_within_convex_bounds(self, tiny_world):
        vt, ft, cfg = tiny_world
        rng = np.random.default_rng(9)
        toks = random_sentence(rng, vt, 9)
        per_word, _ = contextual_embeddings(toks, vt, cfg, one_hot_weights(9))
        raw = vt.matrix[[vt.index[t] for t in toks.tokens]].astype(np.float64)
        pv = raw + np.stack([pos_embed(i, cfg.dim) for i in range(len(toks))])
        kernels = np.stack([[log_kernel(pv[i], pv[j]) for j in range(len(toks))]
                            for i in range(len(toks))])
        ctx = per_word[:, :cfg.dim]
        assert (ctx >= -1e-12).all()
        assert (ctx <= kernels.max(axis=1) + 1e-12).all()


class TestPairKernel:
    """The pair-sum engine against the per-word engine of ``oracles``."""

    @staticmethod
    def world(n, dim, use_positions, seed):
        rng = np.random.default_rng(seed)
        vt = VectorTable.from_mapping(
            {f"w{i}": rng.standard_normal(dim).astype(np.float32) for i in range(40)})
        toks = random_sentence(rng, vt, n)
        cfg = EncoderConfig(a=0.05, dim=dim, use_positions=use_positions)
        raw = vt.matrix[[vt.index[t] for t in toks.tokens]].astype(np.float64)
        pv = raw + np.stack([pos_embed(i, dim) for i in range(n)]) if use_positions else raw
        return vt, toks, cfg, raw, pv, rng

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("use_positions", [True, False])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 33, 64, 129])
    def test_matches_per_word_engine(self, n, use_positions, rows):
        vt, toks, cfg, raw, pv, rng = self.world(n, 24, use_positions, n + 7 * rows)
        weights = rng.uniform(0.1, 2.0, (rows, n))
        got, att = contextual_embeddings(toks, vt, cfg, weights)
        per_word = np.concatenate([oracles.contextual_part(pv, att), raw], axis=1)
        assert got.shape == (rows, 2 * cfg.dim)
        for row, w in zip(got, weights):
            expected = oracles.pool(w, per_word)
            # Exact arithmetic gives equality; only the order of the sums differs.
            tolerance = 1e-14 * np.abs(expected).max()
            np.testing.assert_allclose(row, expected, rtol=0, atol=tolerance)
            assert row[cfg.dim:].tobytes() == expected[cfg.dim:].tobytes()

    @pytest.mark.parametrize("use_positions", [True, False])
    def test_single_word_context_is_exactly_zero(self, use_positions):
        vt, toks, cfg, raw, _, _ = self.world(1, 5, use_positions, 3)
        got, _ = contextual_embeddings(toks, vt, cfg, np.array([1.7]))
        assert got.shape == (10,)
        assert (got[:5] == 0.0).all()
        assert got[5:].tobytes() == (1.7 * raw[0]).tobytes()

    @pytest.mark.parametrize("n", [2, 3, 10, 33])
    def test_row_bits_independent_of_row_count(self, n):
        vt, toks, cfg, _, _, rng = self.world(n, 50, True, n)
        weights = rng.uniform(0.1, 2.0, (4, n))
        together, _ = contextual_embeddings(toks, vt, cfg, weights)
        for row, w in zip(together, weights):
            alone, _ = contextual_embeddings(toks, vt, cfg, w)
            assert row.tobytes() == alone.tobytes()

    def test_weights_must_match_length(self, tiny_world):
        vt, ft, cfg = tiny_world
        toks = random_sentence(np.random.default_rng(2), vt, 4)
        for bad in (np.ones(3), np.ones((2, 5)), np.ones((1, 1, 4)), np.float64(1.0)):
            with pytest.raises(NoppaError, match="weights of shape"):
                contextual_embeddings(toks, vt, cfg, bad)


class TestDecimalOracle:
    """The float64 engine against the formula evaluated at 40 digits below
    the largest entry (``oracles.decimal_sentence_embedding``) on the
    float64 rows, position offsets and weights that the engine itself
    reads."""

    # Error in units of the row's max |value|; measured at most 3.9e-16 over
    # these 125 cases (README, "How a sentence becomes a vector").
    BOUND = 1e-15

    @staticmethod
    def vocabulary(kind, rng, d):
        if kind == "random":
            return rng.standard_normal((40, d))
        if kind == "clustered":  # words 1e-4 apart, so the kernel's 1 + delta^2 is near 1
            return rng.standard_normal(d) + 1e-4 * rng.standard_normal((40, d))
        if kind == "repeated":  # three words, so most sentences repeat one
            return rng.standard_normal((3, d))
        # Entries near 1e15, or near the top of float32's range, swallow the
        # position offsets (README, "File formats").
        scale = {"near-1e15": 1e15, "near-3e37": 3e37}[kind]
        return scale * rng.uniform(0.5, 1.5, (5, d)) * rng.choice([-1.0, 1.0], (5, d))

    @pytest.mark.parametrize("kind", ["random", "clustered", "repeated", "near-1e15",
                                      "near-3e37"])
    def test_engine_within_bound_of_exact_formula(self, kind):
        errors = []
        for seed in range(25):
            rng = np.random.default_rng(seed)
            n, d = int(rng.integers(1, 13)), int(rng.integers(1, 17))
            use_positions = seed % 2 == 0
            words = self.vocabulary(kind, rng, d).astype(np.float32)
            vt = VectorTable.from_mapping({f"w{i}": v for i, v in enumerate(words)})
            ids = rng.integers(0, len(words), n)
            toks = tokenize(" ".join(f"w{i}" for i in ids), vt)
            weights = rng.uniform(0.05, 2.0, n)
            got, _ = contextual_embeddings(
                toks, vt, EncoderConfig(a=0.05, dim=d, use_positions=use_positions), weights)
            positions = (np.stack([pos_embed(i, d) for i in range(n)]) if use_positions
                         else np.zeros((n, d)))
            want = oracles.decimal_sentence_embedding(
                words[ids].astype(np.float64), positions, weights)
            scale = max(abs(v) for v in want)
            errors.append(float(max(abs(Decimal(float(g)) - v) for g, v in zip(got, want))
                                / scale))
        assert max(errors) <= self.BOUND, (kind, max(errors))

    @pytest.mark.parametrize("scale,all_lost", [(1e15, False), (1e17, True), (3e37, True)])
    def test_repeated_word_loses_its_offsets(self, scale, all_lost):
        # README, "File formats": the copies in "w w" differ only by their
        # position offsets, which float64 rounds away in some components near
        # 1e15 and in all from 1e17.  Those contextual components are 0.0,
        # where the formula is positive: the reference keeps 40 digits below
        # the largest entry, so near 3e37 it keeps the smallest offsets that a
        # fixed 40 digits would round away.  The bound above does not show
        # this loss, because the word block sets the row's max |value|.
        d = 8
        rng = np.random.default_rng(0)
        word = (scale * rng.uniform(0.5, 1.5, d)
                * rng.choice([-1.0, 1.0], d)).astype(np.float32)
        vt = VectorTable.from_mapping({"w": word})
        got, _ = contextual_embeddings(tokenize("w w", vt), vt,
                                       EncoderConfig(a=0.05, dim=d), np.ones(2))
        want = oracles.decimal_sentence_embedding(
            np.stack([word, word]).astype(np.float64),
            np.stack([pos_embed(i, d) for i in range(2)]), np.ones(2))
        assert all(v > 0 for v in want[:d])
        lost = int((got[:d] == 0.0).sum())
        assert lost == d if all_lost else 0 < lost < d
