import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from scipy.linalg import subspace_angles

from noppa import FormatError, InfeasibleConfigError, NoppaError, denoiser

import oracles
from file_strategies import noise_files


def svd_minor_rows(X, k):
    """Full-SVD oracle: right singular vectors of the k smallest values."""
    _, _, vt = np.linalg.svd(X, full_matrices=True)
    return vt[-k:] if k else np.zeros((0, X.shape[1]))


class TestFit:
    def test_k_zero_is_identity(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((10, 6))
        model = denoiser.fit(X, 0)
        assert model.k == 0
        np.testing.assert_array_equal(denoiser.remove(X, model), X)

    def test_rank_one_rows_give_orthogonal_direction(self):
        X = np.tile(np.eye(4)[0], (12, 1))  # every row = e1
        model = denoiser.fit(X, 1)
        # the retained direction carries singular value 0, orthogonal to e1
        assert model.singular_values[0] == pytest.approx(0.0, abs=1e-9)
        assert abs(model.vk[0] @ np.eye(4)[0]) < 1e-9

    def test_matches_full_svd_oracle_on_singular_values(self):
        rng = np.random.default_rng(1)
        X = rng.standard_normal((50, 8))
        model = denoiser.fit(X, 3)
        svals = np.linalg.svd(X, compute_uv=False)
        # retained values are the 3 smallest, descending
        np.testing.assert_allclose(model.singular_values, svals[-3:],
                                   rtol=1e-6)
        # projection norms along each retained direction match those values
        norms = np.linalg.norm(X @ model.vk.T, axis=0)
        np.testing.assert_allclose(norms, model.singular_values, rtol=1e-6)

    def test_minor_subspace_agrees_with_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            X = rng.standard_normal((50, 8))
            model = denoiser.fit(X, 3)
            oracle = svd_minor_rows(X, 3)
            angles = subspace_angles(model.vk.T, oracle.T)
            assert angles.max() < 1e-4

    def test_rows_orthonormal(self):
        rng = np.random.default_rng(3)
        X = rng.standard_normal((30, 7))
        model = denoiser.fit(X, 4)
        gram = model.vk @ model.vk.T
        np.testing.assert_allclose(gram, np.eye(4), atol=1e-6)

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((25, 5))
        model = denoiser.fit(X, 3)
        for row in model.vk:
            assert row[np.abs(row).argmax()] > 0

    def test_k_too_large(self):
        with pytest.raises(InfeasibleConfigError):
            denoiser.fit(np.zeros((3, 8)) + 1.0, 4)  # k > l
        with pytest.raises(InfeasibleConfigError):
            denoiser.fit(np.ones((10, 3)), 4)  # k > dim

    def test_negative_k(self):
        with pytest.raises(NoppaError, match="k must be >= 0, got -1"):
            denoiser.fit(np.ones((4, 4)), -1)

    def test_nonfinite_input(self):
        X = np.ones((4, 4))
        X[2, 2] = np.nan
        with pytest.raises(NoppaError, match="non-finite"):
            denoiser.fit(X, 1)


def _rank_deficient(rng, l, dim, rank):
    return rng.standard_normal((l, rank)) @ rng.standard_normal((rank, dim))


class TestPrecisionContract:
    """``fit`` against ``np.linalg.svd`` of the whole matrix.  With
    tol = max(l, D) * eps * sigma_max (the rank tolerance), each retained
    singular value is within tol of the oracle's, and the retained subspace
    is within tol / gap radians of the oracle's, where gap is the distance
    from the k-th smallest singular value to the next larger one."""

    @pytest.mark.parametrize("shape,rank,k", [
        ((3000, 40), 40, 5),  # well-conditioned, several chunks
        ((3000, 40), 30, 10),  # rank-deficient, l >= D: the null space
        ((3000, 40), 30, 12),  # the null space and two determined directions
        ((25, 40), 25, 17),  # l < D
    ], ids=["well-conditioned", "null-space", "past-null-space", "wide"])
    def test_matches_full_svd(self, shape, rank, k):
        rng = np.random.default_rng(31)
        X = _rank_deficient(rng, *shape, rank)
        model = denoiser.fit(X, k)
        # vt is D x D either way; a full U would be l x l.
        _, svals, vt = np.linalg.svd(X, full_matrices=shape[0] < shape[1])
        svals = np.concatenate([svals, np.zeros(shape[1] - svals.size)])
        tol = max(shape) * np.finfo(np.float64).eps * svals[0]
        assert np.linalg.matrix_rank(X) == rank  # the same tolerance
        assert model.undetermined == min(k, shape[1] - rank)
        assert np.abs(model.singular_values - svals[-k:]).max() <= tol
        gap = svals[-k - 1] - svals[-k]
        assert subspace_angles(model.vk.T, vt[-k:].T).max() <= tol / gap

    def test_rank_deficient_sigma_min_is_exact(self):
        # 200 x 20 of rank 19: the Gram matrix X^T X would square the
        # condition number and put sigma_min near 1e-6.
        rng = np.random.default_rng(32)
        X = _rank_deficient(rng, 200, 20, 19)
        model = denoiser.fit(X, 1)
        sigma_max = np.linalg.svd(X, compute_uv=False)[0]
        assert model.undetermined == 1
        assert model.singular_values[0] <= 200 * np.finfo(np.float64).eps * sigma_max

    def test_generator_bitwise_equal_to_matrix(self):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((2 * denoiser._CHUNK_ROWS + 452, 30))  # last chunk partial
        want = denoiser.fit(X, 7)
        got = denoiser.fit((row for row in X), 7)
        assert got.undetermined == want.undetermined
        assert got.vk.tobytes() == want.vk.tobytes()
        assert got.singular_values.tobytes() == want.singular_values.tobytes()

    @pytest.mark.parametrize("rows", [[], np.ones(5), np.ones((2, 0))],
                             ids=["empty", "one-d", "zero-width"])
    def test_refuses_rows_that_are_not_a_matrix(self, rows):
        with pytest.raises(NoppaError):
            denoiser.fit(rows, 0)

    @pytest.mark.parametrize("rows", [
        [[1.0, 2.0], [1.0]],
        [*np.ones((denoiser._CHUNK_ROWS, 2)), np.ones(3)],
        [["a", "b"]],
        [["1", "2"], ["3", "4"], ["5", "7"]],
    ], ids=["ragged-in-chunk", "width-change-across-chunks", "not-numbers",
            "numeric-strings"])
    def test_refuses_rows_of_unequal_width_or_not_numbers(self, rows):
        # numpy's own ValueError would escape the CLI's NoppaError handler.
        with pytest.raises(NoppaError, match="^embeddings must be rows of one "
                                             "non-zero length$"):
            denoiser.fit(rows, 0)

    def test_traced_peak_does_not_grow_with_rows(self):
        """The fit keeps one chunk and R: its traced peak at 20k rows is
        within 10% of the one at 2k."""

        def peak(n):
            rng = np.random.default_rng(34)
            tracemalloc.start()
            try:
                denoiser.fit((rng.standard_normal(100) for _ in range(n)), 10)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = peak(2000), peak(20000)
        assert large <= 1.1 * small, (small, large)


class TestSmallest:
    """``fit(X, kmax).smallest(k)`` is the model ``fit(X, k)``, bit for bit."""

    @pytest.mark.parametrize("make", [
        lambda rng: rng.standard_normal((40, 12)),
        lambda rng: _rank_deficient(rng, 40, 12, 5),
        lambda rng: _rank_deficient(rng, 9, 12, 3),  # fewer rows than dim
    ], ids=["random", "rank-deficient", "wide-rank-deficient"])
    def test_bitwise_equal_to_fit_for_every_k(self, make):
        rng = np.random.default_rng(21)
        X = make(rng)
        kmax = min(X.shape)
        nested = denoiser.fit(X, kmax)
        rows = rng.standard_normal((6, X.shape[1]))
        for k in range(kmax + 1):
            got, want = nested.smallest(k), denoiser.fit(X, k)
            assert (got.k, got.dim) == (want.k, want.dim) == (k, X.shape[1])
            assert got.undetermined == want.undetermined
            np.testing.assert_array_equal(got.vk.view(np.uint64), want.vk.view(np.uint64))
            np.testing.assert_array_equal(got.singular_values.view(np.uint64),
                                          want.singular_values.view(np.uint64))
            assert (denoiser.remove(rows, got).tobytes()
                    == denoiser.remove(rows, want).tobytes())

    @pytest.mark.parametrize("k", [-1, 5])
    def test_refuses_k_outside_0_to_model_k(self, k):
        model = denoiser.fit(np.random.default_rng(22).standard_normal((10, 6)), 4)
        with pytest.raises(NoppaError, match=f"k must be in 0..4, got {k}"):
            model.smallest(k)


class TestRemove:
    def setup_method(self):
        rng = np.random.default_rng(5)
        self.X = rng.standard_normal((40, 6))
        self.model = denoiser.fit(self.X, 2)

    def remove_one(self, v):
        return denoiser.remove(np.asarray(v, dtype=np.float64)[None], self.model)[0]

    def test_k_zero_returns_input_exactly(self):
        model = denoiser.fit(self.X, 0)
        assert denoiser.remove(self.X, model) is self.X

    @pytest.mark.parametrize("shape,k", [
        ((500, 100), 20), ((300, 100), 5), ((2000, 600), 10), ((50, 8), 3),
        ((1478, 600), 24), ((600,), 10),
    ], ids=["500x100", "300x100", "2000x600", "50x8", "1478x600", "one-d"])
    def test_rows_bitwise_equal_one_row_remove_matrix(self, shape, k):
        # A single matrix product over all rows changes the last bits; remove
        # must give each row the bits it has on its own, as embed removes it.
        rng = np.random.default_rng(11)
        model = denoiser.fit(rng.standard_normal((max(shape[0], 50), shape[-1])), k)
        X = rng.standard_normal(shape)
        out = denoiser.remove(X, model)
        assert out.shape == X.shape
        for got, row in zip(np.atleast_2d(out), np.atleast_2d(X)):
            assert got.tobytes() == denoiser.remove(row, model).tobytes()
            assert got.tobytes() == denoiser.remove(row[None], model)[0].tobytes()

    def test_remove_matrix_is_remove(self):
        assert denoiser.remove_matrix is denoiser.remove

    def test_empty_rows(self):
        assert denoiser.remove(np.empty((0, 6)), self.model).shape == (0, 6)

    def test_orthogonal_vector_unchanged(self):
        rng = np.random.default_rng(6)
        v = rng.standard_normal(6)
        v -= (v @ self.model.vk.T) @ self.model.vk
        np.testing.assert_allclose(self.remove_one(v), v, atol=1e-12)

    def test_noise_row_maps_to_zero(self):
        np.testing.assert_allclose(self.remove_one(self.model.vk[0]), 0.0, atol=1e-8)

    def test_result_orthogonal_to_rows(self):
        rng = np.random.default_rng(7)
        v = rng.standard_normal(6) * 5
        out = self.remove_one(v)
        for row in self.model.vk:
            assert abs(out @ row) <= 1e-8 * np.linalg.norm(v)

    def test_idempotent(self):
        rng = np.random.default_rng(8)
        v = rng.standard_normal(6)
        once = self.remove_one(v)
        np.testing.assert_allclose(self.remove_one(once), once, atol=1e-10)

    def test_norm_non_increasing(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            v = rng.standard_normal(6) * rng.uniform(0.1, 10)
            assert np.linalg.norm(self.remove_one(v)) <= np.linalg.norm(v) + 1e-12

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(6)
        oracle = oracles.remove_projection(
            [float(x) for x in v], [list(map(float, r)) for r in self.model.vk])
        np.testing.assert_allclose(self.remove_one(v), oracle, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(NoppaError, match="dim mismatch"):
            denoiser.remove(np.ones((1, 5)), self.model)

    def test_dim_mismatch_with_k_zero(self):
        # A k = 0 model removes nothing but still has a width.
        model = denoiser.fit(np.ones((3, 10)), 0)
        with pytest.raises(NoppaError, match="dim mismatch: vectors dim 6 "
                                             "vs model dim 10"):
            denoiser.remove(np.ones((1, 6)), model)


class TestSaveLoad:
    def test_round_trip_bit_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        model = denoiser.fit(rng.standard_normal((30, 6)), 3)
        path = tmp_path / "noise.txt"
        denoiser.save(model, path)
        loaded = denoiser.load(path)
        assert loaded.k == model.k
        assert loaded.dim == model.dim
        assert loaded.vk.tobytes() == model.vk.tobytes()
        assert loaded.singular_values.tobytes() == model.singular_values.tobytes()

    def test_k_zero_round_trip(self, tmp_path):
        model = denoiser.fit(np.ones((4, 3)), 0)
        path = tmp_path / "noise.txt"
        denoiser.save(model, path)
        loaded = denoiser.load(path)
        assert loaded.k == 0
        assert loaded.dim == 3

    def test_header_format(self, tmp_path):
        model = denoiser.fit(np.eye(4), 2)
        path = tmp_path / "noise.txt"
        denoiser.save(model, path)
        header = path.read_text().splitlines()[0]
        assert header == "NOPPA-NOISE v1 k=2 dim=4"

    def test_tampered_dim_field(self, tmp_path):
        model = denoiser.fit(np.eye(4), 2)
        path = tmp_path / "noise.txt"
        denoiser.save(model, path)
        lines = path.read_text().splitlines()
        lines[0] = "NOPPA-NOISE v1 k=2 dim=5"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError):
            denoiser.load(path)

    def test_corrupted_header(self, tmp_path):
        path = tmp_path / "noise.txt"
        path.write_text("NOPPA-NOISE v2 k=1 dim=2\n0 1\n0\n")
        with pytest.raises(FormatError, match="header"):
            denoiser.load(path)

    @pytest.mark.parametrize("fields", ["k=\u0661 dim=2", "k=+1 dim=2", "k=1 dim=0_2"],
                             ids=["arabic-indic", "plus", "underscore"])
    def test_header_integers_are_ascii_digits(self, tmp_path, fields):
        # int() reads each of these as a valid k=1 dim=2 header.
        path = tmp_path / "noise.txt"
        path.write_text(f"NOPPA-NOISE v1 {fields}\n0 1\n0\n", encoding="utf-8")
        with pytest.raises(FormatError, match="corrupted header"):
            denoiser.load(path)

    def test_row_count_mismatch(self, tmp_path):
        model = denoiser.fit(np.eye(4), 2)
        path = tmp_path / "noise.txt"
        denoiser.save(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop a row
        with pytest.raises(FormatError, match="row-count mismatch"):
            denoiser.load(path)

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-inf", "1e999"])
    @pytest.mark.parametrize("line", [2, 4], ids=["row", "singular-values"])
    def test_value_not_a_finite_real_names_file_and_line(self, tmp_path, line,
                                                         value):
        path = tmp_path / "noise.txt"
        denoiser.save(denoiser.fit(np.eye(4), 2), path)
        lines = path.read_text().splitlines()
        fields = lines[line - 1].split()
        fields[1] = value
        lines[line - 1] = " ".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError) as exc:
            denoiser.load(path)
        assert str(exc.value) == (f"{path}: not a finite real at line {line}: "
                                  f"{value!r}")

    @pytest.mark.parametrize("svals", ["-5 7", "0 7", "7 -5", "1e-300 1"],
                             ids=["negative-increasing", "increasing", "negative",
                                  "tiny-increasing"])
    def test_singular_values_not_descending_non_negative(self, tmp_path, svals):
        # smallest(k) selects by position, so an unordered line would keep
        # the wrong directions.
        path = tmp_path / "noise.txt"
        path.write_text(f"NOPPA-NOISE v1 k=2 dim=2\n1 0\n0 1\n{svals}\n")
        with pytest.raises(FormatError) as exc:
            denoiser.load(path)
        assert str(exc.value) == (f"{path}: singular values at line 4 are not "
                                  f"non-negative and descending")

    def test_rows_not_orthonormal(self, tmp_path):
        path = tmp_path / "noise.txt"
        path.write_text("NOPPA-NOISE v1 k=2 dim=2\n1 0\n1e300 0\n2 1\n")
        with pytest.raises(FormatError, match="not orthonormal"):
            denoiser.load(path)

    def test_loaded_model_removes_identically(self, tmp_path):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((60, 8))
        model = denoiser.fit(X, 4)
        path = tmp_path / "noise.txt"
        denoiser.save(model, path)
        loaded = denoiser.load(path)
        np.testing.assert_allclose(denoiser.remove(X, loaded),
                                   denoiser.remove(X, model), atol=1e-10)


class TestNoiseFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(content=noise_files())
    def test_loads_or_raises_noppa_error(self, content, tmp_path_factory):
        path = tmp_path_factory.mktemp("fuzz") / "noise.txt"
        path.write_bytes(content)
        try:
            model = denoiser.load(path)
        except NoppaError as exc:
            assert "\n" not in str(exc)
            return
        assert model.vk.shape == (model.k, model.dim)
        assert np.isfinite(model.vk).all()
        assert np.isfinite(model.singular_values).all()
        assert (model.singular_values >= 0).all()
        assert (np.diff(model.singular_values) <= 0).all()
        np.testing.assert_allclose(model.vk @ model.vk.T, np.eye(model.k),
                                   atol=1e-9)
