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
        np.testing.assert_array_equal(denoiser.remove_matrix(X, model), X)

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

    def test_rows_bitwise_equal_one_row_remove_matrix(self):
        # A single product over all rows changes the last bits; remove must not.
        rng = np.random.default_rng(11)
        X = rng.standard_normal((300, 60))
        model = denoiser.fit(X, 10)
        out = denoiser.remove(X, model)
        assert out.shape == X.shape
        for got, row in zip(out, X):
            assert got.tobytes() == denoiser.remove_matrix(row, model).tobytes()

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
        np.testing.assert_allclose(denoiser.remove_matrix(X, loaded),
                                   denoiser.remove_matrix(X, model), atol=1e-10)


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
        np.testing.assert_allclose(model.vk @ model.vk.T, np.eye(model.k),
                                   atol=1e-9)
