"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s`` and in captured output on failure).  Criteria needing real
word vectors and datasets run whenever $NOPPA_DATA_DIR provides them (see
tests/test_realdata.py); their always-on twin here uses the synthetic
lexicon and corpus at the same sizes, grids, and tolerances.
"""

import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from noppa import (EncoderConfig, FrequencyTable, TokenSequence, VectorTable,
                   attention, contextual_embeddings, denoiser, encode,
                   evalkit, log_kernel, sfw, synth, tokenize)
from noppa.encoder import positional_rows

import oracles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
N_INSTANCES = 1000


def check(name, condition, detail=""):
    status = "PASS" if condition else "FAIL"
    print(f"[acceptance] {name}: {status}{' ' + detail if detail else ''}")
    assert condition, f"{name}: {detail}"


def random_world(rng, vocab=25, dim=6):
    entries = {f"w{i:03d}": rng.standard_normal(dim).astype(np.float32)
               for i in range(vocab)}
    vt = VectorTable.from_mapping(entries)
    ft = FrequencyTable.from_counts(
        {t: int(rng.integers(1, 10000)) for t in entries})
    return vt, ft


def random_tokens(rng, vt, n):
    vocab = list(vt.index)
    rows = rng.integers(0, len(vocab), n).tolist()
    return TokenSequence(tokens=[vocab[i] for i in rows], rows=rows)


class TestCriterion1Properties:
    def test_attention_row_stochastic(self):
        rng = np.random.default_rng(1001)
        worst = 0.0
        for _ in range(N_INSTANCES):
            n = int(rng.integers(1, 129))
            d = int(rng.integers(2, 17))
            att = attention(rng.standard_normal((n, d)) * rng.uniform(0.2, 3.0))
            worst = max(worst, float(np.abs(att.sum(axis=1) - 1.0).max()))
            if not (att > 0).all():
                worst = np.inf
                break
        check("C1 attention row-stochasticity (1e-9)", worst <= 1e-9,
              f"worst row-sum deviation {worst:.2e}")

    def test_log_kernel_nonnegative_symmetric(self):
        rng = np.random.default_rng(1002)
        ok = True
        for _ in range(N_INSTANCES):
            d = int(rng.integers(1, 33))
            x = rng.standard_normal(d) * rng.uniform(0.1, 20)
            y = rng.standard_normal(d) * rng.uniform(0.1, 20)
            fwd = log_kernel(x, y)
            if (fwd < 0).any() or not np.array_equal(fwd, log_kernel(y, x)):
                ok = False
                break
        check("C1 log-kernel non-negativity and symmetry", ok)

    def test_sfw_range_and_monotonicity(self):
        rng = np.random.default_rng(1003)
        ok = True
        for _ in range(N_INSTANCES):
            a = float(rng.uniform(1e-4, 2.0))
            p1, p2 = np.sort(rng.uniform(0.0, 1.0, 2))
            w1, w2 = float(sfw(p1, a)), float(sfw(p2, a))
            if not (0 < w1 <= 2.0 and 0 < w2 <= 2.0 and w1 >= w2):
                ok = False
                break
            if p1 + a / 2 < p2 + a / 2 and not w1 > w2:
                ok = False
                break
        check("C1 SFW range (0,2] and monotonicity", ok)

    def test_single_token_closed_form(self):
        rng = np.random.default_rng(1004)
        worst = 0.0
        for _ in range(N_INSTANCES):
            d = int(rng.integers(1, 13))
            vec = rng.standard_normal(d).astype(np.float32)
            vt = VectorTable.from_mapping({"tok": vec})
            p_num = int(rng.integers(0, 5000))
            ft = FrequencyTable.from_counts({"tok": p_num, "pad": 10000 - p_num}
                                            if p_num else {"pad": 10000})
            a = float(rng.uniform(0.01, 0.5))
            cfg = EncoderConfig(a=a, dim=d)
            vector = encode(tokenize("tok", vt), vt, ft, cfg)
            p = ft.get("tok")
            expected = (a / (p + a / 2)) * np.concatenate(
                [np.zeros(d), vec.astype(np.float64)])
            worst = max(worst, float(np.abs(vector - expected).max()))
        check("C1 single-token closed form", worst <= 1e-12,
              f"worst deviation {worst:.2e}")

    def test_concatenation_forms_equivalent(self):
        # the pairwise form concat(raw_i, K_ij) summed under row-stochastic
        # attention equals the per-word form concat(ctx_i, raw_i) block-swapped
        rng = np.random.default_rng(1005)
        worst = 0.0
        for _ in range(N_INSTANCES):
            vt, ft = random_world(rng, vocab=12, dim=int(rng.integers(2, 7)))
            cfg = EncoderConfig(a=0.05, dim=vt.dim)
            n = int(rng.integers(1, 8))
            toks = random_tokens(rng, vt, n)
            # Weights n * e_i make pooled row i word i's own row.
            per_word = contextual_embeddings(toks, vt, cfg, n * np.eye(n))
            raw = vt.matrix[[vt.index[t] for t in toks.tokens]].astype(np.float64)
            pv = positional_rows(raw, True)
            att = attention(pv)
            for i in range(n):
                pairwise = np.stack([
                    np.concatenate([raw[i], log_kernel(pv[i], pv[j])])
                    for j in range(n)])
                summed = att[i] @ pairwise
                engine = np.concatenate([per_word[i, cfg.dim:], per_word[i, :cfg.dim]])
                worst = max(worst, float(np.abs(summed - engine).max()))
        check("C1 concatenation equivalence (1e-12)", worst <= 1e-12,
              f"worst deviation {worst:.2e}")

    def test_permutation_invariance_positions_off(self):
        rng = np.random.default_rng(1006)
        worst = 0.0
        for _ in range(N_INSTANCES):
            vt, ft = random_world(rng, vocab=15, dim=int(rng.integers(2, 7)))
            cfg = EncoderConfig(a=0.08, dim=vt.dim, use_positions=False)
            n = int(rng.integers(1, 11))
            toks = random_tokens(rng, vt, n)
            base = encode(toks, vt, ft, cfg)
            perm = rng.permutation(n)
            shuffled = TokenSequence(tokens=[toks.tokens[i] for i in perm],
                                     rows=[toks.rows[i] for i in perm])
            other = encode(shuffled, vt, ft, cfg)
            worst = max(worst, float(np.abs(base - other).max()))
        check("C1 permutation invariance, positions off (1e-10)", worst <= 1e-10,
              f"worst deviation {worst:.2e}")

    def test_projector_properties(self):
        rng = np.random.default_rng(1007)
        worst_idem, worst_orth, worst_norm = 0.0, 0.0, 0.0
        for _ in range(N_INSTANCES):
            l = int(rng.integers(4, 25))
            dim = int(rng.integers(2, 9))
            k = int(rng.integers(0, min(l, dim) + 1))
            model = denoiser.fit(rng.standard_normal((l, dim)), k)
            v = rng.standard_normal(dim) * rng.uniform(0.1, 10)
            once = denoiser.remove_matrix(v, model)
            twice = denoiser.remove_matrix(once, model)
            worst_idem = max(worst_idem, float(np.abs(twice - once).max()))
            scale = np.linalg.norm(v)
            for row in model.vk:
                worst_orth = max(worst_orth, abs(float(once @ row)) / scale)
            worst_norm = max(worst_norm,
                             float(np.linalg.norm(once) - np.linalg.norm(v)))
        ok = worst_idem <= 1e-10 and worst_orth <= 1e-8 and worst_norm <= 1e-12
        check("C1 projector idempotence/orthogonality/norm (1e-8)", ok,
              f"idem {worst_idem:.2e}, orth {worst_orth:.2e}, norm {worst_norm:.2e}")

    def test_noise_model_round_trip(self, tmp_path):
        rng = np.random.default_rng(1008)
        path = tmp_path / "noise.txt"
        ok = True
        for _ in range(N_INSTANCES):
            l = int(rng.integers(3, 12))
            dim = int(rng.integers(2, 8))
            k = int(rng.integers(0, min(l, dim) + 1))
            model = denoiser.fit(rng.standard_normal((l, dim)), k)
            denoiser.save(model, path)
            loaded = denoiser.load(path)
            if (loaded.vk.tobytes() != model.vk.tobytes()
                    or loaded.singular_values.tobytes()
                    != model.singular_values.tobytes()
                    or loaded.dim != model.dim):
                ok = False
                break
        check("C1 noise-model save/load bit round-trip", ok)


class TestCriterion2Oracle:
    def test_scalar_pipeline_oracle(self):
        rng = np.random.default_rng(2001)
        worst_raw, worst_removed = 0.0, 0.0
        embeddings = []
        cases = []
        for _ in range(20):
            n = int(rng.integers(1, 7))
            d = int(rng.integers(2, 9))
            vt, ft = random_world(rng, vocab=10, dim=d)
            toks = random_tokens(rng, vt, n)
            a = float(rng.uniform(0.01, 0.3))
            cfg = EncoderConfig(a=a, dim=d)
            vector = encode(toks, vt, ft, cfg)
            stored = vt.matrix[[vt.index[t] for t in toks.tokens]].astype(float).tolist()
            probs = [ft.get(t) for t in toks.tokens]
            expected = oracles.sentence_embedding(stored, probs, a)
            worst_raw = max(worst_raw, float(np.abs(vector - expected).max()))
            embeddings.append((vector, d))
            cases.append(expected)
        check("C2 scalar oracle, raw embedding (1e-10)", worst_raw <= 1e-10,
              f"worst component deviation {worst_raw:.2e}")

        # projection-removal oracle on each sentence, sharing one fitted model
        # per dimensionality bucket
        by_dim = {}
        for vector, d in embeddings:
            by_dim.setdefault(d, []).append(vector)
        for d, vecs in by_dim.items():
            X = np.stack(vecs)
            k = min(2, min(X.shape))
            model = denoiser.fit(X, k)
            rows = [list(map(float, r)) for r in model.vk]
            for v, engine in zip(X, denoiser.remove(X, model)):
                oracle = oracles.remove_projection([float(x) for x in v], rows)
                worst_removed = max(worst_removed,
                                    float(np.abs(engine - oracle).max()))
        check("C2 scalar oracle, noise removal (1e-10)", worst_removed <= 1e-10,
              f"worst component deviation {worst_removed:.2e}")

    def test_qr_route_against_full_svd(self):
        rng = np.random.default_rng(2002)
        worst = 0.0
        for _ in range(20):
            X = rng.standard_normal((50, 8))
            model = denoiser.fit(X, 3)
            _, _, vt_full = np.linalg.svd(X, full_matrices=True)
            oracle_rows = vt_full[-3:]
            angle = float(subspace_angles(model.vk.T, oracle_rows.T).max())
            worst = max(worst, angle)
        check("C2 QR route vs full-SVD oracle (1e-4 rad)", worst <= 1e-4,
              f"worst subspace angle {worst:.2e} rad")


@pytest.fixture(scope="module")
def desk_run():
    """Shared synthetic desk-scale protocol for criteria 3 and 4."""
    lex = synth.make_lexicon(seed=7, dim=50)
    ds = synth.make_topic_corpus(lex, seed=11, train=2000, dev=250, test=500)
    a_grid = [0.01, 0.03, 0.05, 0.1]
    k_grid = [0, 5, 10, 15, 20]
    seeds = [1034, 1314, 20220505]
    noppa = evalkit.grid_search(ds, lex.vectors, lex.frequencies, a_grid,
                                k_grid, seeds=seeds, variant="noppa")
    baseline = evalkit.grid_search(ds, lex.vectors, lex.frequencies, [0.05],
                                   [0], seeds=seeds, variant="glove_avg")
    ce_avg = evalkit.grid_search(ds, lex.vectors, lex.frequencies, [0.05],
                                 [0], seeds=seeds, variant="ce_avg")
    return noppa, baseline, ce_avg


class TestCriterion3Downstream:
    def test_noppa_vs_unweighted_average(self, desk_run):
        noppa, baseline, _ = desk_run
        gap = noppa.test_mean - baseline.test_mean
        detail = (f"noppa {noppa.test_mean:.2f} (a={noppa.best_a:g}, "
                  f"k={noppa.best_k}) vs glove_avg {baseline.test_mean:.2f}, "
                  f"gap {gap:+.2f} pts [synthetic desk twin]")
        if gap < 0:
            warnings.warn(f"inconclusive: NoPPA below baseline by {-gap:.2f} "
                          f"pts (within the 0.5 pt tolerance)")
        check("C3 desk-scale ordering NoPPA >= baseline - 0.5", gap >= -0.5, detail)


class TestCriterion4Ablation:
    def test_noppa_vs_ce_avg(self, desk_run):
        noppa, _, ce_avg = desk_run
        gap = noppa.test_mean - ce_avg.test_mean
        detail = (f"noppa {noppa.test_mean:.2f} vs ce_avg "
                  f"{ce_avg.test_mean:.2f}, gap {gap:+.2f} pts")
        check("C4 ablation ordering NoPPA >= CE-avg - 0.5", gap >= -0.5, detail)


class TestCriterion5Scaling:
    def test_quadratic_encode_and_flat_denoise(self, tmp_path):
        # single-core benchmark protocol: BLAS worker threads pinned to 1 in
        # a fresh process, otherwise their busy-wait after each attention
        # matmul distorts the elementwise kernel timings on small machines
        rng = np.random.default_rng(5001)
        vec_path = tmp_path / "vectors.txt"
        with open(vec_path, "w") as fh:
            for i in range(500):
                vals = " ".join(f"{v:.6f}" for v in rng.standard_normal(300))
                fh.write(f"v{i:04d} {vals}\n")
        freq_path = tmp_path / "freq.txt"
        with open(freq_path, "w") as fh:
            for i in range(500):
                fh.write(f"v{i:04d}\t{int(rng.integers(1, 10000))}\n")
        env = dict(os.environ)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            env[var] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "noppa.cli", "bench",
             "--vectors", str(vec_path), "--freq", str(freq_path),
             "--scale-n", "64"],
            capture_output=True, text=True, env=env, timeout=280)
        assert proc.returncode == 0, proc.stderr
        # bench prints the machine line and the probe line, nothing else.
        lines = proc.stdout.splitlines()
        assert proc.stdout.endswith("\n") and len(lines) == 2, proc.stdout
        assert lines[0].startswith("machine: "), proc.stdout
        assert lines[1].startswith("scaling probe (n=64 vs 128, 1000 sentences): "), \
            proc.stdout
        match = re.search(r"encode .*?\(ratio ([0-9.]+)\); denoise .*?"
                          r"\(ratio ([0-9.]+)\)", proc.stdout)
        assert match, f"unparseable bench output: {proc.stdout!r}"
        ratio = float(match.group(1))
        dratio = float(match.group(2))
        detail = proc.stdout.strip().splitlines()[-1]
        check("C5 encode time ratio n=128/64 in [3,5]", 3.0 <= ratio <= 5.0, detail)
        check("C5 denoise time independent of n (20%)",
              abs(dratio - 1.0) <= 0.2, detail)


class TestCriterion6WeightCurves:
    def test_synthetic_group_separation(self):
        from noppa import analysis
        # exact probabilities: stop 0.05, meaningful 1e-4
        ft = FrequencyTable.from_counts({"stopper": 500, "meaning": 1,
                                         "pad": 9499})
        assert ft.get("stopper") == 0.05 and ft.get("meaning") == 1e-4
        a_grid = [1.0, 0.1, 0.01, 0.001]
        curve = analysis.weight_curve(
            {"stopwords": ["stopper"], "meaningful": ["meaning"]}, ft, a_grid)
        stop = curve.group_means["stopwords"]
        meaning = curve.group_means["meaningful"]
        ordered = all(m >= s for m, s in zip(meaning, stop))
        gaps = {a: m - s for a, m, s in zip(curve.a_values, meaning, stop)}
        best_a = max(gaps, key=gaps.get)
        detail = (f"gaps {' '.join(f'a={a:g}:{g:.3f}' for a, g in gaps.items())}; "
                  f"max at a={best_a:g}")
        check("C6 meaningful >= stopwords at every a", ordered, detail)
        check("C6 gap maximal within a in [0.001, 0.1]",
              0.001 <= best_a <= 0.1, detail)


class TestCriterion7FullScale:
    def test_extended_run_script_present(self):
        # full eight-task reproduction is beyond desk scale by design; the
        # extended-run script must exist, compile, and describe its targets
        path = os.path.join(ROOT, "scripts", "full_sst2.py")
        exists = os.path.exists(path)
        compiles = False
        documents = False
        if exists:
            proc = subprocess.run([sys.executable, "-m", "py_compile", path],
                                  capture_output=True)
            compiles = proc.returncode == 0
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
            documents = "84.1" in text and "tokeniz" in text.lower()
        check("C7 extended full-scale run script available",
              exists and compiles and documents,
              f"exists={exists} compiles={compiles} documents-targets={documents}")
