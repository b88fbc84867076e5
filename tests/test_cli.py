import contextlib
import io
import logging
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings

import noppa
from noppa import (EncoderConfig, NoppaError, Pipeline, denoiser, evalkit,
                   lexicon, load_frequencies, load_vectors)
from noppa.cli import main

from file_strategies import dataset_files, frequency_files, noise_files


@pytest.fixture
def world(tmp_path):
    rng = np.random.default_rng(55)
    words = ["the", "girl", "eats", "a", "cake", "dog", "runs", "fast",
             "blue", "sky", ",", "."]
    vec_path = tmp_path / "vectors.txt"
    with open(vec_path, "w") as fh:
        for w in words:
            vals = " ".join(f"{v:.6f}" for v in rng.standard_normal(5))
            fh.write(f"{w} {vals}\n")
    freq_path = tmp_path / "freq.txt"
    with open(freq_path, "w") as fh:
        for i, w in enumerate(words):
            fh.write(f"{w}\t{(i + 1) * 37}\n")
    sent_path = tmp_path / "sentences.txt"
    base = ["the girl eats a cake",
            "a dog runs fast",
            "the blue sky , the cake .",
            "girl eats cake",
            "the dog eats the cake"]
    extra = [f"{a} {b} {c}" for a, b, c in
             zip(words[0:10], words[2:12], reversed(words[1:11]))]
    sent_path.write_text("\n".join(base + extra) + "\n")
    return tmp_path, str(vec_path), str(freq_path), str(sent_path)


def run(argv):
    return main(argv)


class TestEmbed:
    def test_csv_shape(self, world, capsys):
        tmp, vec, freq, sent = world
        out = tmp / "emb.csv"
        assert run(["embed", "--vectors", vec, "--freq", freq,
                    "--out", str(out), sent]) == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 15
        assert all(len(r.split(",")) == 10 for r in rows)

    def test_all_oov_line_nan_and_warning(self, world, capsys):
        tmp, vec, freq, _ = world
        sent = tmp / "oov.txt"
        sent.write_text("the girl\nzzzz qqqq\ncake\n")
        out = tmp / "emb.csv"
        assert run(["embed", "--vectors", vec, "--freq", freq,
                    "--out", str(out), str(sent)]) == 0
        rows = out.read_text().strip().splitlines()
        assert rows[1] == ",".join(["nan"] * 10)
        err = capsys.readouterr().err
        assert "line 2" in err

    def test_missing_vectors_exit_2(self, world, capsys):
        tmp, _, freq, sent = world
        assert run(["embed", "--vectors", str(tmp / "nope.txt"),
                    "--freq", freq, sent]) == 2

    def test_byte_identical_reruns(self, world):
        tmp, vec, freq, sent = world
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp / name
            assert run(["embed", "--vectors", vec, "--freq", freq,
                        "--out", str(out), sent]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("with_noise", [True, False],
                             ids=["noise-model", "no-noise-model"])
    def test_noise_model_rows_match_pipeline_embed_bitwise(self, world, with_noise):
        tmp, vec, freq, sent = world
        noise = tmp / "noise.txt"
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "2",
                    "--out", str(noise), sent]) == 0
        lines = (tmp / "sentences.txt").read_text().splitlines()
        lines.insert(3, "zzzz qqqq")  # all out of vocabulary
        mixed = tmp / "mixed.txt"
        mixed.write_text("\n".join(lines) + "\n")
        out = tmp / "emb.csv"
        noise_flag = ["--noise-model", str(noise)] if with_noise else []
        assert run(["embed", "--vectors", vec, "--freq", freq, *noise_flag,
                    "--out", str(out), str(mixed)]) == 0
        pipe = Pipeline(vectors=load_vectors(vec), frequencies=load_frequencies(freq),
                        config=EncoderConfig(a=0.05, dim=5),
                        noise=denoiser.load(noise) if with_noise else None)
        rows = out.read_text().splitlines()
        assert len(rows) == len(lines)
        for i, (line, row) in enumerate(zip(lines, rows)):
            values = np.array([float(v) for v in row.split(",")])
            if i == 3:
                assert np.isnan(values).all()
            else:
                assert values.tobytes() == pipe.embed(line)[1].tobytes()

    @pytest.mark.parametrize("with_noise", [True, False],
                             ids=["noise-model", "no-noise-model"])
    def test_stdout_and_out_are_repr_of_embed_lines_rows(self, world, capsys,
                                                         with_noise):
        tmp, vec, freq, sent = world
        noise = tmp / "noise.txt"
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "2",
                    "--out", str(noise), sent]) == 0
        # 70 lines, more than one chunk of the CSV writer holds; line 66 is
        # all out of vocabulary and line 67 has a single token.
        lines = (tmp / "sentences.txt").read_text().splitlines() * 5
        lines[65:67] = ["zzzz qqqq", "cake"]
        many = tmp / "many.txt"
        many.write_text("\n".join(lines) + "\n")
        out = tmp / "emb.csv"
        noise_flag = ["--noise-model", str(noise)] if with_noise else []
        argv = ["embed", "--vectors", vec, "--freq", freq, *noise_flag]
        capsys.readouterr()
        assert run(argv + ["--out", str(out), str(many)]) == 0
        assert capsys.readouterr() == ("", "warning: line 66 produced no embeddable tokens\n")
        assert run(argv + [str(many)]) == 0
        stdout = capsys.readouterr().out

        pipe = Pipeline(vectors=load_vectors(vec), frequencies=load_frequencies(freq),
                        config=EncoderConfig(a=0.05, dim=5),
                        noise=denoiser.load(noise) if with_noise else None)
        vectors = list(pipe.embed_lines(lines))
        assert [i for i, row in enumerate(vectors) if row is None] == [65]
        expected = "".join(",".join(map(repr, [math.nan] * 10 if row is None
                                            else row.tolist())) + "\n"
                           for row in vectors)
        assert out.read_bytes() == expected.encode()
        assert stdout == expected
        contextual = expected.splitlines()[66].split(",")[:5]
        assert (contextual == ["0.0"] * 5) != with_noise

    @pytest.mark.parametrize("target", ["stdout", "--out"])
    def test_rows_are_written_as_lines_are_embedded(self, world, monkeypatch,
                                                    target):
        tmp, vec, freq, _ = world
        lines = (tmp / "sentences.txt").read_text().splitlines() * 3  # 45 lines
        many = tmp / "many.txt"
        many.write_text("\n".join(lines) + "\n")
        out, stdout = tmp / "emb.csv", io.StringIO()

        def written():
            text = out.read_text() if target == "--out" else stdout.getvalue()
            return text.count("\n")

        seen = []  # CSV lines written when each line is embedded
        embed = Pipeline.embed

        def recording_embed(self, raw, *args, **kwargs):
            seen.append(written())
            return embed(self, raw, *args, **kwargs)

        monkeypatch.setattr(Pipeline, "embed", recording_embed)
        out_flag = ["--out", str(out)] if target == "--out" else []
        with contextlib.redirect_stdout(stdout):
            assert run(["embed", "--vectors", vec, "--freq", freq, *out_flag,
                        str(many)]) == 0
        # line 17 is embedded after the first 16 rows are written, and so on
        assert seen == [16 * (i // 16) for i in range(len(lines))]
        assert written() == len(lines)

    def test_empty_input_writes_nothing(self, world, capsys):
        tmp, vec, freq, _ = world
        empty = tmp / "empty.txt"
        empty.write_text("")
        out = tmp / "emb.csv"
        argv = ["embed", "--vectors", vec, "--freq", freq]
        capsys.readouterr()
        assert run(argv + [str(empty)]) == 0
        assert run(argv + ["--out", str(out), str(empty)]) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_bytes() == b""

    def test_data_dir_env_fallback(self, world, monkeypatch):
        tmp, vec, freq, sent = world
        monkeypatch.setenv("NOPPA_DATA_DIR", str(tmp))
        out = tmp / "env.csv"
        assert run(["embed", "--vectors", "vectors.txt", "--freq", "freq.txt",
                    "--out", str(out), "sentences.txt"]) == 0
        assert out.exists()

    @pytest.mark.parametrize("k", [0, 1, 3, 4])
    def test_k_applies_the_smallest_directions(self, world, capsys, k):
        # embed -k K with a k=4 model gives the bytes of embed with the model
        # fitted at K on the same lines.
        tmp, vec, freq, sent = world
        tables = ["--vectors", vec, "--freq", freq]
        for fitted in {4, k}:
            assert run(["fit-noise", *tables, "-k", str(fitted),
                        "--out", str(tmp / f"noise{fitted}.txt"), sent]) == 0
        capsys.readouterr()
        assert run(["embed", *tables, "--noise-model", str(tmp / "noise4.txt"),
                    "-k", str(k), sent]) == 0
        selected = capsys.readouterr()
        assert run(["embed", *tables, "--noise-model", str(tmp / f"noise{k}.txt"),
                    sent]) == 0
        assert capsys.readouterr() == selected

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize("case", ["above-model-k", "no-model"])
    def test_k_refused_before_out(self, world, capsys, case, existing):
        tmp, vec, freq, sent = world
        tables = ["--vectors", vec, "--freq", freq]
        noise, out = tmp / "noise.txt", tmp / "out.csv"
        assert run(["fit-noise", *tables, "-k", "4", "--out", str(noise), sent]) == 0
        if existing:
            out.write_bytes(b"kept\n")
        argv, message = {
            "above-model-k": (["--noise-model", str(noise), "-k", "5"],
                              "k must be in 0..4, got 5"),
            "no-model": (["-k", "1"], "k=1 but no --noise-model"),
        }[case]
        capsys.readouterr()
        assert run(["embed", *tables, *argv, "--out", str(out), sent]) == 3
        _one_line_error(capsys, message)
        if existing:
            assert out.read_bytes() == b"kept\n"
        else:
            assert not out.exists()

    def test_range_guard_exit_3(self, world):
        tmp, vec, freq, sent = world
        assert run(["embed", "--vectors", vec, "--freq", freq,
                    "-a", "0.9", sent]) == 3
        out = tmp / "wide.csv"
        assert run(["embed", "--vectors", vec, "--freq", freq, "-a", "0.9",
                    "--unsafe-ranges", "--out", str(out), sent]) == 0


class TestFitNoise:
    def test_writes_model(self, world):
        tmp, vec, freq, sent = world
        out = tmp / "noise.txt"
        assert run(["fit-noise", "--vectors", vec, "--freq", freq,
                    "-k", "2", "--out", str(out), sent]) == 0
        model = denoiser.load(out)
        assert model.k == 2
        assert model.dim == 10

    def test_missing_out_is_a_usage_error(self, world, capsys):
        _, vec, freq, sent = world
        with pytest.raises(SystemExit) as exc:
            run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "2", sent])
        assert exc.value.code == 64
        assert "the following arguments are required: --out" in capsys.readouterr().err

    @staticmethod
    def _warning(open_, k):
        return f"warning: {open_} of the {k} noise directions are not determined by the data\n"

    def test_fewer_sentences_than_dimensions_warns(self, world, capsys):
        # 3 sentences in D = 10: rank 3, so the 2 smallest singular values
        # are 0 and the data leave those directions open.
        tmp, vec, freq, sent = world
        few = tmp / "few.txt"
        few.write_text("the girl eats a cake\na dog runs fast\nthe blue sky\n")
        out = tmp / "noise.txt"
        capsys.readouterr()
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "2",
                    "--out", str(out), str(few)]) == 0
        assert capsys.readouterr().err == self._warning(2, 2)
        np.testing.assert_allclose(denoiser.load(out).singular_values, 0, atol=1e-6)
        # 15 sentences of full rank: no warning.
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "2",
                    "--out", str(out), sent]) == 0
        assert capsys.readouterr().err == ""

    def test_repeated_sentences_warn_with_more_sentences_than_dimensions(
            self, world, capsys):
        # 4 distinct sentences, each 3 times: N = 12 >= D = 10 but rank 4,
        # so all 3 retained directions lie in the data's null space.
        tmp, vec, freq, _ = world
        repeated = tmp / "repeated.txt"
        repeated.write_text("the girl eats a cake\na dog runs fast\n"
                            "the blue sky\ngirl eats cake\n" * 3)
        out = tmp / "noise.txt"
        capsys.readouterr()
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "3",
                    "--out", str(out), str(repeated)]) == 0
        assert capsys.readouterr().err == self._warning(3, 3)
        np.testing.assert_allclose(denoiser.load(out).singular_values, 0, atol=1e-12)

    @pytest.mark.parametrize("n,k,open_", [(9, 3, 1), (3, 0, None), (10, 2, None)],
                             ids=["fewer-than-k-open", "k-zero", "n-equals-d"])
    def test_null_space_warning(self, world, capsys, n, k, open_):
        # The warning names the min(k, D - rank) retained directions with a
        # zero singular value; only fits with k >= 1 and rank < D = 10 warn.
        tmp, vec, freq, _ = world
        lines = (tmp / "sentences.txt").read_text().splitlines(True)
        first = tmp / "first.txt"
        first.write_text("".join(lines[:n]))
        out = tmp / "noise.txt"
        capsys.readouterr()
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", str(k),
                    "--out", str(out), str(first)]) == 0
        err = capsys.readouterr().err
        if open_ is None:
            assert err == ""
        else:
            assert err == self._warning(open_, k)
            assert np.sum(denoiser.load(out).singular_values < 1e-12) == open_

    def test_help_names_the_model_file(self, capsys):
        # --out is required: the help must not offer stdout as its default.
        with pytest.raises(SystemExit) as exc:
            run(["fit-noise", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert re.search(r"^  --out OUT +noise-model file to write$", out, re.M), out
        assert "stdout" not in out

    def test_infeasible_k_exit_3(self, world):
        tmp, vec, freq, sent = world
        out = tmp / "noise.txt"
        assert run(["fit-noise", "--vectors", vec, "--freq", freq,
                    "-k", "11", "--unsafe-ranges", "--out", str(out), sent]) == 3

    @pytest.mark.parametrize("text,k,message", [
        ("zebra quokka\n\nunknown words\n", 0, "k=0 but no sentences to fit"),
        ("the girl eats a cake\nzebra\na dog runs fast\n", 3,
         "k=3 exceeds min(sentences, dim) = 2"),
    ], ids=["no-sentence-embeds", "k-above-sentences"])
    def test_too_few_sentences_exit_3(self, world, capsys, text, k, message):
        # The fit's own refusal: one line, and no model file written.
        tmp, vec, freq, _ = world
        few = tmp / "few.txt"
        few.write_text(text)
        out = tmp / "noise.txt"
        capsys.readouterr()
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", str(k),
                    "--out", str(out), str(few)]) == 3
        _one_line_error(capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize("sub", ["fit-noise", "embed"])
    def test_negative_k_exit_1(self, world, capsys, sub):
        # --unsafe-ranges skips the range check, not the k >= 0 rule.
        tmp, vec, freq, sent = world
        out = tmp / "out.txt"
        capsys.readouterr()
        assert run([sub, "--vectors", vec, "--freq", freq, "-k", "-1",
                    "--unsafe-ranges", "--out", str(out), sent]) == 1
        _one_line_error(capsys, "k must be >= 0, got -1")
        assert not out.exists()

    def test_negative_k_refused_before_loading(self, world, capsys):
        tmp, _, freq, sent = world
        capsys.readouterr()
        assert run(["fit-noise", "--vectors", str(tmp / "nope.txt"), "--freq", freq,
                    "-k", "-1", "--unsafe-ranges", "--out", str(tmp / "out.txt"),
                    sent]) == 1
        _one_line_error(capsys, "k must be >= 0, got -1")

    def test_noise_model_changes_embeddings_by_projection(self, world):
        tmp, vec, freq, sent = world
        noise = tmp / "noise.txt"
        run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "2",
             "--out", str(noise), sent])
        plain = tmp / "plain.csv"
        removed = tmp / "removed.csv"
        run(["embed", "--vectors", vec, "--freq", freq, "--out", str(plain), sent])
        run(["embed", "--vectors", vec, "--freq", freq,
             "--noise-model", str(noise), "--out", str(removed), sent])
        model = denoiser.load(noise)
        raw = np.loadtxt(plain, delimiter=",")
        cleaned = np.loadtxt(removed, delimiter=",")
        # rows differ exactly by the projection onto the noise rows
        expected = raw - (raw @ model.vk.T) @ model.vk
        np.testing.assert_allclose(cleaned, expected, atol=1e-10)
        assert not np.allclose(raw, cleaned)


def _python(*args):
    """Run a fresh interpreter that imports this checkout's noppa."""
    src = os.path.dirname(os.path.dirname(noppa.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def _one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    for fragment in fragments:
        assert fragment in err


class TestBadFiles:
    @pytest.mark.parametrize("which", ["vectors", "freq", "sentences", "noise"])
    def test_non_utf8_input_names_file_and_line(self, world, capsys, which):
        tmp, vec, freq, sent = world
        paths = {"vectors": vec, "freq": freq, "sentences": sent,
                 "noise": str(tmp / "noise.txt")}
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "2",
                    "--out", paths["noise"], sent]) == 0
        with open(paths[which], "rb") as fh:
            lines = fh.read().split(b"\n")
        lines[2] = b"caf\xe9" + lines[2]  # Latin-1, not UTF-8
        with open(paths[which], "wb") as fh:
            fh.write(b"\n".join(lines))
        capsys.readouterr()
        assert run(["embed", "--vectors", vec, "--freq", freq, "--noise-model",
                    paths["noise"], sent]) == 1
        _one_line_error(capsys, paths[which], "line 3")

    @pytest.mark.parametrize("which", ["vectors", "freq", "sentences", "noise"])
    def test_byte_order_mark_is_not_part_of_the_first_token(self, world, capsys,
                                                             which):
        # The mark would glue itself to the file's first token: "the" would
        # lose its vector, its frequency or its place in line 1, and the
        # noise model's header would not parse.
        tmp, vec, freq, sent = world
        paths = {"vectors": vec, "freq": freq, "sentences": sent,
                 "noise": str(tmp / "noise.txt")}
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "2",
                    "--out", paths["noise"], sent]) == 0
        argv = ["embed", "--vectors", vec, "--freq", freq, "--noise-model",
                paths["noise"], sent]
        capsys.readouterr()
        assert run(argv) == 0
        plain = capsys.readouterr()
        with open(paths[which], "rb") as fh:
            data = fh.read()
        with open(paths[which], "wb") as fh:
            fh.write(b"\xef\xbb\xbf" + data)
        assert run(argv) == 0
        assert capsys.readouterr() == plain

    def test_byte_order_mark_in_dataset(self, tmp_path):
        rows = [f"{i % 2}\tgirl eats cake {i}" for i in range(20)]
        plain, marked = tmp_path / "plain.tsv", tmp_path / "marked.tsv"
        plain.write_text("\n".join(rows) + "\n", encoding="utf-8")
        marked.write_text("\ufeff" + "\n".join(rows) + "\n", encoding="utf-8")
        assert evalkit.load_dataset("toy", marked) == evalkit.load_dataset("toy", plain)

    def test_non_utf8_dataset_names_file_and_line(self, world, capsys):
        tmp, vec, freq, _ = world
        ds = tmp / "toy.tsv"
        ds.write_bytes(b"1\tgirl eats cake\n0\tdog runs fast\n1\tcaf\xe9 cake\n")
        assert run(["eval", "--vectors", vec, "--freq", freq, "--a-grid", "0.05",
                    "--k-grid", "0", str(ds)]) == 1
        _one_line_error(capsys, str(ds), "line 3")

    @pytest.mark.parametrize("which", ["--vectors", "--freq", "--noise-model",
                                       "sentences"])
    def test_directory_input_exit_2(self, world, capsys, which):
        tmp, vec, freq, sent = world
        inputs = {"--vectors": vec, "--freq": freq, "sentences": sent}
        inputs[which] = str(tmp)
        argv = ["embed", "--vectors", inputs["--vectors"], "--freq", inputs["--freq"]]
        if which == "--noise-model":
            argv += ["--noise-model", str(tmp)]
        assert run(argv + [inputs["sentences"]]) == 2
        _one_line_error(capsys, "is a directory", str(tmp))

    @pytest.mark.parametrize("sub", ["embed", "fit-noise"])
    @pytest.mark.parametrize("target", ["missing-parent", "directory"])
    def test_unwritable_out_exit_1(self, world, capsys, sub, target):
        tmp, vec, freq, sent = world
        out = tmp / "nope" / "out.txt" if target == "missing-parent" else tmp
        assert run([sub, "--vectors", vec, "--freq", freq,
                    "--out", str(out), sent]) == 1
        _one_line_error(capsys, str(out))

    def test_float32_overflow_is_one_line(self, world):
        # numpy warns on stderr when a component overflows float32; run a
        # real process so that nothing captures the warning before stderr
        tmp, _, freq, sent = world
        vec = tmp / "overflow.txt"
        vec.write_text("a 1 2\nb 1e40 2\n")
        proc = _python("-m", "noppa.cli", "embed", "--vectors", str(vec),
                       "--freq", freq, sent)
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == [
            f"error: {vec}: non-finite vector at line 2"], proc.stderr


class TestVectorCache:
    def _outputs(self, world, capsys):
        """Exit code, stdout and stderr of fit-noise, embed (with and without
        a noise model), attention, contrib and eval, and the files written."""
        tmp, vec, freq, sent = world
        noise, plain, removed = (tmp / n for n in ("n.txt", "p.csv", "r.csv"))
        dataset = tmp / "toy.tsv"
        dataset.write_text("".join(f"{i % 2}\t{'girl eats cake' if i % 2 else 'dog runs'}"
                                   f" x{i}\n" for i in range(40)))
        tables = ["--vectors", vec, "--freq", freq]
        commands = [
            ["fit-noise", *tables, "-k", "2", "--out", str(noise), sent],
            ["embed", *tables, "--out", str(plain), sent],
            ["embed", *tables, "--noise-model", str(noise), "--out", str(removed),
             sent],
            ["attention", "--vectors", vec, "the girl eats a cake"],
            ["contrib", *tables, "--noise-model", str(noise), "the girl eats cake"],
            ["eval", *tables, "--a-grid", "0.05", "--k-grid", "0,2", "--seeds", "1",
             str(dataset)],
        ]
        capsys.readouterr()
        results = []
        for argv in commands:
            results.append((run(argv), *capsys.readouterr()))
        assert [r[0] for r in results] == [0] * len(commands)
        return results + [p.read_bytes() for p in (noise, plain, removed)]

    def _entry(self, vector_cache):
        entries = list(vector_cache.glob("vectors-v*"))
        assert len(entries) == 1
        return entries[0]

    def test_miss_and_hit_outputs_byte_identical(self, world, vector_cache,
                                                 capsys, monkeypatch):
        miss = self._outputs(world, capsys)  # the first load parses and writes
        self._entry(vector_cache)
        hashed = self._outputs(world, capsys)  # too fresh for a stamp: hashed
        assert not (vector_cache / "stamps").exists()
        # As if the file last changed a minute ago: hash hits leave a stamp,
        # and every load after them trusts it.
        monkeypatch.setattr(lexicon, "STAMP_MARGIN_NS", -60 * 10**9)
        self._outputs(world, capsys)

        def refuse(*args, **kwargs):
            raise AssertionError("a stamped file was hashed or parsed")

        monkeypatch.setattr(lexicon, "_hash_file", refuse)
        monkeypatch.setattr(lexicon, "_parse_vectors", refuse)
        stamped = self._outputs(world, capsys)
        assert miss == hashed == stamped

    @pytest.mark.parametrize("damage", ["truncated-matrix", "extra-token"])
    def test_corrupted_entry_exit_1(self, world, vector_cache, capsys, damage):
        tmp, vec, freq, sent = world
        assert run(["embed", "--vectors", vec, "--freq", freq, sent]) == 0
        entry = self._entry(vector_cache)
        if damage == "truncated-matrix":
            data = (entry / "matrix.npy").read_bytes()
            (entry / "matrix.npy").write_bytes(data[:len(data) - 8])
        else:
            with open(entry / "tokens.txt", "a", encoding="utf-8") as fh:
                fh.write("\nextra")
        capsys.readouterr()
        assert run(["embed", "--vectors", vec, "--freq", freq, sent]) == 1
        _one_line_error(capsys, "corrupted vector cache entry", str(entry))

    def test_unwritable_cache_root_same_bytes(self, world, vector_cache,
                                              monkeypatch, capsys):
        cached = self._outputs(world, capsys)
        blocker = world[0] / "not-a-dir"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        assert self._outputs(world, capsys) == cached


class TestStartupFileFuzz:
    """``noppa embed`` on generated frequency and noise-model files."""

    WORDS = ["the", "girl", "eats", "a", "cake", "dog"]

    @settings(max_examples=100, deadline=None)
    @given(freq=frequency_files(), noise=noise_files(dim=8))
    def test_exit_0_or_one_error_line(self, freq, noise, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        rng = np.random.default_rng(0)
        vec = tmp / "vectors.txt"
        vec.write_text("".join(f"{w} {' '.join(map(str, rng.standard_normal(4)))}\n"
                               for w in self.WORDS))
        sent = tmp / "sentences.txt"
        sent.write_text("the girl eats a cake\nzzz\na dog\n")
        (tmp / "freq.txt").write_bytes(freq)
        (tmp / "noise.txt").write_bytes(noise)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run(["embed", "--vectors", str(vec), "--freq", str(tmp / "freq.txt"),
                        "--noise-model", str(tmp / "noise.txt"), str(sent)])
        assert not caught, [str(w.message) for w in caught]
        lines = err.getvalue().splitlines()
        if code == 1:
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
        else:
            assert code == 0
            assert lines == ["warning: line 2 produced no embeddable tokens"]
            rows = out.getvalue().splitlines()
            assert len(rows) == 3 and "nan" not in rows[0] + rows[2]


class TestImports:
    def test_cli_import_leaves_eval_modules_and_hashlib_unloaded(self):
        proc = _python("-c", "import sys, noppa.cli; print(sorted(m for m in "
                       "('noppa.evalkit', 'noppa.analysis', 'noppa.synth', "
                       "'noppa.bench', 'hashlib') if m in sys.modules))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"

    def test_bench_leaves_evalkit_unloaded(self, world):
        _, vec, freq, sent = world
        proc = _python("-c", "import sys, contextlib, io\n"
                       "from noppa.cli import main\n"
                       "with contextlib.redirect_stdout(io.StringIO()):\n"
                       f"    code = main(['bench', '--vectors', {vec!r}, '--freq', "
                       f"{freq!r}, '--scale-n', '1'])\n"
                       "print(code, 'noppa.evalkit' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "0 False\n"

    def test_lazy_submodules_still_import(self):
        proc = _python("-c", "import noppa; from noppa import evalkit; "
                       "print(evalkit.__name__, noppa.synth.__name__, "
                       "noppa.analysis.__name__)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "noppa.evalkit noppa.synth noppa.analysis\n"
        proc = _python("-c", "import noppa; noppa.nothing")
        assert proc.stderr.splitlines()[-1] == (
            "AttributeError: module 'noppa' has no attribute 'nothing'")

    def test_star_import_resolves_every_exported_name(self):
        # A name left in __all__ after its definition is gone fails the
        # star import; the lazy submodules load through it too.
        proc = _python("-c", "import noppa\n"
                       "from noppa import *\n"
                       "names = noppa.__all__\n"
                       "print(len(names) > 0, [n for n in names\n"
                       "                       if globals().get(n) is not getattr(noppa, n)])")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "True []\n"


class TestAnalysisCommands:
    def test_attention_csv(self, world, capsys):
        _, vec, _, _ = world
        assert run(["attention", "--vectors", vec, "the girl eats a cake"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# use_positions=True\n# vectors=sha256:")
        assert "girl" in out.splitlines()[3]
        assert run(["attention", "--vectors", vec, "--no-positions", "the"]) == 0
        assert capsys.readouterr().out.startswith("# use_positions=False\n")

    def test_attention_all_oov(self, world, capsys):
        _, vec, _, _ = world
        capsys.readouterr()
        assert run(["attention", "--vectors", vec, "zzz qqq"]) == 1
        _one_line_error(capsys, "empty after filtering")

    def test_contrib_csv(self, world, capsys):
        _, vec, freq, _ = world
        assert run(["contrib", "--vectors", vec, "--freq", freq,
                    "the girl eats cake"]) == 0
        out = capsys.readouterr().out
        assert "token,score" in out

    @pytest.mark.parametrize("sub", ["contrib"])
    def test_header_k_is_the_applied_models(self, sub, world, capsys):
        tmp, vec, freq, sent = world
        tables = ["--vectors", vec, "--freq", freq]
        assert run([sub, *tables, "the girl eats cake"]) == 0
        assert capsys.readouterr().out.startswith("# a=0.05 k=0 use_positions=True\n")
        noise = tmp / "noise.txt"
        assert run(["fit-noise", *tables, "-k", "2", "--out", str(noise), sent]) == 0
        assert run([sub, *tables, "--noise-model", str(noise),
                    "the girl eats cake"]) == 0
        assert capsys.readouterr().out.startswith("# a=0.05 k=2 use_positions=True\n")

    @pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
    @pytest.mark.parametrize("sub", ["embed", "contrib"])
    def test_noise_model_dim_mismatch_before_out(self, sub, existing, world, capsys):
        tmp, vec, freq, sent = world
        noise = tmp / "noise6.txt"
        denoiser.save(denoiser.fit(np.eye(6), 1), noise)
        out = tmp / "out.csv"
        if existing:
            out.write_bytes(b"kept\n")
        target = sent if sub == "embed" else "the girl eats cake"
        capsys.readouterr()
        assert run([sub, "--vectors", vec, "--freq", freq, "--noise-model",
                    str(noise), "--out", str(out), target]) == 1
        _one_line_error(capsys, "dim mismatch: vectors dim 10 vs model dim 6")
        if existing:
            assert out.read_bytes() == b"kept\n"
        else:
            assert not out.exists()

    def test_weight_curve(self, world, capsys):
        _, _, freq, _ = world
        assert run(["weight-curve", "--freq", freq,
                    "--group", "stop=the,a", "--group", "content=girl,cake",
                    "--a-grid", "1,0.1,0.01"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[1] == "a,stop,content"


class TestEvalAndBench:
    def test_eval_single_point(self, world, tmp_path, capsys):
        tmp, vec, freq, _ = world
        rows = []
        for i in range(80):
            label = i % 2
            words = "girl eats cake" if label else "dog runs fast"
            rows.append(f"{label}\t{words} {'the' if i % 3 else 'a'} line{i}")
        ds = tmp_path / "toy.tsv"
        ds.write_text("\n".join(rows) + "\n")
        log = tmp_path / "runs.log"
        assert run(["eval", "--vectors", vec, "--freq", freq,
                    "--name", "toy", "--a-grid", "0.05", "--k-grid", "0",
                    "--seeds", "3", "--log", str(log), str(ds)]) == 0
        out = capsys.readouterr().out
        assert "dev-best config" in out
        assert "±" in out
        assert len(log.read_text().strip().splitlines()) == 1

    def test_negative_k_exit_1(self, world, tmp_path, capsys):
        _, vec, freq, _ = world
        ds = tmp_path / "toy.tsv"
        ds.write_text("".join(f"{i % 2}\tgirl eats cake line{i}\n" for i in range(40)))
        capsys.readouterr()
        assert run(["eval", "--vectors", vec, "--freq", freq, "--unsafe-ranges",
                    "--a-grid", "0.05", "--k-grid", "-1", "--seeds", "1", str(ds)]) == 1
        _one_line_error(capsys, "k must be >= 0, got -1")

    def test_negative_k_in_grid_logs_no_run(self, world, tmp_path, capsys):
        # Slicing a model with k = -1 would give the empty model and a run
        # labelled k=-1; the grid is refused instead.
        _, vec, freq, _ = world
        ds = tmp_path / "toy.tsv"
        ds.write_text("".join(f"{i % 2}\tgirl eats cake line{i}\n" for i in range(40)))
        log = tmp_path / "runs.log"
        capsys.readouterr()
        assert run(["eval", "--vectors", vec, "--freq", freq, "--unsafe-ranges",
                    "--a-grid", "0.05", "--k-grid=-1,5", "--seeds", "1",
                    "--log", str(log), str(ds)]) == 1
        _one_line_error(capsys, "k must be >= 0, got -1")
        assert not log.exists() or log.read_text() == ""

    def test_unwritable_log_fails_before_embedding(self, world, tmp_path,
                                                   capsys, monkeypatch):
        tmp, vec, freq, _ = world
        ds = tmp_path / "toy.tsv"
        ds.write_text("".join(f"{i % 2}\tgirl eats cake x{i}\n" for i in range(20)))

        def embed_split(*args, **kwargs):
            raise AssertionError("embedded before the log was opened")

        monkeypatch.setattr(evalkit, "embed_split", embed_split)
        log = tmp_path / "missing" / "runs.log"
        assert run(["eval", "--vectors", vec, "--freq", freq, "--a-grid", "0.05",
                    "--k-grid", "0", "--log", str(log), str(ds)]) == 1
        _one_line_error(capsys, str(log))

    def test_eval_seed_summary(self, world, tmp_path, capsys):
        tmp, vec, freq, _ = world
        rows = [f"{i % 2}\t{'girl eats cake' if i % 2 else 'dog runs fast'} x{i}"
                for i in range(60)]
        ds = tmp_path / "toy.tsv"
        ds.write_text("\n".join(rows) + "\n")
        assert run(["eval", "--vectors", vec, "--freq", freq,
                    "--name", "toy", "--a-grid", "0.05", "--k-grid", "0",
                    "--seeds", "1,2,3", str(ds)]) == 0
        assert "over 3 seeds" in capsys.readouterr().out

    def test_duplicate_seeds_run_once(self, world, tmp_path, capsys):
        tmp, vec, freq, _ = world
        rows = [f"{i % 2}\t{'girl eats cake' if i % 2 else 'dog runs fast'} x{i}"
                for i in range(60)]
        ds = tmp_path / "toy.tsv"
        ds.write_text("\n".join(rows) + "\n")
        log = tmp_path / "runs.log"
        assert run(["eval", "--vectors", vec, "--freq", freq, "--name", "toy",
                    "--a-grid", "0.05,0.05", "--k-grid", "0,1", "--seeds", "1,1",
                    "--log", str(log), str(ds)]) == 0
        assert "over 1 seeds" in capsys.readouterr().out
        # One run per (a, k): the fourth field of a log line is k.
        assert [line.split(",")[3] for line in log.read_text().splitlines()] == ["0", "1"]

    def test_bench_prints_machine_line(self, world, capsys):
        _, vec, freq, _ = world
        assert run(["bench", "--vectors", vec, "--freq", freq, "--scale-n", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "machine", "scaling probe (n=1 vs 2, 1000 sentences)"]

    def test_bench_without_scale_n_exit_64(self, world, capsys):
        _, vec, freq, _ = world
        with pytest.raises(SystemExit) as exc:
            run(["bench", "--vectors", vec, "--freq", freq])
        assert exc.value.code == 64
        assert "the following arguments are required: --scale-n" in capsys.readouterr().err


# Commands that take -a, and those that take k (-k or --k-grid); eval and
# weight-curve read a from a grid, where inf does not parse.
_A_FLAG_COMMANDS = ("embed", "fit-noise", "contrib")
_K_COMMANDS = ("embed", "fit-noise", "eval")
# case -> (a, k, the error line's message)
_RULE_CASES = {"infinite": ("inf", "0", "a must be finite and positive, got inf"),
               "negative": ("-1", "0", "a must be finite and positive, got -1.0"),
               "zero": ("0", "0", "a must be finite and positive, got 0.0"),
               "negative-k": ("0.05", "-1", "k must be >= 0, got -1")}


class TestBadNumbers:
    """Malformed numbers and --group specs on the command line: exit 1 and one
    error line."""

    @pytest.mark.parametrize("argv,message", [
        (["--k-grid", ""], "cannot parse grid ''"),
        (["--a-grid", ""], "cannot parse grid ''"),
        (["--seeds", ""], "cannot parse grid ''"),
        (["--seeds", ",,"], "cannot parse grid ',,'"),
        (["--a-grid", "0.05,nan"], "cannot parse grid '0.05,nan'"),
        (["--unsafe-ranges", "--a-grid", "inf"], "cannot parse grid 'inf'"),
        (["--unsafe-ranges", "--k-grid", "0,1" + "0" * 400],
         f"cannot parse grid '0,1{'0' * 400}'"),
        (["--seeds", "1" + "0" * 400], f"cannot parse grid '1{'0' * 400}'"),
        (["--seeds", "-1"], "seeds must be one or more integers >= 0, got [-1]"),
        (["--train-limit", "-150"], "train limit must be >= 0, got -150"),
        (["--test-limit", "-1"], "test limit must be >= 0, got -1"),
    ], ids=["empty-k-grid", "empty-a-grid", "empty-seeds", "commas-seeds",
            "nan-a", "inf-a-unsafe", "huge-k-unsafe", "huge-seed", "negative-seed",
            "negative-train-limit", "negative-test-limit"])
    def test_eval(self, world, tmp_path, capsys, argv, message):
        _, vec, freq, _ = world
        ds = tmp_path / "toy.tsv"
        ds.write_text("".join(f"{i % 2}\tgirl eats cake x{i}\n" for i in range(40)))
        capsys.readouterr()
        assert run(["eval", "--vectors", vec, "--freq", freq, "--a-grid", "0.05",
                    "--k-grid", "0", "--seeds", "1", *argv, str(ds)]) == 1
        _one_line_error(capsys, message)

    @pytest.mark.parametrize("argv,message", [
        (["--scale-n", "-3"], "scaling_n must be >= 1, got -3"),
        (["--scale-n", "0"], "scaling_n must be >= 1, got 0"),
        (["--scale-n", "9" * 30], f"scaling_n must be <= 1024, got {'9' * 30}"),
        (["--scale-n", "1025"], "scaling_n must be <= 1024, got 1025"),
    ], ids=["negative-scale-n", "zero-scale-n", "30-digit-scale-n", "max-plus-one-scale-n"])
    def test_bench_probe_size(self, world, capsys, argv, message):
        _, vec, freq, _ = world
        capsys.readouterr()
        assert run(["bench", "--vectors", vec, "--freq", freq, *argv]) == 1
        _one_line_error(capsys, message)

    @pytest.mark.parametrize("sub,case", [
        pytest.param(sub, case, id=f"{sub}-{case}")
        for sub in (*_A_FLAG_COMMANDS, "eval", "weight-curve")
        for case in _RULE_CASES
        if (case != "infinite" or sub in _A_FLAG_COMMANDS)
        and (case != "negative-k" or sub in _K_COMMANDS)])
    def test_bad_a_refused_before_loading(self, tmp_path, capsys, sub, case):
        # The a and k rules are one rule (encoder.check_a_k): every command
        # gives the same line for the same value before it opens any file.
        a, k, message = _RULE_CASES[case]
        nope, out = str(tmp_path / "nope.txt"), tmp_path / "out.txt"
        tables = ["--vectors", nope, "--freq", nope]
        argv = {
            "embed": [*tables, "-a", a, "-k", k, "--unsafe-ranges", "--out", str(out), nope],
            "fit-noise": [*tables, "-a", a, "-k", k, "--unsafe-ranges", "--out", str(out),
                          nope],
            "contrib": [*tables, "-a", a, "--unsafe-ranges", "--out", str(out), "the"],
            "eval": [*tables, "--a-grid", a, "--k-grid", k, "--seeds", "1",
                     "--unsafe-ranges", "--log", str(out), nope],
            "weight-curve": ["--freq", nope, "--group", "stop=the", "--a-grid", a,
                             "--out", str(out)],
        }[sub]
        capsys.readouterr()
        assert run([sub, *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv,code,message", [
        (["--a-grid", "-1", "--unsafe-ranges"], 1,
         "a must be finite and positive, got -1.0"),
        (["--a-grid", "0.05,0.9"], 3, "a=0.9 outside documented range"),
        (["--k-grid", "30"], 3, "k=30 outside documented range"),
        (["--seeds", ",,"], 1, "cannot parse grid ',,'"),
        (["--seeds", "3,-1"], 1, "seeds must be one or more integers >= 0, got [3, -1]"),
        (["--unsafe-ranges", "--k-grid=-1,5"], 1, "k must be >= 0, got -1"),
        (["--train-limit", "-1"], 1, "train limit must be >= 0, got -1"),
        (["--dev-limit", "-2"], 1, "dev limit must be >= 0, got -2"),
        (["--test-limit", "-3"], 1, "test limit must be >= 0, got -3"),
    ], ids=["negative-a", "a-range", "k-range", "seeds", "negative-seed",
            "negative-k-unsafe", "negative-train-limit", "negative-dev-limit",
            "negative-test-limit"])
    def test_eval_grids_checked_before_loading(self, world, capsys, argv, code,
                                               message):
        tmp, _, freq, _ = world
        capsys.readouterr()
        assert run(["eval", "--vectors", str(tmp / "nope.txt"), "--freq", freq,
                    "--a-grid", "0.05", "--k-grid", "0", "--seeds", "1", *argv,
                    str(tmp / "x.tsv")]) == code
        _one_line_error(capsys, message)

    @pytest.mark.parametrize("argv,message", [
        (["--scale-n", "0"], "scaling_n must be >= 1, got 0"),
    ], ids=["scale-n"])
    def test_bench_options_checked_before_loading(self, world, capsys, argv, message):
        tmp, _, freq, _ = world
        capsys.readouterr()
        assert run(["bench", "--vectors", str(tmp / "nope.txt"), "--freq", freq,
                    *argv]) == 1
        _one_line_error(capsys, message)

    @pytest.mark.parametrize("group,message", [
        ("bad", "--group expects NAME=tok1,tok2,... got 'bad'"),
        ("x=", "empty token group: 'x'"),
        ("x=,,", "empty token group: 'x'"),
    ], ids=["no-equals", "no-tokens", "only-commas"])
    def test_weight_curve_group_checked_before_loading(self, tmp_path, capsys,
                                                        group, message):
        capsys.readouterr()
        assert run(["weight-curve", "--freq", str(tmp_path / "nope.tsv"),
                    "--group", "stop=the", "--group", group]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_weight_curve_infinite_a(self, world, capsys):
        _, _, freq, _ = world
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["weight-curve", "--freq", freq, "--group", "stop=the,a",
                        "--a-grid", "inf,1"]) == 1
        _one_line_error(capsys, "cannot parse grid 'inf,1'")

    @pytest.mark.parametrize("name", ["sst,2", "two\nlines", "tail\r"],
                             ids=["comma", "newline", "carriage-return"])
    def test_eval_name_checked_before_loading(self, world, capsys, name):
        tmp, _, freq, _ = world
        log = tmp / "runs.log"
        capsys.readouterr()
        assert run(["eval", "--vectors", str(tmp / "nope.txt"), "--freq", freq,
                    "--name", name, "--log", str(log), str(tmp / "x.tsv")]) == 1
        _one_line_error(capsys, "dataset name must hold no comma or line break, "
                                f"got {name!r}")
        assert not log.exists()

    def test_weight_curve_repeated_group_checked_before_loading(self, tmp_path,
                                                                capsys):
        capsys.readouterr()
        assert run(["weight-curve", "--freq", str(tmp_path / "nope.tsv"),
                    "--group", "stop=the", "--group", "stop=cat,dog"]) == 1
        assert capsys.readouterr().err == "error: repeated --group name: 'stop'\n"


def _eval(vec, freq, dataset):
    """``noppa eval --k-grid 0 --seeds 1`` run in process -> (exit code,
    stderr lines), where stderr holds the error lines and the log records
    that the CLI's ``logging.basicConfig`` would write there."""
    err = io.StringIO()
    handler = logging.StreamHandler(err)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    root = logging.getLogger()
    root.addHandler(handler)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["eval", "--vectors", vec, "--freq", freq, "--k-grid", "0",
                          "--seeds", "1", "--name", "toy", dataset])
    finally:
        root.removeHandler(handler)
    return code, err.getvalue().splitlines()


class TestBadDatasets:
    """``noppa eval`` on datasets that used to end in a traceback."""

    WORDS = ["the", "girl", "eats", "a", "cake", "dog"]

    @staticmethod
    def _split_dir(tmp_path, **splits):
        d = tmp_path / "ds"
        d.mkdir()
        for name, rows in splits.items():
            (d / f"{name}.tsv").write_text("".join(f"{i % 2}\t{row}\n"
                                                   for i, row in enumerate(rows)))
        return str(d)

    def test_huge_label(self, world, tmp_path):
        ds = tmp_path / "toy.tsv"
        ds.write_text("".join(f"{i % 2}\tgirl eats cake {i}\n" for i in range(40))
                      + "1000000000000000\tw5 w6\n")
        assert _eval(*world[1:3], str(ds)) == (1, [
            "error: toy: label 1000000000000000 implies 1000000000000001 classes, "
            "more than the 41 labeled rows"])

    def test_all_oov_train(self, world, tmp_path):
        ds = tmp_path / "toy.tsv"
        ds.write_text("".join(f"{i % 2}\tzz{i} qq\n" for i in range(40)))
        assert _eval(*world[1:3], str(ds)) == (1, [
            "error: toy: no train sentence has an in-vocabulary token"])

    def test_all_oov_test(self, world, tmp_path):
        ds = self._split_dir(tmp_path, train=[f"girl eats x{i}" for i in range(20)],
                             test=[f"zz{i} qq" for i in range(5)])
        assert _eval(*world[1:3], ds) == (1, [
            "error: toy: no test sentence has an in-vocabulary token"])

    def test_all_oov_dev_falls_back_to_train(self, world, tmp_path):
        ds = self._split_dir(tmp_path, train=[f"girl eats x{i}" for i in range(20)],
                             dev=[f"zz{i} qq" for i in range(5)],
                             test=["girl eats", "dog runs"])
        assert _eval(*world[1:3], ds) == (0, [
            "WARNING noppa.evalkit: dropped 5 dev sentences with no "
            "in-vocabulary tokens"])

    def test_pairs_without_dev_split(self, world, tmp_path, capsys):
        # The empty dev split must have the pair width 6d, or removing the
        # noise (k = 3) from it fails on a dim mismatch.
        _, vec, freq, _ = world
        ds = self._split_dir(tmp_path,
                             train=[f"girl eats {w}\tthe dog {w}"
                                    for w in ("cake", "fast", "sky", "a") * 5],
                             test=["girl eats\tdog runs", "the cake\tblue sky"])
        log = tmp_path / "runs.log"
        assert run(["eval", "--vectors", vec, "--freq", freq, "--k-grid", "0,3",
                    "--seeds", "1", "--log", str(log), ds]) == 0
        assert "dev-best config" in capsys.readouterr().out
        assert [line.split(",")[3] for line in log.read_text().splitlines()] == (
            ["0", "3"] * 4)

    def test_long_label_token_is_shortened(self, world, tmp_path):
        ds = tmp_path / "toy.tsv"
        ds.write_text("".join(f"{i % 2}\tgirl eats cake {i}\n" for i in range(40))
                      + "9" * 5000 + "\tgirl\n")
        code, err = _eval(*world[1:3], str(ds))
        assert (code, err) == (1, [f"error: toy: unknown label token '{'9' * 37}...'"])

    @settings(max_examples=100, deadline=None)
    @given(content=dataset_files(WORDS))
    def test_fuzz_loads_or_one_error_line(self, content, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        rng = np.random.default_rng(0)
        (tmp / "vectors.txt").write_text("".join(
            f"{w} {' '.join(map(str, rng.standard_normal(4)))}\n" for w in self.WORDS))
        (tmp / "freq.txt").write_text("".join(f"{w}\t{i + 1}\n"
                                              for i, w in enumerate(self.WORDS)))
        ds = tmp / "ds.tsv"
        ds.write_bytes(content)
        try:
            evalkit.load_dataset("fuzz", ds)
        except NoppaError:
            pass
        code, err = _eval(str(tmp / "vectors.txt"), str(tmp / "freq.txt"), str(ds))
        assert code == 0 or (code == 1 and len(err) == 1
                             and err[0].startswith("error: ")), (code, err)


class TestUsage:
    def test_unknown_flag_exit_64(self, world):
        _, vec, freq, sent = world
        with pytest.raises(SystemExit) as exc:
            run(["embed", "--vectors", vec, "--freq", freq,
                 "--bogus-flag", sent])
        assert exc.value.code == 64

    def test_missing_subcommand_exit_64(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 64

    # The flags each subcommand reads, and the flags it no longer accepts.
    FLAGS = {
        "embed": ({"--vectors", "--freq", "-a", "-k", "--no-positions",
                   "--unsafe-ranges", "--noise-model", "--out"},
                  ["--seed", "--jobs"]),
        "fit-noise": ({"--vectors", "--freq", "-a", "-k", "--no-positions",
                       "--unsafe-ranges", "--out"},
                      ["--seed", "--jobs", "--noise-model"]),
        "attention": ({"--vectors", "--no-positions", "--out"},
                      ["--seed", "--jobs", "-k", "--freq", "-a", "--unsafe-ranges",
                       "--noise-model"]),
        "contrib": ({"--vectors", "--freq", "-a", "--no-positions",
                     "--unsafe-ranges", "--noise-model", "--out"},
                    ["--seed", "--jobs", "-k", "--pre-denoise"]),
        "weight-curve": ({"--freq", "--out", "--group", "--a-grid"}, []),
        "eval": ({"--vectors", "--freq", "--no-positions", "--unsafe-ranges",
                  "--name", "--variant", "--a-grid", "--k-grid", "--seeds",
                  "--train-limit", "--dev-limit", "--test-limit", "--fit-on-test",
                  "--log"},
                 ["--seed", "--jobs", "-a", "-k", "--noise-model", "--out"]),
        "bench": ({"--vectors", "--freq", "--scale-n"},
                  ["--jobs", "--out", "--unsafe-ranges", "--noise-model", "-a",
                   "--no-positions", "-k", "--reps", "--scale-count", "--seed",
                   "--sentences"]),
    }

    @pytest.mark.parametrize("sub", ["embed", "fit-noise", "attention",
                                     "contrib", "weight-curve", "eval", "bench"])
    def test_help_documents_flags(self, sub, world, capsys):
        tmp, vec, freq, sent = world
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        expected, removed = self.FLAGS[sub]
        assert set(re.findall(r"^  (-[\w-]+)", out, re.M)) == expected | {"-h"}
        valid = {
            "embed": ["--vectors", vec, "--freq", freq, sent],
            "fit-noise": ["--vectors", vec, "--freq", freq, "--out", "m.txt", sent],
            "attention": ["--vectors", vec, "the girl"],
            "contrib": ["--vectors", vec, "--freq", freq, "the girl"],
            "weight-curve": ["--freq", freq, "--group", "stop=the"],
            "eval": ["--vectors", vec, "--freq", freq, sent],
            "bench": ["--vectors", vec, "--freq", freq, "--scale-n", "1"],
        }[sub]
        for flag in removed:
            value = [] if flag == "--unsafe-ranges" else ["1"]
            with pytest.raises(SystemExit) as exc:
                run([sub, *valid, flag, *value])
            assert exc.value.code == 64
            err = capsys.readouterr().err
            assert re.search(rf"unrecognized arguments: {flag}\b", err), err


class TestEveryFlagChangesOutput:
    """Each flag of these subcommands changes their primary output: two runs
    that differ in that flag alone give different CSV rows (``#`` comment
    lines aside) or different noise-model files.  ``--out`` and
    ``--unsafe-ranges`` choose only where and whether the output is written.
    """

    SUBS = ("embed", "fit-noise", "attention", "contrib", "weight-curve")

    @staticmethod
    def _inputs(world):
        tmp, vec, freq, sent = world
        words = [line.split()[0] for line in (tmp / "vectors.txt").read_text().splitlines()]
        rng = np.random.default_rng(56)
        vec2 = tmp / "vectors2.txt"
        vec2.write_text("".join(f"{w} {' '.join(f'{v:.6f}' for v in rng.standard_normal(5))}\n"
                                for w in words))
        freq2 = tmp / "freq2.txt"
        freq2.write_text("".join(f"{w}\t{(i + 1) * 37}\n"
                                 for i, w in enumerate(reversed(words))))
        noise = tmp / "noise4.txt"
        assert run(["fit-noise", "--vectors", vec, "--freq", freq, "-k", "4",
                    "--out", str(noise), sent]) == 0
        return str(vec2), str(freq2), str(noise)

    @staticmethod
    def _pairs(world, vec2, freq2, noise):
        """sub -> (base argv, {flag: (extra argv A, extra argv B)}).  A later
        value of an option replaces the base's, so A and B differ in one flag."""
        tmp, vec, freq, sent = world
        tables = ["--vectors", vec, "--freq", freq]
        model = ["--noise-model", noise]
        common = {"--vectors": ([], ["--vectors", vec2]),
                  "--freq": ([], ["--freq", freq2]),
                  "-a": ([], ["-a", "0.1"]),
                  "--no-positions": ([], ["--no-positions"])}
        return {
            "embed": (tables + [sent], {
                **common,
                "-k": (model + ["-k", "1"], model + ["-k", "3"]),
                "--noise-model": ([], model)}),
            "fit-noise": (tables + ["-k", "2", "--out", str(tmp / "fitted.txt"), sent], {
                **common, "-k": ([], ["-k", "3"])}),
            "attention": (["--vectors", vec, "the girl eats a cake"], {
                f: common[f] for f in ("--vectors", "--no-positions")}),
            "contrib": (tables + ["the girl eats a cake"], {
                **common,
                "--noise-model": ([], model)}),
            "weight-curve": (["--freq", freq, "--group", "stop=the,a"], {
                "--freq": common["--freq"],
                "--group": ([], ["--group", "content=girl,cake"]),
                "--a-grid": ([], ["--a-grid", "0.5,0.02"])}),
        }

    @staticmethod
    def _output(sub, argv, world, capsys):
        capsys.readouterr()
        assert run([sub, *argv]) == 0
        if sub == "fit-noise":
            return (world[0] / "fitted.txt").read_text()
        return [line for line in capsys.readouterr().out.splitlines()
                if not line.startswith("#")]

    def test_every_flag_is_covered(self, world):
        pairs = self._pairs(world, "v2", "f2", "n")
        for sub in self.SUBS:
            assert set(pairs[sub][1]) == (TestUsage.FLAGS[sub][0]
                                          - {"--out", "--unsafe-ranges"}), sub

    @pytest.mark.parametrize("sub", SUBS)
    def test_each_flag_changes_the_output(self, world, capsys, sub):
        base, flags = self._pairs(world, *self._inputs(world))[sub]
        same = [flag for flag, (a, b) in flags.items()
                if self._output(sub, base + a, world, capsys)
                == self._output(sub, base + b, world, capsys)]
        assert same == [], f"{sub}: output does not depend on {same}"
