import builtins
import hashlib
import io
import json
import logging
import os
import shutil
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noppa import (FormatError, FrequencyTable, NoppaError, VectorTable,
                   lexicon, load_frequencies, load_vectors, save_vectors,
                   tokenize)

from file_strategies import frequency_files, token_strategy



def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def npy_bytes(array):
    buf = io.BytesIO()
    np.save(buf, array)
    return buf.getvalue()


class TestLoadVectors:
    def test_two_lines_three_floats(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 0.1 0.2 0.3", "beta 1 2 3"])
        table = load_vectors(p)
        assert table.dim == 3
        assert table.vocab_size == 2
        np.testing.assert_allclose(table.matrix[table.index["beta"]], [1, 2, 3])

    def test_dim_mismatch_names_line(self, tmp_path):
        p = tmp_path / "vec.txt"
        lines = [f"tok{i} " + " ".join(["0.5"] * 300) for i in range(8)]
        lines[4] = "tok4 " + " ".join(["0.5"] * 299)  # line 5 is short
        write_lines(p, lines)
        with pytest.raises(FormatError, match="dim mismatch at line 5"):
            load_vectors(p)

    def test_unparseable_float(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 0.1 oops 0.3"])
        with pytest.raises(FormatError, match="unparseable float at line 1"):
            load_vectors(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "vec.txt"
        p.write_text("", encoding="utf-8")
        with pytest.raises(FormatError, match="empty"):
            load_vectors(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_vectors(tmp_path / "absent.txt")

    def test_duplicates_keep_first(self, tmp_path, caplog):
        p = tmp_path / "vec.txt"
        write_lines(p, ["tok 1 2", "a 5 6", "tok 3 4", "b 7 8", "a 9 9"])
        for outcome in ("miss, wrote", "hit"):
            with caplog.at_level(logging.INFO, logger="noppa.lexicon"):
                caplog.clear()
                table = load_vectors(p)
            assert f"vector cache {outcome}" in caplog.text
            assert table.vocab_size == 3
            np.testing.assert_allclose(table.matrix[table.index["tok"]], [1, 2])
            # tokenize gives each kept token the row of its first occurrence.
            seq = tokenize("b tok zz a tok", table)
            assert seq.tokens == ["b", "tok", "a", "tok"]
            assert seq.rows == [2, 0, 1, 0]
            np.testing.assert_array_equal(table.matrix[seq.rows],
                                          [[7, 8], [1, 2], [5, 6], [1, 2]])

    def test_missing_token_is_none(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_lines(p, ["tok 1 2"])
        table = load_vectors(p)
        seq = tokenize("absent", table)
        assert seq.tokens == seq.rows == []
        assert seq.dropped == [(0, "absent")]

    def test_byte_order_mark_is_hashed_not_parsed(self, tmp_path):
        plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
        write_lines(plain, ["the 1 2", "cat 3 4"])
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        for _ in range(2):  # cache miss, then hit
            table = load_vectors(marked)
            assert_same_table(table, load_vectors(plain), same_source=False)
            assert table.source_hash == hashlib.sha256(marked.read_bytes()).hexdigest()


    def test_word2vec_header(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_lines(p, ["", "3 2", "a 1 2", "", "b 3 4", "a 5 6"])
        table = load_vectors(p)
        plain = tmp_path / "plain.txt"
        write_lines(plain, ["a 1 2", "b 3 4", "a 5 6"])
        assert_same_table(table, load_vectors(plain), same_source=False)

    def test_word2vec_header_count_mismatch(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_lines(p, ["3 2", "a 1 2", "b 3 4"])
        with pytest.raises(FormatError, match="header at line 1 gives 3 vectors, "
                                              "the file has 2"):
            load_vectors(p)

    def test_count_one_line_is_a_vector(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_lines(p, ["2 1", "a 5"])
        table = load_vectors(p)
        assert table.dim == 1 and table.vocab_size == 2
        np.testing.assert_array_equal(table.matrix[table.index["2"]], [1])

    def test_two_integers_without_matching_line_are_a_vector(self, tmp_path):
        p = tmp_path / "vec.txt"
        write_lines(p, ["2 3", "a 1 2"])
        with pytest.raises(FormatError, match="dim mismatch at line 2 "
                                              r"\(expected 1, got 2\)"):
            load_vectors(p)


def assert_same_table(a, b, same_source=True):
    """Bitwise equality of everything ``load_vectors`` returns."""
    assert a.dim == b.dim
    assert a.matrix.dtype == b.matrix.dtype == np.float32
    assert a.matrix.shape == b.matrix.shape
    assert a.matrix.view(np.uint32).tobytes() == b.matrix.view(np.uint32).tobytes()
    assert list(a.index.items()) == list(b.index.items())
    if same_source:
        assert a.source_hash == b.source_hash


class TestVectorCache:
    @pytest.mark.parametrize("lines", [
        ["alpha 0.1 -2.5e-3 3", "beta 1 2 3"],
        ["", "tok 1 2 3", "  ", "tok 4 5 6", "other -0 1e-30 7", ""],
        ["2 3", "a 1 2 3", "b 4 5 6"],
    ], ids=["plain", "duplicates-blanks", "word2vec-header"])
    def test_hit_bitwise_equal_to_miss(self, tmp_path, vector_cache, lines):
        p = tmp_path / "vec.txt"
        write_lines(p, lines)
        reference = lexicon._parse_vectors(p)
        miss = load_vectors(p)
        entry = lexicon._entry_path(miss.source_hash)
        assert os.path.isdir(entry)
        hit = load_vectors(p)
        assert_same_table(miss, reference)
        assert_same_table(hit, reference)
        assert type(hit.matrix) is np.ndarray  # a view, not an np.memmap
        assert not hit.matrix.flags.writeable

    def test_entry_holds_matrix_and_tokens(self, tmp_path, vector_cache):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3", "beta 4 5 6", "alpha 7 8 9"])
        table = load_vectors(p)
        entry = lexicon._entry_path(table.source_hash)
        assert os.path.basename(entry) == f"vectors-v3-{table.source_hash}"
        assert sorted(os.listdir(entry)) == ["matrix.npy", "tokens.txt"]
        with open(os.path.join(entry, "tokens.txt"), "rb") as fh:
            assert fh.read() == b"alpha\nbeta"

    @pytest.mark.parametrize("part,damage", [
        ("matrix.npy", lambda b: b[:-4]),
        ("matrix.npy", lambda b: b""),
        ("tokens.txt", lambda b: b + b"\nextra"),
        ("tokens.txt", lambda b: b.replace(b"beta", b"alpha")),
        ("matrix.npy", lambda b: npy_bytes(np.zeros((2, 3)))),  # float64
        ("matrix.npy", lambda b: npy_bytes(np.zeros(2, np.float32))),  # 1-d
        ("matrix.npy", lambda b: npy_bytes(np.zeros((2, 0), np.float32))),  # no columns
    ])
    def test_corrupted_entry_is_one_line_format_error(self, tmp_path, part,
                                                      damage):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3", "beta 4 5 6"])
        entry = lexicon._entry_path(load_vectors(p).source_hash)
        target = os.path.join(entry, part)
        with open(target, "rb") as fh:
            data = fh.read()
        with open(target, "wb") as fh:
            fh.write(damage(data))
        with pytest.raises(FormatError) as exc:
            load_vectors(p)
        assert str(exc.value).startswith(f"corrupted vector cache entry {entry} ")
        assert "\n" not in str(exc.value)

    def test_unwritable_cache_root_returns_parsed_table(self, tmp_path,
                                                        monkeypatch, caplog):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3", "beta 4 5 6"])
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        with caplog.at_level(logging.INFO, logger="noppa.lexicon"):
            table = load_vectors(p)
        assert_same_table(table, lexicon._parse_vectors(p))
        assert "miss, skipped writing" in caplog.text
        assert not any(r.levelno >= logging.WARNING for r in caplog.records)

    def test_edited_file_gets_a_new_entry(self, tmp_path, vector_cache):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3"])
        first = load_vectors(p)
        write_lines(p, ["alpha 1 2 4"])
        second = load_vectors(p)
        assert first.source_hash != second.source_hash
        np.testing.assert_array_equal(second.matrix[second.index["alpha"]], [1, 2, 4])
        assert len(list(vector_cache.glob("vectors-v*"))) == 2

    def test_parse_failure_is_not_cached(self, tmp_path, vector_cache):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3", "beta 4 5"])
        for _ in range(2):
            with pytest.raises(FormatError, match="dim mismatch at line 2"):
                load_vectors(p)
        assert not vector_cache.exists() or not list(vector_cache.iterdir())

    def test_concurrent_writer_entry_is_kept(self, tmp_path, vector_cache):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3"])
        table = load_vectors(p)
        entry = lexicon._entry_path(table.source_hash)
        before = {n: os.stat(os.path.join(entry, n)).st_ino for n in os.listdir(entry)}
        lexicon._write_entry(entry, table)  # loses the race to publish
        after = {n: os.stat(os.path.join(entry, n)).st_ino for n in os.listdir(entry)}
        assert before == after
        assert os.listdir(vector_cache) == [os.path.basename(entry)]

    def test_one_info_line_per_load(self, tmp_path, caplog):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3"])
        with caplog.at_level(logging.INFO, logger="noppa.lexicon"):
            load_vectors(p)
            load_vectors(p)
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("vector cache")]
        entry = lexicon._entry_path(load_vectors(p).source_hash)
        assert len(lines) == 2
        assert lines[0].startswith(f"vector cache miss, wrote {entry} (")
        assert lines[1].startswith(f"vector cache hit: {entry} (")


def settle(monkeypatch):
    """Load as if each file last changed a minute ago, so that a load which
    hashes a file leaves a stamp for it (``lexicon.STAMP_MARGIN_NS``)."""
    monkeypatch.setattr(lexicon, "STAMP_MARGIN_NS", -60 * 10**9)


def stamp_of(path):
    return lexicon._stamp_path(os.stat(path))


class TestVectorStamp:
    def test_stamp_hit_neither_opens_nor_hashes(self, tmp_path, monkeypatch,
                                                caplog):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 0.1 -2.5e-3 3", "beta 1 2 3", "alpha 4 5 6"])
        settle(monkeypatch)
        reference = lexicon._parse_vectors(p)
        miss = load_vectors(p)
        entry = lexicon._entry_path(miss.source_hash)
        assert os.path.isfile(stamp_of(p))

        def refuse(*args, **kwargs):
            raise AssertionError("the text file was hashed or parsed")

        real_open = builtins.open

        def guarded_open(file, *args, **kwargs):
            if os.fspath(file) == str(p):
                raise AssertionError("the text file was opened")
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(lexicon, "_hash_file", refuse)
        monkeypatch.setattr(lexicon, "_parse_vectors", refuse)
        monkeypatch.setattr(builtins, "open", guarded_open)
        with caplog.at_level(logging.INFO, logger="noppa.lexicon"):
            hit = load_vectors(p)
        assert_same_table(hit, miss)
        assert_same_table(hit, reference)
        assert caplog.messages[-1].startswith(f"vector cache hit: {entry} (")
        assert caplog.messages[-1].endswith(" s, stamp)")

    def test_fresh_file_gets_no_stamp(self, tmp_path, caplog):
        # Written milliseconds ago: a same-size rewrite could keep its times.
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3"])
        with caplog.at_level(logging.INFO, logger="noppa.lexicon"):
            load_vectors(p)
            load_vectors(p)
        assert not os.path.exists(stamp_of(p))
        assert caplog.messages[-1].endswith(" s, hashed)")

    def test_file_changed_while_hashed_gets_no_stamp(self, tmp_path,
                                                     monkeypatch):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3"])
        settle(monkeypatch)
        file_digest = hashlib.file_digest

        def digest_then_append(fh, name):
            result = file_digest(fh, name)
            with open(p, "a", encoding="utf-8") as out:
                out.write("beta 4 5 6\n")
            return result

        monkeypatch.setattr(hashlib, "file_digest", digest_then_append)
        table = load_vectors(p)
        assert not os.path.exists(stamp_of(p))
        assert_same_table(table, lexicon._parse_vectors(p))

    @pytest.mark.parametrize("change", ["rewrite", "rewrite-old-mtime",
                                        "rename"])
    def test_changed_file_loads_new_content(self, tmp_path, monkeypatch,
                                            change):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3"])
        if change != "rewrite":  # a rewrite right after the load: no stamp
            settle(monkeypatch)
        first = load_vectors(p)
        old = os.stat(p)
        # Let the file clock tick, as the margin ensures outside tests.
        time.sleep(0.05)
        if change == "rename":
            q = tmp_path / "new.txt"
            write_lines(q, ["alpha 1 2 4"])
            os.utime(q, ns=(old.st_atime_ns, old.st_mtime_ns))
            os.replace(q, p)
        else:
            write_lines(p, ["alpha 1 2 4"])
            if change == "rewrite-old-mtime":
                os.utime(p, ns=(old.st_atime_ns, old.st_mtime_ns))
        assert os.stat(p).st_size == old.st_size
        second = load_vectors(p)
        assert first.source_hash != second.source_hash
        np.testing.assert_array_equal(second.matrix[second.index["alpha"]], [1, 2, 4])
        assert_same_table(second, lexicon._parse_vectors(p))

    @pytest.mark.parametrize("damage", [
        "truncated", "garbage", "not-utf8", "list", "deep", "bad-digest",
        "missing-entry", "removed-entry"])
    def test_bad_stamp_takes_the_hash_path(self, tmp_path, monkeypatch,
                                           damage):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3", "beta 4 5 6"])
        settle(monkeypatch)
        reference = load_vectors(p)
        stamp = stamp_of(p)
        with open(stamp, "rb") as fh:
            data = fh.read()
        record = json.loads(data)
        damaged = {
            "truncated": data[:-3],
            "garbage": b"\x00garbage",
            "not-utf8": b"\xff\xfe",
            "list": b"[1, 2]",
            "deep": b"[" * 100_000,
            "bad-digest": json.dumps({**record, "sha256": 7}).encode(),
            "missing-entry": json.dumps({**record, "sha256": "0" * 64}).encode(),
            "removed-entry": data,
        }[damage]
        with open(stamp, "wb") as fh:
            fh.write(damaged)
        if damage == "removed-entry":
            shutil.rmtree(lexicon._entry_path(reference.source_hash))
        assert_same_table(load_vectors(p), reference)
        with open(stamp, "rb") as fh:
            assert json.load(fh) == record  # the hash path rewrote it

    def test_unwritable_cache_root_skips_the_stamp(self, tmp_path, monkeypatch,
                                                   caplog):
        p = tmp_path / "vec.txt"
        write_lines(p, ["alpha 1 2 3"])
        blocker = tmp_path / "file"
        blocker.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        settle(monkeypatch)
        with caplog.at_level(logging.INFO, logger="noppa.lexicon"):
            for _ in range(2):
                assert_same_table(load_vectors(p), lexicon._parse_vectors(p))
        assert not any(r.levelno >= logging.WARNING for r in caplog.records)


@st.composite
def vector_files(draw):
    """Bytes of a vector file: well-formed rows of one dim, an optional
    word2vec header whose count may be off, and stray lines that may break
    the format (blank, short, non-numeric, non-finite, non-UTF-8)."""
    dim = draw(st.integers(1, 4))
    component = st.one_of(
        st.floats(width=32, allow_nan=False, allow_infinity=False).map(repr),
        st.integers(-9, 9).map(str))
    rows = draw(st.lists(st.tuples(token_strategy,
                                   st.lists(component, min_size=dim, max_size=dim)),
                         min_size=0, max_size=6))
    lines = [" ".join([t, *vals]).encode("utf-8") for t, vals in rows]
    stray = st.one_of(
        st.just(b""), st.just(b"   "), st.just(b"tok"), st.just(b"tok 1e40"),
        st.just(b"tok nan"), st.just(b"tok x"), st.just(b"\xff 1"),
        st.integers(0, 9).map(lambda n: f"{n} {dim}".encode()),
        st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                max_size=12).map(lambda t: t.encode("utf-8")))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(stray))
    if draw(st.booleans()):
        count = len(rows) + draw(st.sampled_from([0, 0, 0, 1, -1]))
        lines.insert(0, f"{count} {dim}".encode())
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n", b"\r\n"]))


class TestVectorFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(content=vector_files())
    def test_loads_or_raises_and_cache_is_bitwise_equal(self, content,
                                                        tmp_path_factory):
        p = tmp_path_factory.mktemp("fuzz") / "vec.txt"
        p.write_bytes(content)
        try:
            first = load_vectors(p)
        except NoppaError:
            with pytest.raises(NoppaError):
                load_vectors(p)  # a file that fails to parse is never cached
            return
        assert os.path.isdir(lexicon._entry_path(first.source_hash))
        assert_same_table(load_vectors(p), first)


class TestFromMapping:
    def test_inconsistent_dimensions(self):
        with pytest.raises(FormatError, match=r"inconsistent vector dimensions: \[2, 3\]"):
            VectorTable.from_mapping({"a": [1, 2], "b": [1, 2, 3]})

    @pytest.mark.parametrize("entries", [{"a": []}, {"a": [1.0], "b": []}],
                             ids=["only", "second"])
    def test_vector_without_components(self, entries):
        # dim is read off the matrix, so a (1, 0) matrix would be a dim-0 table
        with pytest.raises(FormatError, match="no vector components for"):
            VectorTable.from_mapping(entries)


class TestVectorRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(entries=st.dictionaries(
        token_strategy,
        st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                 min_size=4, max_size=4),
        min_size=1, max_size=12))
    def test_save_load_bit_identical(self, entries, tmp_path_factory):
        table = VectorTable.from_mapping(entries)
        path = tmp_path_factory.mktemp("rt") / "vec.txt"
        save_vectors(table, path)
        reloaded = load_vectors(path)
        assert reloaded.vocab_size == table.vocab_size
        for token, i in table.index.items():
            a, b = table.matrix[i], reloaded.matrix[reloaded.index[token]]
            assert a.tobytes() == b.tobytes()


class TestLoadFrequencies:
    def test_normalization(self, tmp_path):
        p = tmp_path / "freq.txt"
        write_lines(p, ["a\t3", "b\t1"])
        ft = load_frequencies(p)
        assert ft.get("a") == 0.75
        assert ft.get("b") == 0.25
        assert ft.total_count == 4

    def test_single_token(self, tmp_path):
        p = tmp_path / "freq.txt"
        write_lines(p, ["x\t7"])
        ft = load_frequencies(p)
        assert ft.get("x") == 1.0

    @pytest.mark.parametrize("count", ["1_000", "\u0663", "+5", "-5", "5.0", "1" * 19],
                             ids=["underscore", "arabic-indic", "plus", "minus", "float",
                                  "19-digits"])
    def test_count_is_ascii_digits(self, tmp_path, count):
        # int() reads 1_000 as 1000 and the Arabic-Indic digit three as 3.
        p = tmp_path / "freq.txt"
        write_lines(p, ["the\t10", f"a\t{count}"])
        with pytest.raises(FormatError, match="unparseable count at line 2"):
            load_frequencies(p)

    def test_count_may_have_surrounding_spaces(self, tmp_path):
        p = tmp_path / "freq.txt"
        write_lines(p, ["the\t 10 ", "a\t30"])
        assert load_frequencies(p).get("the") == 0.25

    def test_nonpositive_count(self, tmp_path):
        p = tmp_path / "freq.txt"
        write_lines(p, ["a\t0"])
        with pytest.raises(FormatError, match="non-positive"):
            load_frequencies(p)

    def test_duplicate_token(self, tmp_path):
        p = tmp_path / "freq.txt"
        write_lines(p, ["a\t1", "a\t2"])
        with pytest.raises(FormatError, match="duplicate"):
            load_frequencies(p)

    def test_empty_token(self, tmp_path):
        # Its count would go into the total and shrink every other word's
        # probability, though the tokenizer never produces an empty token.
        p = tmp_path / "freq.txt"
        write_lines(p, ["the\t10", "\t5", "cat\t5"])
        with pytest.raises(FormatError) as exc:
            load_frequencies(p)
        assert str(exc.value) == f"{p}: empty token at line 2"

    @pytest.mark.parametrize("token", [" ", "the ", "new york", "\xa0"])
    def test_whitespace_in_token(self, tmp_path, token):
        # The tokenizer splits on whitespace, so such a token never occurs in
        # a sentence and its count would only shrink every other word's
        # probability: " " here would give Pr(the) = 0.5, not 2/3.
        p = tmp_path / "freq.txt"
        write_lines(p, ["the\t10", f"{token}\t5", "cat\t5"])
        with pytest.raises(FormatError) as exc:
            load_frequencies(p)
        assert str(exc.value) == f"{p}: whitespace in token at line 2: {token!r}"

    def test_missing_token_probability_zero(self, tmp_path):
        p = tmp_path / "freq.txt"
        write_lines(p, ["a\t1"])
        assert load_frequencies(p).get("zzz") == 0.0

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(token_strategy, st.integers(1, 10**9),
                           min_size=1, max_size=200))
    def test_sum_and_minimum(self, counts):
        ft = FrequencyTable.from_counts(counts)
        total = sum(ft.probabilities.values())
        assert abs(total - 1.0) <= 1e-9
        assert min(ft.probabilities.values()) >= 1.0 / ft.total_count - 1e-15

    # load_frequencies refuses both first; these are the library's guards.
    @pytest.mark.parametrize("counts,message", [
        ({}, "frequency table must not be empty"),
        ({"a": 0}, "non-positive count for 'a': 0"),
    ], ids=["empty", "zero-count"])
    def test_from_counts_refusals(self, counts, message):
        with pytest.raises(FormatError, match=f"^{message}$"):
            FrequencyTable.from_counts(counts)


class TestFrequencyFileFuzz:
    @settings(max_examples=150, deadline=None)
    @given(content=frequency_files())
    def test_loads_or_raises_noppa_error(self, content, tmp_path_factory):
        p = tmp_path_factory.mktemp("fuzz") / "freq.txt"
        p.write_bytes(content)
        try:
            table = load_frequencies(p)
        except NoppaError as exc:
            assert "\n" not in str(exc)
            return
        assert abs(sum(table.probabilities.values()) - 1.0) <= 1e-9
        assert all(0.0 < v <= 1.0 for v in table.probabilities.values())


def pieces(seq):
    """The pre-filter token stream of ``seq``: its kept tokens fill the
    positions that ``dropped`` does not name."""
    dropped, kept = dict(seq.dropped), iter(seq.tokens)
    return [dropped[i] if i in dropped else next(kept)
            for i in range(len(seq) + len(dropped))]


class TestTokenize:
    # Some of the pieces below have a vector and some do not, so ``pieces``
    # reads the normalized stream through both ``tokens`` and ``dropped``.
    TABLE = VectorTable.from_mapping({"the": [1.0], "cake": [2.0], ",": [3.0]})

    def test_sentence_with_period(self):
        assert pieces(tokenize("The girl eats a cake.", self.TABLE)) == \
            ["the", "girl", "eats", "a", "cake", "."]

    def test_punctuation_split(self):
        assert pieces(tokenize("Hello,world", self.TABLE)) == ["hello", ",", "world"]

    def test_empty_string(self):
        seq = tokenize("", self.TABLE)
        assert seq.tokens == []
        assert seq.dropped == []

    def test_oov_dropping(self):
        table = VectorTable.from_mapping({"the": [1.0], "cake": [2.0]})
        seq = tokenize("The zorb eats cake!", table)
        assert seq.tokens == ["the", "cake"]
        assert seq.dropped == [(1, "zorb"), (2, "eats"), (4, "!")]
        positions = [p for p, _ in seq.dropped]
        assert positions == sorted(positions)

    @settings(max_examples=200, deadline=None)
    @given(st.text(max_size=80))
    def test_idempotent_on_joined_output(self, raw):
        first = pieces(tokenize(raw, self.TABLE))
        second = pieces(tokenize(" ".join(first), self.TABLE))
        assert first == second

    @settings(max_examples=100, deadline=None)
    @given(st.text(max_size=80))
    def test_deterministic(self, raw):
        assert pieces(tokenize(raw, self.TABLE)) == pieces(tokenize(raw, self.TABLE))
