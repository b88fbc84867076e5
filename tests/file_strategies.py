"""Hypothesis strategies for the text files that ``noppa embed`` reads at
start: well-formed content with stray or edited lines that may break the
format."""

import numpy as np
from hypothesis import strategies as st

# Tokens in the text formats must not contain whitespace.
token_strategy = st.text(
    alphabet=st.characters(blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs")),
    min_size=1, max_size=12)

_any_text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                    max_size=12).map(lambda t: t.encode("utf-8"))


@st.composite
def frequency_files(draw):
    """Bytes of a frequency file: ``token<TAB>count`` rows and stray lines
    that may break the format (blank, no tab, two tabs, a count that is not
    a positive integer or has more digits than ``int`` reads, a duplicate
    token, non-UTF-8)."""
    rows = draw(st.lists(st.tuples(token_strategy, st.integers(1, 10**12)),
                         max_size=6))
    lines = [f"{t}\t{c}".encode("utf-8") for t, c in rows]
    stray = st.one_of(
        st.just(b""), st.just(b"  "), st.just(b"tok"), st.just(b"tok\t1\t2"),
        st.just(b"tok\t0"), st.just(b"tok\t-3"), st.just(b"tok\tx"),
        st.just(b"tok\t1.5"), st.just(b"tok\t"), st.just(b"\t4"),
        st.just(b"tok\t" + b"9" * 5000), st.just(b"\xff\t1"),
        st.sampled_from(lines or [b"tok\t1"]), _any_text)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(stray))
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n", b"\r\n"]))


def _reals(values) -> bytes:
    return " ".join(f"{v:.17g}" for v in values).encode()


@st.composite
def noise_files(draw, dim=None):
    """Bytes of a noise-model file: the format ``denoiser.save`` writes, for
    k orthonormal rows in R^dim (``dim`` drawn when not given), then up to
    three edits that may break it: a value that is not a finite real or is
    far too large, a dropped, repeated or blank line, an edited header,
    non-UTF-8 bytes, or a cut at any byte."""
    dim = dim or draw(st.integers(1, 5))
    k = draw(st.integers(0, min(dim, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    lines = ([f"NOPPA-NOISE v1 k={k} dim={dim}".encode()]
             + [_reals(row) for row in q[:k]]
             + [_reals(sorted(rng.random(k), reverse=True))])
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["value", "drop", "repeat", "blank",
                                     "header", "bytes"]))
        at = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if edit == "value" and lines:
            fields = lines[at].split(b" ")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(st.sampled_from(
                [b"abc", b"nan", b"-inf", b"inf", b"1e999", b"1e300", b"-0",
                 b"0x10", b"1_0", b""]))
            lines[at] = b" ".join(fields)
        elif edit == "drop" and lines:
            del lines[at]
        elif edit == "repeat" and lines:
            lines.insert(at, lines[at])
        elif edit == "blank":
            lines.insert(at, b"")
        elif edit == "header" and lines:
            lines[0] = draw(st.sampled_from([
                f"NOPPA-NOISE v1 k={k + 1} dim={dim}", f"NOPPA-NOISE v1 k={k} dim={dim + 1}",
                f"NOPPA-NOISE v1 k={k} dim=0", "NOPPA-NOISE v1 k=-1 dim=2",
                "NOPPA-NOISE v1 k=x dim=2", f"NOPPA-NOISE v2 k={k} dim={dim}",
                "NOPPA-NOISE v1 k=" + "9" * 5000 + " dim=2", "NOPPA-NOISE"])).encode()
        elif edit == "bytes" and lines:
            lines[at] = b"\xff" + lines[at]
    content = b"\n".join(lines) + b"\n"
    return content[:draw(st.integers(0, len(content)))] if draw(st.booleans()) else content


@st.composite
def dataset_files(draw, words):
    """Bytes of an ``eval`` dataset TSV: ``label<TAB>sentence`` rows or
    ``label<TAB>first<TAB>second`` pair rows over ``words`` and two tokens
    outside them, so a line or a whole split may be out of vocabulary; then
    up to three stray lines that may break the format: a row of the other
    kind or with four fields, a label that is negative, not an integer, has
    5000 digits or is up to 10**18, an out-of-vocabulary row, a blank line,
    non-UTF-8 bytes."""
    vocab = draw(st.sampled_from([words + ["zz", "qq"]] * 3 + [["zz", "qq"]]))
    sentence = st.lists(st.sampled_from(vocab), min_size=1, max_size=4).map(" ".join)
    pairs = draw(st.booleans())
    count = draw(st.integers(0, 50))  # a drawn list length would favor tiny files
    rows = draw(st.lists(st.tuples(st.integers(0, 2), sentence, sentence),
                         min_size=count, max_size=count))
    lines = [(f"{label}\t{first}\t{second}" if pairs else f"{label}\t{first}").encode()
             for label, first, second in rows]
    stray = st.one_of(
        st.sampled_from([b"1\tthe girl\tcake", b"0\tthe girl", b"1\ta\tb\tc",
                         b"-1\tthe girl", b"1.5\tthe girl", b"x\tthe girl",
                         b"\tthe girl", b"9" * 5000 + b"\tthe girl",
                         b"0\tzz qq", b"", b"  ", b"\xff\tthe girl",
                         b"0\tthe \xff"]),
        st.integers(3, 10**18).map(lambda label: f"{label}\tthe girl".encode()))
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(stray))
    return b"\n".join(lines) + draw(st.sampled_from([b"", b"\n", b"\r\n"]))
