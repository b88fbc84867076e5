"""Diagnostic exports: attention heatmap data, per-word contribution
scores, and weight-vs-a curves.  All outputs are CSV text with a ``#``
comment header recording the active configuration; plotting is left to
external tools.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import NoppaError
from .lexicon import FrequencyTable
from .encoder import token_weights, word_rows
from .pipeline import Pipeline

# Each word's weight -> 2 as a grows; curves are normalized by this limit.
_WEIGHT_LIMIT = 2.0


@dataclass(frozen=True)
class ContributionReport:
    """Cosine similarity of each word's tiled vector to the sentence vector."""

    tokens: list[str]
    scores: list[float]


@dataclass(frozen=True)
class WeightCurve:
    """Normalized mean smooth-frequency weight per token group per a."""

    a_values: list[float]  # descending
    group_means: dict[str, list[float]]


def _config_comments(pipe: Pipeline) -> list[str]:
    source = pipe.vectors.source_hash or "unknown"
    k = pipe.noise.k if pipe.noise is not None else 0
    return [
        f"# a={pipe.config.a:g} k={k} use_positions={pipe.config.use_positions}",
        f"# vectors=sha256:{source}",
    ]


def _csv(comments: list[str], rows) -> str:
    """The ``#`` comment lines, then ``rows`` as CSV lines."""
    out = io.StringIO()
    out.writelines(line + "\n" for line in comments)
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def attention_report(sentence: str, pipe: Pipeline) -> str:
    """CSV of the n x n attention matrix with token-labeled header row/column.

    The matrix rows sum to 1 within 1e-6 before printing; printed values
    are rounded to 6 decimal places, which the comment header records.
    """
    toks, _, att = pipe.embed(sentence, denoise=False)
    comments = _config_comments(pipe) + [
        "# rows of the attention matrix sum to 1 within 1e-6; "
        "printed values are rounded to 6 decimal places"]
    return _csv(comments, [[""] + toks.tokens] + [
        [token] + [f"{v:.6f}" for v in row] for token, row in zip(toks.tokens, att)])


def contribution_report(sentence: str, pipe: Pipeline,
                        denoised: bool = True) -> ContributionReport:
    """Per-word contribution scores for one sentence.

    Each word vector is tiled twice to match the sentence-embedding length,
    then compared by cosine similarity against the (by default denoised)
    sentence embedding.
    """
    toks, sent, _ = pipe.embed(sentence, denoise=denoised)
    sent_norm = float(np.linalg.norm(sent))
    if sent_norm == 0.0:
        raise NoppaError("degenerate embedding")
    scores = []
    for word in word_rows(toks, pipe.vectors):
        tiled = np.concatenate([word, word])
        norm = float(np.linalg.norm(tiled))
        if norm == 0.0:
            scores.append(0.0)
            continue
        scores.append(float(tiled @ sent / (norm * sent_norm)))
    return ContributionReport(tokens=list(toks.tokens), scores=scores)


def contribution_csv(report: ContributionReport, pipe: Pipeline) -> str:
    return _csv(_config_comments(pipe), [["token", "score"]] + [
        [token, f"{score:.6f}"] for token, score in zip(report.tokens, report.scores)])


def check_groups(groups: dict[str, list[str]]) -> None:
    """Refuse no groups, and a group with no tokens."""
    if not groups:
        raise NoppaError("no token groups given")
    for name, tokens in groups.items():
        if not tokens:
            raise NoppaError(f"empty token group: {name!r}")


def weight_curve(groups: dict[str, list[str]], frequencies: FrequencyTable,
                 a_grid: list[float]) -> WeightCurve:
    """Mean smooth-frequency weight per group over a descending a grid.

    Means are normalized by the weight's a -> infinity limit (2.0) so that
    curves live in (0, 1].  Tokens missing from the table count as Pr = 0.
    """
    check_groups(groups)
    if not a_grid:
        raise NoppaError("empty a grid")
    a_values = sorted(set(float(a) for a in a_grid), reverse=True)
    means: dict[str, list[float]] = {}
    for name, tokens in groups.items():
        means[name] = [float(np.mean(token_weights(tokens, frequencies, a)) / _WEIGHT_LIMIT)
                       for a in a_values]
    return WeightCurve(a_values=a_values, group_means=means)


def weight_curve_csv(curve: WeightCurve, frequencies: FrequencyTable) -> str:
    names = list(curve.group_means)
    comment = (f"# normalized mean smooth-frequency weights; "
               f"total_count={frequencies.total_count}")
    return _csv([comment], [["a"] + names] + [
        [f"{a:g}"] + [f"{curve.group_means[n][i]:.6f}" for n in names]
        for i, a in enumerate(curve.a_values)])
