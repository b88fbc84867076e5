"""Span tracing around the calls into each noppa layer, and the per-layer
metrics derived from the spans.

The tracer replaces public functions at the binding each caller uses (for
example ``noppa.pipeline.encode``, which ``Pipeline.embed`` calls) with a
wrapper that records one span per call: name, start and end in
``perf_counter_ns``, the index of the enclosing span and, for a few spans,
counts of the work done.  Spans stay in memory and are written out once, at
the end of the command.  The program itself is not modified.

A layer is the module part of a span name (``encoder.attention`` belongs to
``encoder``).  A span's self time is its duration minus the durations of its
direct children, so the self times of all spans add up to the root span.
The tracer assumes one thread, which is how the benchmark runs the CLI.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
from time import perf_counter_ns

ROOT_SPAN = "cli.main"


def _token_counts(args, kwargs, result):
    return {"kept": len(result.tokens), "dropped": len(result.dropped)}


def _kernel_size(args, kwargs, result):
    tokens = args[0] if args else kwargs["tokens"]
    config = args[2] if len(args) > 2 else kwargs["config"]
    return {"n": len(tokens), "d": config.dim}


def _file_bytes(args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


# (module, attribute at the caller's binding, span name, counts recorder)
BINDINGS = [
    ("noppa.cli", "load_vectors", "lexicon.load_vectors", _file_bytes),
    ("noppa.cli", "load_frequencies", "lexicon.load_frequencies", _file_bytes),
    ("noppa.denoiser", "load", "denoiser.load", None),
    ("noppa.denoiser", "fit", "denoiser.fit", None),
    ("noppa.denoiser", "remove", "denoiser.remove", None),
    ("noppa.denoiser", "remove_matrix", "denoiser.remove_matrix", None),
    ("noppa.pipeline", "Pipeline.embed", "pipeline.embed", None),
    ("noppa.pipeline", "tokenize", "lexicon.tokenize", _token_counts),
    ("noppa.pipeline", "encode", "encoder.encode", None),
    ("noppa.encoder", "contextual_embeddings", "encoder.contextual_embeddings",
     _kernel_size),
    ("noppa.encoder", "attention", "encoder.attention", None),
    ("noppa.evalkit", "embed_split", "evalkit.embed_split", None),
    ("noppa.evalkit", "tokenize", "lexicon.tokenize", _token_counts),
    ("noppa.evalkit", "contextual_embeddings", "encoder.contextual_embeddings",
     _kernel_size),
    ("noppa.evalkit", "train_classifier", "evalkit.train_classifier", None),
]


class Tracer:
    """In-memory span recorder for one CLI command."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, counts]
        self.missing: list[str] = []
        self._stack: list[int] = []

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0, 0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter_ns()
                stack.pop()
            if counts is not None:
                record[4] = counts(args, kwargs, result)
            return result

        return traced

    def install(self, bindings=BINDINGS) -> None:
        """Wrap every binding; one that no longer exists is noted, not fatal."""
        for module_name, attr, name, counts in bindings:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            if owner is None or not hasattr(owner, leaf):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(owner, leaf, self.wrap(name, getattr(owner, leaf), counts))

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "missing": self.missing,
                       "spans": self.spans}, fh)


def self_times(spans) -> list[int]:
    """Self time in ns of every span (duration minus its direct children)."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_self_seconds(spans) -> dict[str, float]:
    """Self time per layer; the values add up to the root span."""
    out: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span[0].split(".")[0]
        out[layer] = out.get(layer, 0.0) + own / 1e9
    return out


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q / 100 * len(ordered)))]


def layer_metrics(spans) -> dict[str, float | None]:
    """Per-layer metrics of one traced command.

    ``_calls`` and the token and kernel counts are exact counts.  ``_s`` is
    the summed duration of a span, ``_self_s`` its summed self time.  A
    metric of a span that recorded no calls is ``None``.
    """
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    for (name, start, end, _, _), s in zip(spans, own):
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0) + end - start
        self_ns[name] = self_ns.get(name, 0) + s

    def secs(table, name):
        return table[name] / 1e9 if calls.get(name) else None

    def named(name):
        return [sp for sp in spans if sp[0] == name]

    def parent_name(sp):
        return spans[sp[3]][0] if sp[3] >= 0 else None

    # A call that raised (an all-OOV sentence reaching the encoder) recorded
    # no counts, and did no kernel work.
    load_bytes = sum(sp[4]["bytes"] for sp in named("lexicon.load_vectors")
                     if sp[4])
    load_s = secs(total, "lexicon.load_vectors")
    tokenized = [sp for sp in named("lexicon.tokenize") if sp[4]]
    contextual = [sp for sp in named("encoder.contextual_embeddings") if sp[4]]
    kernel_elems = sum(sp[4]["n"] ** 2 * sp[4]["d"] for sp in contextual)
    contextual_self = secs(self_ns, "encoder.contextual_embeddings")
    # Per-sentence encoder latency: the outermost encoder span of each
    # sentence (encode on the embed path, contextual_embeddings under evalkit).
    outer = [sp[2] - sp[1] for sp in spans if sp[0].startswith("encoder.")
             and not (parent_name(sp) or "").startswith("encoder.")]
    outer_s = sum(outer) / 1e9
    # Removal entries: remove, or remove_matrix called from outside remove.
    removals = [sp for sp in spans if sp[0] == "denoiser.remove"
                or (sp[0] == "denoiser.remove_matrix"
                    and parent_name(sp) != "denoiser.remove")]
    split_sentences = sum(1 for sp in tokenized
                          if parent_name(sp) == "evalkit.embed_split"
                          and sp[4]["kept"] > 0)
    split_contextual = sum(1 for sp in contextual
                           if parent_name(sp) == "evalkit.embed_split")

    def ratio(num, den):
        return num / den if num is not None and den else None

    return {
        "cli.self_s": secs(self_ns, ROOT_SPAN),
        "lexicon.load_vectors_s": load_s,
        "lexicon.load_vectors_mb_per_s": ratio(load_bytes / 1e6, load_s),
        "lexicon.load_frequencies_s": secs(total, "lexicon.load_frequencies"),
        "lexicon.tokenize_calls": calls.get("lexicon.tokenize", 0),
        "lexicon.tokenize_s": secs(total, "lexicon.tokenize"),
        "lexicon.tokens_kept": sum(sp[4]["kept"] for sp in tokenized),
        "lexicon.tokens_dropped": sum(sp[4]["dropped"] for sp in tokenized),
        "pipeline.embed_calls": calls.get("pipeline.embed", 0),
        "pipeline.embed_self_s": secs(self_ns, "pipeline.embed"),
        "encoder.encode_calls": calls.get("encoder.encode", 0),
        "encoder.encode_self_s": secs(self_ns, "encoder.encode"),
        "encoder.contextual_calls": calls.get("encoder.contextual_embeddings", 0),
        "encoder.contextual_self_s": contextual_self,
        "encoder.contextual_self_share": ratio(contextual_self, outer_s),
        "encoder.attention_s": secs(total, "encoder.attention"),
        "encoder.kernel_elems": kernel_elems,
        "encoder.kernel_ns_per_elem": ratio(
            None if contextual_self is None else contextual_self * 1e9,
            kernel_elems),
        "encoder.encode_p50_us": _percentile(outer, 50) / 1e3 if outer else None,
        "encoder.encode_p99_us": _percentile(outer, 99) / 1e3 if outer else None,
        "denoiser.load_s": secs(total, "denoiser.load"),
        "denoiser.remove_calls": len(removals),
        "denoiser.remove_s": (sum(sp[2] - sp[1] for sp in removals) / 1e9
                              if removals else None),
        "denoiser.fit_calls": calls.get("denoiser.fit", 0),
        "denoiser.fit_s": secs(total, "denoiser.fit"),
        "evalkit.embed_split_s": secs(total, "evalkit.embed_split"),
        "evalkit.contextual_per_sentence": ratio(split_contextual,
                                                 split_sentences),
        "evalkit.train_classifier_calls": calls.get("evalkit.train_classifier", 0),
        "evalkit.train_classifier_s": secs(total, "evalkit.train_classifier"),
    }


def median_metrics(per_run: list[dict]) -> dict[str, float | None]:
    """Median of each metric over traced commands, ignoring ``None``."""
    out = {}
    for name in per_run[0]:
        values = [m[name] for m in per_run if m[name] is not None]
        out[name] = statistics.median(values) if values else None
    return out
