"""NoPPA: non-parametric pairwise-attention sentence embeddings.

Builds sentence vectors from pre-trained word vectors and pre-counted
word frequencies alone: positional word vectors feed a softmax pairwise
attention, a log-kernel turns word pairs into contextual components, and
a smooth frequency weight averages the per-word vectors.  A separately
fitted SVD noise model removes the weakest singular directions.
"""

from . import denoiser
from .encoder import (EncoderConfig, attention, contextual_embeddings, encode,
                      log_kernel, sfw)
from .errors import (EmptySentenceError, FormatError, InfeasibleConfigError,
                     NoppaError)
from .lexicon import (FrequencyTable, TokenSequence, VectorTable,
                      load_frequencies, load_vectors, save_vectors, tokenize)
from .pipeline import Pipeline

__all__ = [
    "analysis", "denoiser", "evalkit", "synth",
    "EncoderConfig", "attention", "contextual_embeddings",
    "encode", "log_kernel", "sfw",
    "EmptySentenceError", "FormatError", "InfeasibleConfigError", "NoppaError",
    "FrequencyTable", "TokenSequence", "VectorTable",
    "load_frequencies", "load_vectors", "save_vectors", "tokenize",
    "Pipeline",
]

__version__ = "0.1.0"

# Submodules that the embedding path does not use load on first access
# (``noppa.evalkit`` or ``from noppa import evalkit``), not with the package.
_LAZY_SUBMODULES = frozenset({"analysis", "evalkit", "synth"})


def __getattr__(name):
    if name in _LAZY_SUBMODULES:
        import importlib

        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
