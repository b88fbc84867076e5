"""Output checks.  Each returns (attempted, failed, messages); an operation is
an input line for ``embed`` and one (a, k, seed) grid run for ``eval``.
"""

from __future__ import annotations

import math
import re
import sys

import numpy as np

# The oracle recomputes a row from the same float32 vectors in scalar
# float64; the engine may differ only by summation order and by documented
# lower-precision fast paths, never by more than this share of the row's
# largest magnitude.
ORACLE_RTOL = 1e-6


def _oracles(root):
    sys.path.insert(0, f"{root}/tests")
    try:
        import oracles
    finally:
        sys.path.pop(0)
    return oracles


def read_noise_rows(path) -> list[list[float]]:
    """The k direction rows of a saved noise model (format ``NOPPA-NOISE v1``)."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    k = int(lines[0].split()[2].removeprefix("k="))
    return [[float(v) for v in line.split()] for line in lines[1:1 + k]]


def check_embed(csv_text: str, section: dict, dim: int, total_count: int,
                a: float, noise_rows, root) -> tuple[int, int, list[str]]:
    """Check one ``noppa embed`` CSV against the generated input's metadata.

    * one row per input line, each with 2*dim fields;
    * all-OOV lines give all-``nan`` rows, every other row is finite;
    * the sampled rows match ``tests/oracles.py`` (sentence_embedding, then
      remove_projection with the saved noise model) within ORACLE_RTOL.
    """
    expected = section["lines"]
    rows = csv_text.splitlines()
    messages = []
    failed = 0
    if len(rows) != expected:
        messages.append(f"{len(rows)} rows for {expected} lines")
        failed += abs(len(rows) - expected)
    all_oov = set(section["all_oov"])
    width = 2 * dim
    parsed: dict[int, np.ndarray] = {}
    for i, row in enumerate(rows[:expected]):
        try:
            values = np.array(row.split(","), dtype=np.float64)
        except ValueError:
            values = np.zeros(0)
        if values.shape != (width,):
            ok = False
        elif i in all_oov:
            ok = bool(np.isnan(values).all())
        else:
            ok = bool(np.isfinite(values).all())
        if ok:
            parsed[i] = values
        else:
            failed += 1
            if len(messages) < 5:
                messages.append(f"row {i + 1} malformed, non-finite or not nan")

    oracles = _oracles(root)
    for key, sample in section["oracle"].items():
        i = int(key)
        if i not in parsed:
            continue  # already counted as failed
        words = [np.array(v.split(), dtype=np.float32).astype(np.float64).tolist()
                 for v in sample["vectors"]]
        probs = [c / total_count for c in sample["counts"]]
        want = oracles.remove_projection(
            oracles.sentence_embedding(words, probs, a), noise_rows)
        want = np.array(want)
        err = float(np.abs(parsed[i] - want).max())
        limit = ORACLE_RTOL * float(np.abs(want).max())
        if not err <= limit:
            failed += 1
            messages.append(f"row {i + 1} differs from the oracle by {err:.3g} "
                            f"(limit {limit:.3g})")
    return expected, failed, messages


_BEST = re.compile(r"dev-best config a=(\S+) k=(\d+): test ([0-9.]+)±([0-9.]+) "
                   r"over (\d+) seeds")


def check_eval(returncode: int, stdout: str, log_text: str, a_grid, k_grid,
               seeds) -> tuple[int, int, list[str], float | None]:
    """Check one ``noppa eval``: exit 0, one log line per grid run, and a
    dev-best line whose test mean agrees with the log.  Also returns the
    dev-best mean test accuracy in percent."""
    want = {(a, k, s) for a in a_grid for k in k_grid for s in seeds}
    attempted = len(want)
    if returncode != 0:
        return attempted, attempted, [f"eval exited {returncode}"], None
    seen: dict[tuple, tuple[float, float]] = {}
    messages = []
    for line in log_text.splitlines():
        fields = line.split(",")
        try:
            key = (float(fields[2]), int(fields[3]), int(fields[4]))
            dev, test = float(fields[5]), float(fields[6])
        except (IndexError, ValueError):
            messages.append(f"malformed log line {line!r}")
            continue
        if key not in want or key in seen or not (0 <= dev <= 100 and 0 <= test <= 100):
            messages.append(f"unexpected log line {line!r}")
            continue
        seen[key] = (dev, test)
    failed = attempted - len(seen)
    match = _BEST.search(stdout)
    if match is None:
        messages.append("no dev-best line")
        return attempted, max(failed, 1), messages, None
    a, k, mean = float(match[1]), int(match[2]), float(match[3])
    tests = [seen[(a, k, s)][1] for s in seeds if (a, k, s) in seen]
    if len(tests) != len(seeds) or not math.isclose(
            sum(tests) / len(tests), mean, abs_tol=0.051):
        messages.append(f"dev-best test mean {mean} disagrees with the log")
        failed = max(failed, 1)
    return attempted, failed, messages, mean
