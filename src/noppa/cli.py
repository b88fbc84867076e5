"""Command-line interface.

Subcommands: embed, fit-noise, attention, contrib, weight-curve, eval,
bench (the length-scaling probe of acceptance criterion C5; the end-to-end
timing of the other subcommands is ``benchmark/run.py``).  Exit codes: 0
ok, 1 runtime error, 2 missing input, 3 infeasible configuration, 64
usage.  Each subcommand accepts only the flags it reads.
Randomness enters only through ``eval --seeds`` (``bench``'s probe draws
its sentences with a fixed seed); identical flags produce byte-identical
primary output files.
"""

from __future__ import annotations

import argparse
import contextlib
import logging
import math
import os
import sys

import numpy as np

# evalkit, analysis and bench are imported by the subcommands that run
# them, so that embed and fit-noise start without them.
from . import csvout, denoiser
from .encoder import VARIANTS, EncoderConfig, check_a_k
from .errors import InfeasibleConfigError, NoppaError
from .lexicon import load_frequencies, load_vectors, read_lines
from .pipeline import Pipeline

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_MISSING_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_USAGE = 64

DATA_DIR_ENV = "NOPPA_DATA_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage errors exit with code 64 and that takes
    flags only in full (else ``eval --seed`` would be read as ``--seeds``)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


class MissingInputError(NoppaError):
    """An input path that names no file (exit 2)."""


DEFAULT_A = 0.05  # -a's default, and the a that bench encodes at

# Every flag a subcommand may declare: name -> add_argument keywords.
_FLAGS = {
    "--vectors": dict(required=True, help="word-vector text file"),
    "--freq": dict(required=True, help="token<TAB>count frequency file"),
    "-a": dict(type=float, default=DEFAULT_A,
               help=f"frequency-smoothing constant (default {DEFAULT_A})"),
    "-k": dict(type=int, default=0, help="number of noise directions (default 0)"),
    "--no-positions": dict(action="store_true", help="disable positional offsets"),
    "--noise-model": dict(help="noise-model file to apply"),
    "--out": dict(help="output file (default stdout)"),
    "--unsafe-ranges": dict(action="store_true",
                            help="allow a/k outside the documented ranges"),
}


def _add_flags(parser, *names):
    for name in names:
        parser.add_argument(name, **_FLAGS[name])


def _open_input(path: str, directory_ok: bool = False) -> str:
    """Resolve an input path, falling back to $NOPPA_DATA_DIR as search root."""
    root = os.environ.get(DATA_DIR_ENV)
    resolved = os.path.join(root, path) if root and not os.path.exists(path) else path
    if not os.path.exists(resolved):
        raise MissingInputError(f"missing input: {path}")
    if os.path.isdir(resolved) and not directory_ok:
        raise MissingInputError(f"input is a directory: {path}")
    return resolved


def _load_tables(args):
    """The vector table of --vectors and the frequencies of --freq."""
    return (load_vectors(_open_input(args.vectors)),
            load_frequencies(_open_input(args.freq)))


def _build_pipeline(args) -> Pipeline:
    # fit-noise's -k is the k it fits.  embed's (``directions``) applies that
    # many of --noise-model's directions, and all of them when not given.
    directions = getattr(args, "directions", None)
    check_a_k([args.a], [getattr(args, "k", 0), directions or 0],
              enforce_ranges=not args.unsafe_ranges)
    if directions and not args.noise_model:
        raise InfeasibleConfigError(f"k={directions} but no --noise-model "
                                    f"to take its directions from")
    vectors, frequencies = _load_tables(args)
    noise = None
    if getattr(args, "noise_model", None):
        noise = denoiser.load(_open_input(args.noise_model))
        if noise.dim != 2 * vectors.dim:  # refused before --out is opened
            raise NoppaError(f"dim mismatch: vectors dim {2 * vectors.dim} "
                             f"vs model dim {noise.dim}")
        if directions is not None:
            noise = noise.smallest(directions)
    config = EncoderConfig(a=args.a, dim=vectors.dim,
                           use_positions=not args.no_positions)
    return Pipeline(vectors=vectors, frequencies=frequencies,
                    config=config, noise=noise)


def _write_out(args, pieces):
    """Write the text pieces, in order, to --out (each flushed as it is
    written) or else to stdout."""
    with (open(args.out, "w", encoding="utf-8", buffering=1) if args.out
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(pieces)


# Lines of embedding CSV formatted and written at a time.  The formatter's
# temporaries take about 0.2 MB per line at 2d = 600; at 16 lines they stay
# below the peak of the embedding stage itself.
_CSV_CHUNK_LINES = 16


def _embedding_csv(pipe, lines):
    """The CSV of ``lines``, a chunk at a time as they are embedded: row i is
    line i's vector, or all nan (and a warning) if it has no known token."""
    nan_row = np.full(2 * pipe.config.dim, np.nan)
    block = []
    for i, row in enumerate(pipe.embed_lines(lines), 1):
        if row is None:
            print(f"warning: line {i} produced no embeddable tokens", file=sys.stderr)
            row = nan_row
        block.append(row)
        if len(block) == _CSV_CHUNK_LINES or i == len(lines):
            yield csvout.format_rows(np.array(block)).decode("ascii")
            block = []


def cmd_embed(args) -> int:
    pipe = _build_pipeline(args)
    lines = [line for _, line in read_lines(_open_input(args.sentences))]
    _write_out(args, _embedding_csv(pipe, lines))
    return EXIT_OK


def cmd_fit_noise(args) -> int:
    pipe = _build_pipeline(args)
    rows = pipe.embed_lines(line for _, line in read_lines(_open_input(args.sentences)))
    model = denoiser.fit((row for row in rows if row is not None), args.k)
    if model.undetermined:  # retained directions of singular value 0 to rounding
        print(f"warning: {model.undetermined} of the {model.k} noise directions "
              f"are not determined by the data", file=sys.stderr)
    denoiser.save(model, args.out)
    return EXIT_OK


def cmd_attention(args) -> int:
    from . import analysis

    vectors = load_vectors(_open_input(args.vectors))
    _write_out(args, [analysis.attention_report(args.sentence, vectors,
                                                not args.no_positions)])
    return EXIT_OK


def cmd_contrib(args) -> int:
    from . import analysis

    pipe = _build_pipeline(args)
    report = analysis.contribution_report(args.sentence, pipe)
    _write_out(args, [analysis.contribution_csv(report, pipe)])
    return EXIT_OK


def _parse_grid(text: str, cast):
    """One or more finite comma-separated numbers, each within float range."""
    try:
        values = [cast(v) for v in text.split(",") if v != ""]
        ok = bool(values) and all(map(math.isfinite, values))
    except (ValueError, OverflowError):  # OverflowError: an int past float range
        ok = False
    if not ok:
        raise NoppaError(f"cannot parse grid {text!r}")
    return values


def cmd_weight_curve(args) -> int:
    from . import analysis

    a_grid = _parse_grid(args.a_grid, float)
    check_a_k(a_grid)
    groups = {}
    for spec in args.group:
        if "=" not in spec:
            raise NoppaError(f"--group expects NAME=tok1,tok2,... got {spec!r}")
        name, tokens = spec.split("=", 1)
        if name in groups:
            raise NoppaError(f"repeated --group name: {name!r}")
        groups[name] = [t for t in tokens.split(",") if t]
    analysis.check_groups(groups)  # before the --freq load
    frequencies = load_frequencies(_open_input(args.freq))
    curve = analysis.weight_curve(groups, frequencies, a_grid)
    _write_out(args, [analysis.weight_curve_csv(curve, frequencies)])
    return EXIT_OK


def cmd_eval(args) -> int:
    from . import evalkit

    a_grid = _parse_grid(args.a_grid, float)
    k_grid = _parse_grid(args.k_grid, int)
    seeds = _parse_grid(args.seeds, int)
    evalkit.check_grid(a_grid, k_grid, seeds, enforce_ranges=not args.unsafe_ranges)
    evalkit.check_limits(args.train_limit, args.dev_limit, args.test_limit)
    evalkit.check_name(args.name)
    vectors, frequencies = _load_tables(args)
    dataset = evalkit.load_dataset(args.name,
                                   _open_input(args.dataset, directory_ok=True))
    dataset = evalkit.subset(dataset, args.train_limit, args.dev_limit,
                             args.test_limit)
    result = evalkit.grid_search(
        dataset, vectors, frequencies,
        a_grid=a_grid, k_grid=k_grid, seeds=seeds, variant=args.variant,
        use_positions=not args.no_positions,
        fit_on_test=args.fit_on_test,
        enforce_ranges=not args.unsafe_ranges,
        log_path=args.log)
    print(f"{dataset.name} {args.variant}: best dev run a={result.best.a:g} "
          f"k={result.best.k} seed={result.best.seed} "
          f"dev={result.best.dev_accuracy:.2f} test={result.best.test_accuracy:.2f}")
    print(f"dev-best config a={result.best_a:g} k={result.best_k}: "
          f"test {result.test_mean:.1f}±{result.test_std:.2f} "
          f"over {len({r.seed for r in result.runs})} seeds")
    return EXIT_OK


def cmd_bench(args) -> int:
    from . import bench

    bench.check_options(args.scale_n)
    vectors, frequencies = _load_tables(args)
    config = EncoderConfig(a=DEFAULT_A, dim=vectors.dim)
    sys.stdout.write(bench.report(vectors, frequencies, config, args.scale_n))
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="noppa",
                     description="Non-parametric sentence embeddings")
    sub = parser.add_subparsers(dest="command", required=True)

    pipeline_flags = ("--vectors", "--freq", "-a", "--no-positions",
                      "--unsafe-ranges")

    p = sub.add_parser("embed", help="embed a sentences file to CSV")
    _add_flags(p, *pipeline_flags, "--noise-model", "--out")
    p.add_argument("-k", dest="directions", metavar="K", type=int,
                   help="apply the K directions of --noise-model with the "
                        "smallest singular values (default: all of them)")
    p.add_argument("sentences", help="input file, one sentence per line")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("fit-noise", help="fit and save a noise model")
    _add_flags(p, *pipeline_flags, "-k")
    p.add_argument("--out", required=True, help="noise-model file to write")
    p.add_argument("sentences", help="training sentences, one per line")
    p.set_defaults(func=cmd_fit_noise)

    p = sub.add_parser("attention", help="attention matrix CSV for one sentence")
    _add_flags(p, "--vectors", "--no-positions", "--out")
    p.add_argument("sentence")
    p.set_defaults(func=cmd_attention)

    p = sub.add_parser("contrib", help="per-word contribution scores CSV")
    _add_flags(p, *pipeline_flags, "--noise-model", "--out")
    p.add_argument("sentence")
    p.set_defaults(func=cmd_contrib)

    p = sub.add_parser("weight-curve", help="weight-vs-a curves CSV")
    _add_flags(p, "--freq", "--out")
    p.add_argument("--group", action="append", required=True,
                   help="NAME=tok1,tok2,... (repeatable)")
    p.add_argument("--a-grid", default="1,0.1,0.01,0.001")
    p.set_defaults(func=cmd_weight_curve)

    p = sub.add_parser("eval", help="grid-search evaluation on a dataset")
    _add_flags(p, "--vectors", "--freq", "--no-positions", "--unsafe-ranges")
    p.add_argument("dataset", help="TSV file or split directory")
    p.add_argument("--name", default="dataset")
    p.add_argument("--variant", choices=VARIANTS, default="noppa")
    p.add_argument("--a-grid", default="0.01,0.03,0.05,0.1")
    p.add_argument("--k-grid", default="0,5,10,15,20")
    p.add_argument("--seeds", default="1034")
    p.add_argument("--train-limit", type=int)
    p.add_argument("--dev-limit", type=int)
    p.add_argument("--test-limit", type=int)
    p.add_argument("--fit-on-test", action="store_true",
                   help="fit the noise model on train+test sentences")
    p.add_argument("--log", help="run-log file (appended)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("bench", help="length-scaling probe")
    _add_flags(p, "--vectors", "--freq")
    p.add_argument("--scale-n", type=int, required=True,
                   help="run the length-scaling probe at n and 2n")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except MissingInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_INPUT
    except InfeasibleConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (NoppaError, OSError) as exc:  # OSError: e.g. an unwritable --out
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
