"""The benchmark's tracer wraps noppa functions at the bindings listed in
``benchmark/spans.py``; a binding that no longer resolves silently drops its
spans from every benchmark run, so each one is checked here.  A recorder
that can no longer read a call's arguments fails every traced run, so a
tiny ``embed`` and ``eval`` also run under the tracer.  Every command line
that ``benchmark/run.py`` builds must parse with the current CLI, so its
workloads are driven here with a spawn that records them."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
SPANS = BENCHMARK / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("benchmark_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_binding_resolves_to_a_callable():
    bindings = load_spans().BINDINGS
    assert bindings
    missing = []
    for module_name, attr, _, _ in bindings:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


DIM = 4
WORDS = ["the", "girl", "eats", "a", "cake", "dog", "runs", "fast"]


@pytest.fixture
def tables(tmp_path):
    rng = np.random.default_rng(3)
    (tmp_path / "vectors.txt").write_text("".join(
        f"{w} {' '.join(f'{v:.6f}' for v in rng.standard_normal(DIM))}\n"
        for w in WORDS))
    (tmp_path / "freq.tsv").write_text("".join(
        f"{w}\t{(i + 1) * 10}\n" for i, w in enumerate(WORDS)))
    # Every line keeps a known word: a call that raises records no counts.
    lines = [" ".join(WORDS[(i + j) % len(WORDS)] for j in range(2 + i % 4))
             for i in range(40)]
    (tmp_path / "lines.txt").write_text("\n".join(lines) + "\n")
    (tmp_path / "data.tsv").write_text(
        "".join(f"{i % 2}\t{line}\n" for i, line in enumerate(lines)))
    return tmp_path


@pytest.mark.parametrize("command", ["embed", "eval"])
def test_traced_run_records_every_count(tables, command):
    tables_argv = ["--vectors", str(tables / "vectors.txt"),
                   "--freq", str(tables / "freq.tsv")]
    argv = {
        "embed": ["embed", *tables_argv, "--out", str(tables / "out.csv"),
                  str(tables / "lines.txt")],
        "eval": ["eval", *tables_argv, "--a-grid", "0.05", "--k-grid", "0,1",
                 "--seeds", "1", str(tables / "data.tsv")],
    }[command]
    trace = tables / "spans.json"
    done = subprocess.run(
        [sys.executable, str(BENCHMARK / "child.py"), str(tables / "rss"),
         "--trace", str(trace), "run", "--", *argv],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"))
    assert done.returncode == 0, done.stderr
    dump = json.loads(trace.read_text())
    assert dump["missing"] == []
    recorded = {name for _, _, name, counts in load_spans().BINDINGS if counts}
    spans = [sp for sp in dump["spans"] if sp[0] in recorded]
    assert [sp for sp in spans if sp[4] is None] == []
    contextual = [sp[4] for sp in spans if sp[0] == "encoder.contextual_embeddings"]
    assert contextual and all(c["d"] == DIM for c in contextual)


def test_every_benchmark_command_parses(tmp_path, monkeypatch):
    from noppa.cli import build_parser, main

    monkeypatch.syspath_prepend(str(BENCHMARK))
    run = importlib.import_module("run")
    monkeypatch.setattr(run, "CACHE", str(tmp_path))
    recorded = []

    def spawn(kind, argv, stdout_path, stderr_path, trace=None):
        recorded.append((kind, argv[0]))
        try:
            build_parser().parse_args(argv)
        except SystemExit:
            pytest.fail(f"the benchmark's {kind} command does not parse: {argv}")
        for path in (stdout_path, stderr_path):
            open(path, "w").close()
        # fit-noise runs, so that the embed inputs are complete; every
        # other command is reported as failed without running.
        code = main(argv) if argv[0] == "fit-noise" else 1
        return run.ChildRun(kind=kind, cpus=[0], started=0.0, wall_s=0.0, cpu_s=0.0,
                            peak_rss_mb=0.0, returncode=code, load_before=0.0,
                            load_after=0.0)

    monkeypatch.setattr(run, "spawn", spawn)
    for name in run.WORKLOADS:
        workload = run.make_workload(name, "tiny")
        workload.prepare(1)
        workload.setup()
        workload.command()
    # embed-long reuses the inputs (and the noise model) of embed-sst2.
    assert recorded == [("fit-noise", "fit-noise"), ("setup", "embed"),
                        ("command", "embed"), ("setup", "embed"),
                        ("command", "embed"), ("setup", "embed"),
                        ("command", "eval")]
