"""Self-tests of the benchmark at a tiny input size.

    python3 -m pytest benchmark -q
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SEED = 5


def _bench(trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seed", str(SEED), "--seconds", "1", "--size", "tiny",
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, check=True)
    return out.stdout.splitlines()


def _declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def embed_workload():
    workload = run.make_workload("embed-sst2", "tiny")
    workload.prepare(SEED)
    return workload


@pytest.mark.parametrize("trace", [0, 1])
def test_one_command_prints_every_metric_with_its_unit(trace):
    lines = _bench(trace)
    declared = _declared()["per_layer" if trace else "end_to_end"]
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in run.WORKLOADS:
        for metric in declared:
            name, unit = metric["name"], metric["unit"]
            assert any(line.split()[:2] == [workload, name] and line.split()[-1] == unit
                       for line in lines), (workload, name)
            assert result["metrics"][f"{workload}/{name}"]["unit"] == unit


def test_declared_workloads_and_metrics_match_the_runner():
    declared = _declared()
    assert [w["name"] for w in declared["workloads"]] == list(run.DECLARED)
    assert set(run.DECLARED) <= set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END
    assert {m["name"] for m in declared["per_layer"]} == set(
        spans.layer_metrics([])) | {"trace.overhead_frac"}


def test_corrupted_row_fails_the_check_and_counts(embed_workload, monkeypatch):
    w = embed_workload
    w.command()
    assert w.failed == 0 and w.attempted == w.units
    out = os.path.join(w.work, "out.csv")
    with open(out, encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    sample = int(next(iter(w.meta["sst2"]["oracle"])))
    values = rows[sample].split(",")
    values[0] = repr(float(values[0]) * (1 + 1e-4))  # finite, but wrong
    rows[sample] = ",".join(values)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    attempted, failed, messages = checks.check_embed(
        "\n".join(rows) + "\n", w.meta["sst2"], w.meta["dim"],
        w.meta["total_count"], run.A, w.noise_rows, run.ROOT)
    assert failed == 1 and "oracle" in messages[0]

    # Through the workload: a run whose output has one row of nans.
    spawn = run.spawn

    def corrupting_spawn(*args, **kwargs):
        result = spawn(*args, **kwargs)
        with open(out, encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        rows[sample] = ",".join(["nan"] * len(rows[sample].split(",")))
        with open(out, "w", encoding="utf-8") as fh:
            fh.write("\n".join(rows) + "\n")
        return result

    monkeypatch.setattr(run, "spawn", corrupting_spawn)
    before = w.failed
    w.command()
    assert w.failed == before + 1
    assert w.failed / w.attempted > 0


def test_missing_or_extra_rows_fail(embed_workload):
    w = embed_workload
    w.command()
    with open(os.path.join(w.work, "out.csv"), encoding="utf-8") as fh:
        rows = fh.read().splitlines()
    args = (w.meta["sst2"], w.meta["dim"], w.meta["total_count"], run.A,
            w.noise_rows, run.ROOT)
    assert checks.check_embed("\n".join(rows[:-1]), *args)[1] >= 1
    oov = w.meta["sst2"]["all_oov"]
    if oov:
        rows[oov[0]] = rows[0 if oov[0] else 1]
        assert checks.check_embed("\n".join(rows), *args)[1] == 1


def test_eval_check_counts_missing_runs():
    log = "\n".join(f"synth,noppa,{a},{k},{s},80.0,75.0,1.0,1.0"
                    for a in (0.03, 0.05) for k in (0, 5) for s in (1, 2))
    out = "dev-best config a=0.05 k=5: test 75.0±0.00 over 2 seeds\n"
    grid = ((0.03, 0.05), (0, 5), (1, 2))
    assert checks.check_eval(0, out, log, *grid)[:2] == (8, 0)
    assert checks.check_eval(0, out, log.rsplit("\n", 1)[0], *grid)[1] == 1
    assert checks.check_eval(0, "", log, *grid)[1] >= 1
    assert checks.check_eval(1, out, log, *grid)[1] == 8


def test_layer_self_times_sum_to_the_root_span(embed_workload, tmp_path):
    w = embed_workload
    path = str(tmp_path / "spans.json")
    w.command(trace=(path, "selftest"))
    with open(path, encoding="utf-8") as fh:
        recorded = json.load(fh)
    assert not recorded["missing"]
    span_list = recorded["spans"]
    root = [sp for sp in span_list if sp[3] == -1]
    assert [sp[0] for sp in root] == [spans.ROOT_SPAN]
    assert sum(spans.self_times(span_list)) == root[0][2] - root[0][1]
    layers = spans.layer_self_seconds(span_list)
    assert set(layers) == {"cli", "lexicon", "pipeline", "encoder", "denoiser"}
    assert sum(layers.values()) == pytest.approx((root[0][2] - root[0][1]) / 1e9,
                                                 rel=1e-9)
    metrics = spans.layer_metrics(span_list)
    assert metrics["pipeline.embed_calls"] == w.units
    assert metrics["evalkit.embed_split_s"] is None  # no calls: null, not 0
    assert metrics["lexicon.tokens_kept"] == w.meta["sst2"]["tokens_kept"]


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "benchmark"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    out = subprocess.run([sys.executable, "benchmark/run.py", "--workload",
                          "embed-sst2", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=tmp_path, capture_output=True,
                         text=True, timeout=60)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
