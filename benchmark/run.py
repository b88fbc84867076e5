"""Benchmark of the noppa command line, end to end and layer by layer.

    python3 benchmark/run.py --workload embed-sst2 --seed 1 --seconds 30 --trace 0

Workloads (``--workload all`` runs the three in turn; ``BENCHMARK.json``
declares embed-sst2 and eval-grid):

* ``embed-sst2``: ``noppa embed --noise-model`` (k=10) on 1500 SST-2-length
  lines (5-40 tokens, mean 20) Zipf-sampled from a 10k x 300 text table.
* ``embed-long``: the same command and tables on 150 lines of 64-128 tokens.
* ``eval-grid``: ``noppa eval`` on the synth topic corpus (dim 50,
  500/250/500) over a 4 x 5 grid of a and k and 3 classifier seeds.

Every command runs in a fresh Python process, exactly as a user types it
after ``noppa``, with BLAS pinned to one thread.  Inputs come from
``--seed`` and are built once per seed under ``.bench_cache/`` before any
timing starts.  Within ``--seconds`` the run alternates cold one-line embeds
(``setup_s``) with the full command.

Times (``setup_s``, ``wall_s``, ``cpu_s``) are the fastest of the window's
processes, not their median.  On a shared 2-vCPU host a fixed 50-ms loop
ran at 50 ms or at up to 100 ms, switching within seconds, and the median
of a 35-s window of it spread by a fifth to a third from window to window,
while its fastest tenth stayed within a few percent.  The slowdown shows in
CPU time too, so it comes from the host, not the program.  The median, the
slowest and the sample count are printed beside each time.

Every output is checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and the metrics.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced commands with commands traced by ``spans.Tracer`` and reports the
per-layer metrics; ``trace.overhead_frac`` is the fastest traced over the
fastest untraced wall time, minus one.  The full span lists and a record of
the machine and of every process are written to ``.bench_cache/runs/``.

Exit codes: 0 done (check ``correct``), 2 the checkout lacks the program.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

import checks
import inputs
import spans

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
CACHE = os.path.join(ROOT, ".bench_cache")

WORKLOADS = ("embed-sst2", "embed-long", "eval-grid")
# The workloads BENCHMARK.json declares.  embed-long runs by hand only: two
# workloads leave room for 60-s runs in the time the full set of runs may
# take, and a longer window rides out more of the host's slow spells.  Every
# layer is still measured on embed-sst2 or eval-grid.
DECLARED = ("embed-sst2", "eval-grid")
A = 0.05
NOISE_K = 10
A_GRID = (0.01, 0.03, 0.05, 0.1)
K_GRID = (0, 5, 10, 15, 20)
THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "sent_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "test_acc_pct": "%",
}
PER_LAYER_UNITS = {"_mb_per_s": "MB/s", "_s": "s", "_us": "us",
                   "_calls": "count", "_per_elem": "ns", "_frac": "ratio",
                   "_share": "ratio", "_per_sentence": "ratio"}
MIN_SETUPS = 5
MIN_COMMANDS = 3


def layer_unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


@dataclass
class ChildRun:
    kind: str
    cpus: list[int]  # the CPUs it was allowed to run on
    started: float  # seconds since the epoch
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int
    load_before: float
    load_after: float


def spawn(kind, argv, stdout_path, stderr_path, trace=None) -> ChildRun:
    """Run ``child.py`` on one CLI argv and wait for it.  CPU time comes from
    ``wait4``, peak RSS from the child itself."""
    rss_file = stdout_path + ".rss" if stdout_path != os.devnull else stderr_path + ".rss"
    args = [sys.executable, CHILD, rss_file]
    if trace is not None:
        args += ["--trace", *trace]
    args += ["--", *argv]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path, flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, stderr_path, flags, 0o644)]
    env = dict(os.environ, **THREADS)
    load_before = os.getloadavg()[0]
    started = time.time()
    start = time.perf_counter()
    pid = os.posix_spawn(sys.executable, args, env, file_actions=actions)
    try:
        _, status, usage = os.wait4(pid, 0)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    wall = time.perf_counter() - start
    try:
        peak_kib = int(_read(rss_file))
    except (OSError, ValueError):
        peak_kib = usage.ru_maxrss  # the child died before writing it
    return ChildRun(kind=kind, cpus=sorted(os.sched_getaffinity(0)),
                    started=started, wall_s=wall, cpu_s=usage.ru_utime + usage.ru_stime,
                    peak_rss_mb=peak_kib / 1024.0,
                    returncode=os.waitstatus_to_exitcode(status),
                    load_before=load_before, load_after=os.getloadavg()[0])


def _read(path) -> str:
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# Workloads


class Workload:
    """Inputs, commands and output checks of one workload."""

    def __init__(self, name, size):
        self.name = name
        self.size = size
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def count(self, attempted, failed, messages):
        self.attempted += attempted
        self.failed += failed
        self.messages += [f"{self.name}: {m}" for m in messages]

    def prepare(self, seed) -> None:
        raise NotImplementedError


class EmbedWorkload(Workload):
    def __init__(self, name, size, lines_file, section):
        super().__init__(name, size)
        self.lines_file = lines_file
        self.section = section
        self.good_digest = None

    def prepare(self, seed):
        self.dir = inputs.cached(CACHE, "embed", seed, self.size,
                                 inputs.build_embed, finish=self._fit_noise)
        self.meta = json.loads(_read(os.path.join(self.dir, "meta.json")))
        self.units = self.meta[self.section]["lines"]
        self.noise_rows = checks.read_noise_rows(os.path.join(self.dir, "noise.txt"))
        self.work = os.path.join(CACHE, "work", self.name)
        os.makedirs(self.work, exist_ok=True)

    @staticmethod
    def _argv(directory, lines, out):
        return ["embed", "--vectors", f"{directory}/vectors.txt",
                "--freq", f"{directory}/freq.tsv",
                "--noise-model", f"{directory}/noise.txt",
                "-a", str(A), "-k", str(NOISE_K), "--out", out, lines]

    @staticmethod
    def _fit_noise(directory):
        run = spawn("fit-noise",
                    ["fit-noise", "--vectors", f"{directory}/vectors.txt",
                     "--freq", f"{directory}/freq.tsv", "-a", str(A),
                     "-k", str(NOISE_K), "--out", f"{directory}/noise.txt",
                     f"{directory}/fit.txt"],
                    os.devnull, f"{directory}/fit-noise.err")
        if run.returncode != 0:
            raise RuntimeError("noppa fit-noise failed: "
                               + _read(f"{directory}/fit-noise.err"))

    def setup(self) -> ChildRun:
        out = os.path.join(self.work, "probe.csv")
        run = spawn("setup", self._argv(self.dir, f"{self.dir}/probe.txt", out),
                    os.devnull, os.path.join(self.work, "probe.err"))
        rows = _read(out).splitlines() if run.returncode == 0 else []
        ok = (len(rows) == 1 and len(rows[0].split(",")) == 2 * self.meta["dim"]
              and "nan" not in rows[0])
        self.count(1, 0 if ok else 1, [] if ok else ["setup probe failed"])
        return run

    def command(self, trace=None) -> ChildRun:
        out = os.path.join(self.work, "out.csv")
        run = spawn("traced" if trace else "command",
                    self._argv(self.dir, f"{self.dir}/{self.lines_file}", out),
                    os.devnull, os.path.join(self.work, "command.err"), trace)
        lines = self.units
        if run.returncode != 0:
            self.count(lines, lines, [f"embed exited {run.returncode}"])
        elif self.good_digest is not None and _digest(out) == self.good_digest:
            self.count(lines, 0, [])  # byte-identical to a fully checked output
        else:
            attempted, failed, messages = checks.check_embed(
                _read(out), self.meta[self.section], self.meta["dim"],
                self.meta["total_count"], A, self.noise_rows, ROOT)
            self.count(attempted, failed, messages)
            if failed == 0:
                self.good_digest = _digest(out)
        return run

    def quality_pct(self) -> float:
        """Share of checked output rows that passed (no classifier here)."""
        return 100.0 * (1 - self.failed / self.attempted)


class EvalWorkload(Workload):
    def prepare(self, seed):
        self.dir = inputs.cached(CACHE, "eval", "synth", self.size, inputs.build_eval)
        self.meta = json.loads(_read(os.path.join(self.dir, "meta.json")))
        self.units = self.meta["sentences"]
        self.seeds = [3 * seed + i for i in range(1, 4)]
        if self.size == "tiny":
            self.a_grid, self.k_grid, self.seeds = A_GRID[1:3], K_GRID[:2], self.seeds[:1]
        else:
            self.a_grid, self.k_grid = A_GRID, K_GRID
        self.work = os.path.join(CACHE, "work", self.name)
        os.makedirs(self.work, exist_ok=True)
        self.accuracies: list[float] = []

    def setup(self) -> ChildRun:
        out = os.path.join(self.work, "probe.csv")
        run = spawn("setup",
                    ["embed", "--vectors", f"{self.dir}/vectors.txt",
                     "--freq", f"{self.dir}/freq.tsv", "-a", str(A),
                     "--out", out, f"{self.dir}/probe.txt"],
                    os.devnull, os.path.join(self.work, "probe.err"))
        rows = _read(out).splitlines() if run.returncode == 0 else []
        ok = len(rows) == 1 and "nan" not in rows[0]
        self.count(1, 0 if ok else 1, [] if ok else ["setup probe failed"])
        return run

    def command(self, trace=None) -> ChildRun:
        log = os.path.join(self.work, "runs.log")
        stdout = os.path.join(self.work, "eval.out")
        if os.path.exists(log):
            os.remove(log)  # eval appends to its log
        run = spawn("traced" if trace else "command",
                    ["eval", "--vectors", f"{self.dir}/vectors.txt",
                     "--freq", f"{self.dir}/freq.tsv", f"{self.dir}/corpus",
                     "--name", "synth",
                     "--a-grid", ",".join(map(str, self.a_grid)),
                     "--k-grid", ",".join(map(str, self.k_grid)),
                     "--seeds", ",".join(map(str, self.seeds)), "--log", log],
                    stdout, os.path.join(self.work, "eval.err"), trace)
        log_text = _read(log) if os.path.exists(log) else ""
        attempted, failed, messages, acc = checks.check_eval(
            run.returncode, _read(stdout), log_text, self.a_grid, self.k_grid,
            self.seeds)
        self.count(attempted, failed, messages)
        if acc is not None:
            self.accuracies.append(acc)
        return run

    def quality_pct(self) -> float:
        """Dev-best configuration's mean test accuracy, as ``eval`` prints it."""
        return statistics.median(self.accuracies) if self.accuracies else 0.0


def make_workload(name, size) -> Workload:
    if name == "embed-sst2":
        return EmbedWorkload(name, size, "sst2.txt", "sst2")
    if name == "embed-long":
        return EmbedWorkload(name, size, "long.txt", "long")
    return EvalWorkload(name, size)


# ---------------------------------------------------------------------------
# Measurement


def alternate(steps, minimums, seconds) -> dict[str, list[ChildRun]]:
    """Run the steps in turn until each ran its minimum number of times and
    the next one, judged by its last duration, would end past ``seconds``.

    One process runs at a time, and each round of steps is pinned to the
    next CPU in turn (a child inherits this process's affinity).  The host
    slows its CPUs independently of each other, so this gives the
    fastest-of-window times a quiet stretch on either."""
    cpus = sorted(os.sched_getaffinity(0))
    runs: dict[str, list[ChildRun]] = {name: [] for name, _ in steps}
    start = time.perf_counter()
    i = 0
    try:
        while True:
            name, step = steps[i % len(steps)]
            done = all(len(runs[n]) >= minimums[n] for n in runs)
            last = runs[name][-1].wall_s if runs[name] else 0.0
            if done and time.perf_counter() - start + last > seconds:
                return runs
            if i % len(steps) == 0:
                os.sched_setaffinity(0, {cpus[i // len(steps) % len(cpus)]})
            runs[name].append(step())
            i += 1
    finally:
        os.sched_setaffinity(0, cpus)


def _chronological(runs) -> list[ChildRun]:
    return sorted((r for group in runs.values() for r in group),
                  key=lambda r: r.started)


def end_to_end(workload, seconds) -> tuple[dict, list[ChildRun]]:
    runs = alternate([("setup", workload.setup), ("command", workload.command)],
                     {"setup": MIN_SETUPS, "command": MIN_COMMANDS}, seconds)
    setup_s = min(r.wall_s for r in runs["setup"])
    wall_s = min(r.wall_s for r in runs["command"])
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "sent_per_s": workload.units / (wall_s - setup_s),
        "cpu_s": min(r.cpu_s for r in runs["command"]),
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in runs["command"]),
        "test_acc_pct": workload.quality_pct(),
    }
    return metrics, _chronological(runs)


def traced(workload, seconds, seed) -> tuple[dict, list[ChildRun], dict]:
    span_files = []

    def traced_command():
        path = os.path.join(workload.work, f"spans-{len(span_files)}.json")
        span_files.append(path)
        return workload.command(trace=(path, f"{workload.name}-{seed}-{len(span_files)}"))

    runs = alternate([("command", workload.command), ("traced", traced_command)],
                     {"command": 1, "traced": 1}, seconds)
    per_run, layers, missing = [], [], set()
    for path in span_files:
        data = json.loads(_read(path))
        per_run.append(spans.layer_metrics(data["spans"]))
        layers.append(spans.layer_self_seconds(data["spans"]))
        missing.update(data["missing"])
    metrics = spans.median_metrics(per_run)
    metrics["trace.overhead_frac"] = (
        min(r.wall_s for r in runs["traced"])
        / min(r.wall_s for r in runs["command"]) - 1)
    detail = {"layer_self_s": layers, "missing_bindings": sorted(missing),
              "span_files": span_files}
    return metrics, _chronological(runs), detail


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": THREADS, "platform": platform.platform()}


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def report(workload, seed, metrics, runs, trace, detail):
    name = workload.name
    setups = [r.wall_s for r in runs if r.kind == "setup"]
    commands = [r.wall_s for r in runs if r.kind == "command"]
    print(f"# {name} seed={seed} trace={trace}: {len(setups)} setups, "
          f"{len(commands)} commands, {len(runs) - len(setups) - len(commands)} "
          f"traced on CPUs {sorted({c for r in runs for c in r.cpus})}; "
          f"load {runs[0].load_before:.2f} -> {runs[-1].load_after:.2f}")
    if not trace:
        for metric, unit in END_TO_END.items():
            print(f"{name:11s} {metric:14s} {_fmt(metrics[metric]):>12s} {unit}")
        for metric, kind, field in (("setup_s", "setup", "wall_s"),
                                    ("wall_s", "command", "wall_s"),
                                    ("cpu_s", "command", "cpu_s")):
            values = [getattr(r, field) for r in runs if r.kind == kind]
            print(f"# {name} {metric}: fastest {_fmt(min(values))}, median "
                  f"{_fmt(statistics.median(values))}, slowest "
                  f"{_fmt(max(values))} of {len(values)}")
        # error_frac travels as "failed" and "attempted" in the result line.
        print(f"{name:11s} {'error_frac':14s} "
              f"{_fmt(workload.failed / workload.attempted):>12s} ratio "
              f"({workload.failed} of {workload.attempted} operations failed)")
        return
    for metric, value in metrics.items():
        print(f"{name:11s} {metric:34s} {_fmt(value):>12s} {layer_unit(metric)}")
    first = detail["layer_self_s"][0]
    print(f"# layer self times of the first traced command: "
          + ", ".join(f"{k} {v:.4f}s" for k, v in sorted(first.items()))
          + f"; sum {sum(first.values()):.4f}s")
    if detail["missing_bindings"]:
        print(f"# bindings no longer present: {', '.join(detail['missing_bindings'])}")
    if name.startswith("embed"):
        ns, share = metrics["encoder.kernel_ns_per_elem"], metrics["encoder.contextual_self_share"]
        print(f"# ROADMAP cross-check ({name}): contextual self time "
              f"{_fmt(ns)} ns per n^2*d element (ROADMAP kernel: 3.5-5.5 ns); "
              f"contextual self share of encode {_fmt(share and 100 * share)}% "
              f"(ROADMAP log-kernel share: 79% at n=20, 87% at n=128). "
              f"Contextual self time also holds the gather and positions.")


def run_workload(name, seed, seconds, trace, size, host):
    workload = make_workload(name, size)
    workload.prepare(seed)
    workload.setup()  # untimed warm-up: bytecode and file caches
    if trace:
        metrics, runs, detail = traced(workload, seconds, seed)
    else:
        (metrics, runs), detail = end_to_end(workload, seconds), {}
    report(workload, seed, metrics, runs, trace, detail)
    for message in workload.messages[:20]:
        print(f"# check failed: {message}")
    os.makedirs(os.path.join(CACHE, "runs"), exist_ok=True)
    record = os.path.join(CACHE, "runs", f"{name}-{size}-s{seed}-t{trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "seconds": seconds,
                   "trace": trace, "machine": host, "metrics": metrics,
                   "attempted": workload.attempted, "failed": workload.failed,
                   "messages": workload.messages, "detail": detail,
                   "runs": [asdict(r) for r in runs]}, fh, indent=1)
    return workload, metrics


def result_metrics(metrics, trace, prefix=""):
    """Metrics as the result line carries them: numbers only, so a span
    that recorded no calls (``null`` in the report) reads 0 there."""
    out = {}
    for name, value in metrics.items():
        unit = layer_unit(name) if trace else END_TO_END[name]
        out[prefix + name] = {"value": 0.0 if value is None else value, "unit": unit}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input sizes; tiny is for the self-tests")
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    missing = [p for p in ("src/noppa/cli.py", "tests/oracles.py")
               if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    host = machine()
    print("# machine: " + json.dumps(host))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    for name in names:
        workload, result = run_workload(name, args.seed, args.seconds,
                                        args.trace, args.size, host)
        attempted += workload.attempted
        failed += workload.failed
        metrics.update(result_metrics(
            result, args.trace, f"{name}/" if len(names) > 1 else ""))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
