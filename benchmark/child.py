"""Run one noppa CLI command in this process, as a user would, optionally
with the layer tracer installed.

    python3 benchmark/child.py RSS_FILE [--trace SPANS.json RUN_ID] -- ARGV...

ARGV is what a user types after ``noppa``.  The exit code is the CLI's.
At exit the process writes its own peak resident set size in KiB to
RSS_FILE.  (The parent's ``wait4`` figure would not do: Linux carries the
spawning process's peak over into the child at ``exec``.)
The traced and the untraced command go through this same file, so only
the wrappers differ between them.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _peak_rss_kib() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(args: list[str]) -> int:
    rss_file, args = args[0], args[1:]
    try:
        return run(args)
    finally:
        with open(rss_file, "w", encoding="ascii") as fh:
            fh.write(f"{_peak_rss_kib()}\n")


def run(args: list[str]) -> int:
    trace = None
    if args[:1] == ["--trace"]:
        trace, run_id, args = args[1], args[2], args[3:]
    if args[:1] == ["--"]:
        args = args[1:]
    from noppa import cli

    if trace is None:
        return cli.main(args)
    from spans import ROOT_SPAN, Tracer

    tracer = Tracer(run_id)
    tracer.install()
    try:
        return tracer.wrap(ROOT_SPAN, cli.main)(args)
    finally:
        tracer.dump(trace)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
