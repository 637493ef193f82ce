"""Benchmark command: run one seeded workload through ``baitline.cli.run``.

    python3 benchmark/run.py --workload train-real --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  A run sets up, runs one untimed warm-up
round, then timed rounds on fresh inputs until ``--seconds`` are used, and
checks every output.  With ``--trace 0`` it reports the end-to-end metrics
of the timed rounds; with ``--trace 1`` it times one round, replays it under
the outside-in tracer and reports the per-layer metrics.
The last line of standard output is the result as one JSON object; the lines
before it are a readable table and a JSON report with the workload facts,
machine facts, per-round timings and output fingerprints.  The exit code is 0
when every check passed and 1 otherwise.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import PER_LAYER, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

MIN_TIMED_ROUNDS = 3
SETUP_REPEATS = 3  # workload constructions timed for setup_s; the median counts
# OpenBLAS worker threads spin for a while after BLAS work and slow a
# pure-Python call that starts then by about 10% on a 2-vCPU machine.  A CLI
# user's fresh process has no such overlap, so each timed pass starts after
# this idle pause.
BLAS_IDLE_S = 0.25
TRACE_PAIRS = 2  # untraced and traced replays of one round, alternating
FAMILIES = ("rf", "svm", "bilstm", "contrastive", "encoder-head")

# End-to-end metrics: (name, unit).  Every workload reports all of them.
END_TO_END = [
    ("setup_s", "s"),
    ("pass_s", "s"),
    *((f"articles_per_s.{family}", "articles/s") for family in FAMILIES),
    ("peak_rss_mib", "MiB"),
]


class CliRunner:
    """Calls ``baitline.cli.run`` in-process and counts calls and failures."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, argv: list[str]) -> float:
        """Run one CLI call; returns its wall time in seconds."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.call_id = self.attempted
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.run(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # what the CLI's entry point would exit 1 on
            code = 1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        if code != 0:
            self.failed += 1
            self.errors.append(f"{' '.join(argv[:3])}: exit {code}: {err.getvalue()[-400:]}")
        return elapsed


def run_pass(workload, rnd, out: Path, run_cli) -> dict:
    """The timed CLI calls of one round: pass time, and per family (articles, seconds)."""
    calls = workload.timed_calls(rnd, out)
    per_family = {}
    time.sleep(BLAS_IDLE_S)
    start = time.perf_counter()
    for call in calls:
        seconds = run_cli(call.argv)
        if call.family is not None:
            per_family[call.family] = (call.articles, seconds)
    return {"pass_s": time.perf_counter() - start, "family_calls": per_family}


def run_round(workload, index: int, work_dir: Path, run_cli) -> tuple[object, dict]:
    """Draw fresh inputs, run the timed pass, check its outputs."""
    gc.collect()
    start = time.perf_counter()
    rnd = workload.prepare(work_dir / f"round{index}", index)
    record = {"round": index, "prep_s": time.perf_counter() - start}
    record.update(run_pass(workload, rnd, rnd.dir / "out", run_cli))
    record["problems"], record["fingerprints"] = workload.check(rnd, rnd.dir / "out", run_cli)
    return rnd, record


def trace_replays(workload, work_dir: Path, run_cli, tracer, records: list[dict]) -> float:
    """Time round 1, then replay it under the tracer; returns the tracing overhead.

    Untraced and traced passes alternate on round 1's inputs, TRACE_PAIRS
    times each, and the overhead compares their summed times.  The per-layer
    metrics come from the first traced pass.  Every replay must leave the
    same fingerprints as round 1.
    """
    rnd, record = run_round(workload, 1, work_dir, run_cli)
    records.append(record)
    untraced, traced = [record["pass_s"]], []
    for pair in range(TRACE_PAIRS):
        if pair > 0:
            gc.collect()
            seconds = run_pass(workload, rnd, rnd.dir / f"untraced{pair}", run_cli)["pass_s"]
            untraced.append(check_replay(workload, rnd, f"untraced{pair}", seconds, run_cli, records))
        span_tracer = tracer if pair == 0 else Tracer()
        gc.collect()
        span_tracer.install()
        try:
            seconds = run_pass(workload, rnd, rnd.dir / f"traced{pair}", run_cli)["pass_s"]
        finally:
            span_tracer.restore()
        traced.append(check_replay(workload, rnd, f"traced{pair}", seconds, run_cli, records))
    return sum(traced) / sum(untraced) - 1.0


def check_replay(workload, rnd, name: str, seconds: float, run_cli, records: list[dict]) -> float:
    """Check a replay of round 1 against round 1's fingerprints; returns its time."""
    problems, prints = workload.check(rnd, rnd.dir / name, run_cli)
    if prints != records[1]["fingerprints"]:
        problems.append(f"{name}: fingerprints differ from the untraced round's")
    records.append({"round": f"1-{name}", "pass_s": seconds, "fingerprints": prints,
                    "problems": problems})
    return seconds


def cpu_times() -> list[int]:
    """The machine-wide CPU counters of /proc/stat (user ... steal), in ticks."""
    try:
        return [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return []


def machine_facts(seed: int, cpu_start: list[int]) -> dict:
    import numpy as np

    cpu = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = {}
    with contextlib.suppress(Exception):
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: deps.get(k) for k in ("name", "version", "openblas configuration")}
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in
                             ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
        "seed": seed,
        "cpu_steal_share": steal_share(cpu_start, cpu_times()),
    }


def steal_share(start: list[int], end: list[int]) -> float | None:
    """Share of the machine's CPU time taken by the hypervisor over the run."""
    if len(start) < 8 or len(end) < 8 or sum(end) == sum(start):
        return None
    return (end[7] - start[7]) / (sum(end) - sum(start))


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def median(values) -> float:
    return float(statistics.median(values))


def end_to_end(records: list[dict], setup_s: float) -> dict[str, float]:
    """Median pass time; per family, articles over seconds summed across timed rounds.

    The per-family throughput sums its calls rather than taking a median of
    per-round rates: the calls are short, and on a machine whose speed
    drifts within seconds the sum varies less from run to run.
    """
    timed = [r for r in records if r["round"] > 0]
    values = {"setup_s": setup_s, "pass_s": median(r["pass_s"] for r in timed)}
    for family in FAMILIES:
        articles = sum(r["family_calls"][family][0] for r in timed)
        seconds = sum(r["family_calls"][family][1] for r in timed)
        values[f"articles_per_s.{family}"] = articles / seconds
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return values


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "baitline" / "__init__.py").is_file():
        print(f"error: no baitline package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import baitline
    from baitline import cli

    if Path(baitline.__file__).resolve().parent != SRC / "baitline":
        print(f"error: imported baitline from {baitline.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    startup_s = time.perf_counter() - PROCESS_START
    construct_times = []
    for _ in range(SETUP_REPEATS):  # the same seed builds the same generator
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed)
        construct_times.append(time.perf_counter() - start)
    cpu_start = cpu_times()
    tracer = Tracer() if args.trace else None
    run_cli = CliRunner(cli, tracer)
    records, problems = [], []
    try:
        workload.setup(work_dir, run_cli)
        rnd, record = run_round(workload, 0, work_dir, run_cli)
        records.append(record)
        facts = workload.facts(rnd)
        shutil.rmtree(rnd.dir)
        if args.trace:
            overhead = trace_replays(workload, work_dir, run_cli, tracer, records)
            traces = WORK / "traces"
            traces.mkdir(parents=True, exist_ok=True)
            tracer.write(traces / f"{args.workload}-seed{args.seed}.tsv")
            values = tracer.layer_metrics(overhead, run_cli.failed / run_cli.attempted)
            units = dict(PER_LAYER)
        else:
            measure_start = time.perf_counter()
            while True:
                timed = len(records) - 1
                elapsed = time.perf_counter() - measure_start
                if timed >= MIN_TIMED_ROUNDS and elapsed * (timed + 1) / timed > args.seconds:
                    break
                rnd, record = run_round(workload, len(records), work_dir, run_cli)
                records.append(record)
                shutil.rmtree(rnd.dir)
            setup_s = startup_s + median(construct_times) + median(r["prep_s"] for r in records)
            if workload.setup_times:
                setup_s += median(workload.setup_times)
            values = end_to_end(records, setup_s)
            units = dict(END_TO_END)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for record in records:
        problems += record.get("problems", [])
    problems += run_cli.errors
    correct = not problems and run_cli.failed == 0

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "startup_s": startup_s,
        "construct_times": construct_times,
        "setup_times": workload.setup_times,
        "rounds": [{k: v for k, v in r.items() if k != "problems"} for r in records],
        "facts": facts,
        "machine": machine_facts(args.seed, cpu_start),
        "problems": problems[:50],
    }
    for name, value in values.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")
    print(json.dumps({"report": report}))
    result = {
        "correct": correct,
        "attempted": run_cli.attempted,
        "failed": run_cli.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
