#!/usr/bin/env python3
"""End-to-end benchmark of qucad: the paper's adaptation loop, the serving
daemon's stack, and finite-shot evaluation. See README.md.

    python3 perfbench/run.py --workload adapt_belem|serve_jakarta|shots_belem|all
                             [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. The first run builds the library from the
repository's sources into .bench_build/. Each workload runs in its own
process; the last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics, or with --trace 1
the per-layer metrics derived from the traced run's spans and counters).
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
RUNS = BUILD / "runs"
BINARY = BUILD / "perfbench_workload"
WORKLOADS = ("adapt_belem", "serve_jakarta", "shots_belem")
# A run (a workload, its set-up processes and any reruns) must end within
# --seconds plus this allowance: 170 s at the default 20 s.
ALLOWANCE_S = 150
# A workload process that dies on a signal is rerun in a fresh process, at
# most this often, and only while --seconds plus RERUN_MARGIN_S are left.
MAX_ATTEMPTS = 4
RERUN_MARGIN_S = 60
# Set-up is timed in this many fresh set-up-only processes besides the
# workload's own, and setup_s is the median: set-up speed varies from
# process to process, so repeats within one process cannot steady it.
SETUP_PROCESSES = 14
# No set-up process is started with less than this left before the
# deadline; setup_s is then the median over the processes that ran.
SETUP_RESERVE_S = 15

# End-to-end metrics: name -> unit. Every workload reports all of them.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "accuracy": "ratio",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: name -> (unit, how to derive it).
# A layer the workload does not call reads 0.
PER_LAYER = {
    "core.prepare_s": ("s", ("span_median", "core.prepare", None, False, 1e-6)),
    "fleet.drift_s": ("s", ("span_median", "fleet.drift", None, False, 1e-6)),
    "repo.build_s": ("s", ("span_sum", "repo.build", None)),
    "repo.decide_reuse_ms": ("ms", ("span_median", "repo.process_day", "reuse", False, 1e-3)),
    "repo.reuses": ("count", ("counter", "repo.reuses")),
    "repo.new_models": ("count", ("counter", "repo.new_models")),
    "repo.failures": ("count", ("counter", "repo.failures")),
    "repo.entries": ("count", ("counter", "repo.entries")),
    "compress.decide_new_ms": ("ms", ("span_median", "repo.process_day", "new", False, 1e-3)),
    "compress.total_s": ("s", ("counter", "compress.total_s")),
    "qnn.eval_day_ms": ("ms", ("span_median", "qnn.eval_day", None, False, 1e-3)),
    "qnn.eval_cache_hits_build": ("count", ("counter", "qnn.eval_cache_hits_build")),
    "qnn.eval_cache_misses_build": ("count", ("counter", "qnn.eval_cache_misses_build")),
    "qnn.eval_cache_hits_online": ("count", ("counter", "qnn.eval_cache_hits_online")),
    "qnn.eval_cache_misses_online": ("count", ("counter", "qnn.eval_cache_misses_online")),
    "transpile.compile_ms": ("ms", ("span_median", "transpile.compile", None, False, 1e-3)),
    "backend.density_sample_ms": ("ms", ("span_median", "backend.density", "batch1", True, 1e-3)),
    "backend.density_lane_sample_ms": ("ms", ("span_median", "backend.density", "batch8", True, 1e-3)),
    "backend.pure_sample_ms": ("ms", ("span_median", "backend.pure", None, True, 1e-3)),
    "backend.sampled_sample_ms": ("ms", ("span_median", "backend.sampled", None, True, 1e-3)),
    "serve.batch_size_mean": ("req/sweep", ("ratio", "serve.requests", "serve.batches")),
    "serve.coalesced_share": ("ratio", ("ratio", "serve.coalesced", "serve.requests")),
    "serve.submit_p50_ms": ("ms", ("span_median", "serve.submit", None, False, 1e-3)),
    "serve.swap_reuse_ms": ("ms", ("span_median", "serve.push", "reuse", False, 1e-3)),
    "serve.swap_new_ms": ("ms", ("span_median", "serve.push", "new", False, 1e-3)),
    "serve.shed": ("count", ("counter", "serve.shed")),
    "serve.deadline_misses": ("count", ("counter", "serve.deadline_misses")),
    "io.cold_start_ms": ("ms", ("span_median", "io.cold_start", None, False, 1e-3)),
    "io.artifact_bytes": ("bytes", ("counter", "io.artifact_bytes")),
    "io.codec_us": ("us", ("span_median", "io.codec", None, True, 1.0)),
    "io.wire_overhead_p50_ms": ("ms", ("paired_difference", "serve.wire_pair", "serve.submit")),
    "runner.aborted_processes": ("count", ("runner", "aborted_processes")),
}
# Per-layer metrics of set-up: the median over every process that set up.
SETUP_LAYERS = ("core.prepare_s", "fleet.drift_s", "io.cold_start_ms")


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures (once) and builds the workload program from the
    repository's sources; exits without a result if that is impossible."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        fail(f"no qucad sources under {ROOT} (need src/ and CMakeLists.txt)")
    BUILD.mkdir(parents=True, exist_ok=True)
    log = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                fail("build failed:\n" + "\n".join(tail))


def environment():
    """Cores, compiler, flags and source revision of this build."""
    compiler, flags = "unknown", "unknown"
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith("CMAKE_CXX_COMPILER:"):
            path = line.split("=", 1)[1]
            try:
                version = subprocess.run([path, "--version"], capture_output=True,
                                         text=True).stdout.splitlines()
                compiler = version[0] if version else path
            except OSError:
                compiler = path
    try:
        commands = json.loads((BUILD / "compile_commands.json").read_text())
        command = next(c["command"] for c in commands if c["file"].endswith("main.cpp"))
        flags = " ".join(t for t in command.split()[1:]
                         if t.startswith(("-O", "-f", "-m", "-std", "-W", "-D")))
    except (OSError, StopIteration, ValueError, KeyError):
        pass
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return {
        "cores": os.cpu_count(),
        "compiler": compiler,
        "flags": flags,
        "git_sha": sha.stdout.strip() if sha.returncode == 0 else "unknown (not a git checkout)",
    }


class Attempt:
    """One workload process: how it ended, its operation counts, its
    rusage and its result document (None if it wrote none)."""

    def __init__(self, status, counter, rusage, document, wall, timed_out):
        self.status, self.counter, self.rusage = status, counter, rusage
        self.document, self.wall, self.timed_out = document, wall, timed_out

    @property
    def aborted(self):
        return os.WIFSIGNALED(self.status) and not self.timed_out

    @property
    def ok(self):
        return (os.WIFEXITED(self.status) and os.WEXITSTATUS(self.status) == 0
                and self.document is not None)

    def signal_name(self):
        sig = os.WTERMSIG(self.status)
        return f"signal {sig} ({signal.Signals(sig).name})"


def run_child(workload, seed, seconds, trace, deadline, setup_index=None):
    """Runs one workload process, the whole workload or (with setup_index)
    only its set-up, and kills it at the run's deadline."""
    RUNS.mkdir(parents=True, exist_ok=True)
    suffix = "" if setup_index is None else f"-setup{setup_index}"
    out = RUNS / f"{workload}-seed{seed}-trace{trace}{suffix}.json"
    if out.exists():
        out.unlink()
    command = [str(BINARY), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--setup-only", "0" if setup_index is None else "1",
               "--out", str(out), "--workdir", str(RUNS)]
    start = time.monotonic()
    child = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        child.kill()

    timer = threading.Timer(max(deadline - start, 0.0), kill)
    timer.start()
    counter = stats.OpCounter()
    for line in child.stdout:
        if not counter.feed(line):
            print(line, end="")
    _, status, rusage = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(status)
    timer.cancel()
    document = load_document(out)
    return Attempt(status, counter, rusage, document, time.monotonic() - start,
                   timed_out.is_set())


def load_document(path):
    """The result document a workload process wrote, or None when it wrote
    none or died while writing it."""
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def run_workload(workload, seed, seconds, trace, deadline):
    """The workload process, rerun in a fresh process when it dies on a
    signal (the ThreadPool::parallel_for race, README.md). Every abort is
    printed. Returns (last attempt, aborted processes)."""
    aborts = 0
    for number in range(1, MAX_ATTEMPTS + 1):
        attempt = run_child(workload, seed, seconds, trace, deadline)
        if not attempt.aborted:
            return attempt, aborts
        aborts += 1
        left = deadline - time.monotonic()
        rerun = number < MAX_ATTEMPTS and left >= seconds + RERUN_MARGIN_S
        c = attempt.counter
        print(f"{workload}: ABORT on {attempt.signal_name()} after {attempt.wall:.1f} s "
              f"(attempt {number}); {c.completed} of {c.attempted} started operations "
              f"finished; " + ("rerunning in a fresh process" if rerun else "giving up"))
        if not rerun:
            break
    return attempt, aborts


def run_setups(workload, seed, trace, deadline):
    """Set-up alone in SETUP_PROCESSES fresh processes, each rerun when it
    dies on a signal. Returns (documents, aborted processes, error or
    None)."""
    documents, aborts = [], 0
    while len(documents) < SETUP_PROCESSES:
        if deadline - time.monotonic() < SETUP_RESERVE_S:
            print(f"{workload}: {len(documents)} of {SETUP_PROCESSES} set-up "
                  f"processes ran before the run's deadline drew near")
            break
        attempt = run_child(workload, seed, 1, trace, deadline, len(documents))
        if attempt.aborted and aborts < SETUP_PROCESSES:
            aborts += 1
            print(f"{workload}: set-up process {len(documents)} ABORT on "
                  f"{attempt.signal_name()}; rerunning it in a fresh process")
            continue
        if not attempt.ok:
            return documents, aborts, describe_failure(attempt)
        documents.append(attempt.document)
    return documents, aborts, None


def describe_failure(attempt):
    if attempt.timed_out:
        return f"TIMEOUT: killed after {attempt.wall:.1f} s, at the run's deadline"
    if attempt.aborted:
        return f"ABORT on {attempt.signal_name()} after {attempt.wall:.1f} s"
    return (f"exited with status {os.waitstatus_to_exitcode(attempt.status)} "
            f"after {attempt.wall:.1f} s and no result")


def end_to_end(doc, setup_docs, rusage):
    days = doc["day_accuracy"]
    accuracy = (sum(days) / len(days) if days
                else doc["predicted_right"] / max(doc["predicted"], 1))
    return {
        "setup_s": stats.median(d["setup_s"][0] for d in setup_docs),
        "throughput_per_s": doc["completed_units"] / doc["timed_s"],
        "latency_p50_ms": stats.median(doc["latency_ms"]),
        "accuracy": accuracy,
        "peak_rss_mb": stats.peak_rss_mb(rusage),
    }


def layer_value(doc, rule, runner):
    """One per-layer metric of one result document; None when the workload
    does not call the layer."""
    spans, counters = doc["spans"], doc["counters"]
    selves = stats.self_times(spans)
    kind = rule[0]
    if kind == "span_median":
        return stats.span_median(spans, selves, rule[1], rule[2], rule[3], rule[4])
    if kind == "span_sum":
        return stats.span_sum(spans, selves, rule[1], rule[2])
    if kind == "counter":
        return counters.get(rule[1])
    if kind == "ratio":
        den = counters.get(rule[2])
        return counters[rule[1]] / den if den else None
    if kind == "paired_difference":
        return stats.paired_difference(spans, selves, rule[1], rule[2])
    return runner[rule[1]]


def per_layer(doc, setup_docs, runner):
    values = {}
    for name, (_, rule) in PER_LAYER.items():
        if name in SETUP_LAYERS:
            found = [v for v in (layer_value(d, rule, runner) for d in setup_docs)
                     if v is not None]
            value = stats.median(found) if found else None
        else:
            value = layer_value(doc, rule, runner)
        values[name] = 0.0 if value is None else value
    return values


def failed_result(workload, message, counter):
    """Result of a run that produced no metrics: every started but unfinished
    operation failed."""
    print(f"{workload}: {message}; unfinished operations count as failed")
    attempted, failed = counter.after_abort()
    return {"correct": False, "attempted": attempted, "failed": failed, "metrics": {}}


def report(workload, seed, seconds, trace):
    """Runs and reports one workload; returns its result object."""
    start = time.monotonic()
    deadline = start + seconds + ALLOWANCE_S
    artifact = RUNS / f"{workload}-{seed}.qcd"  # serve's, for its set-ups
    attempt, aborts = run_workload(workload, seed, seconds, trace, deadline)
    if not attempt.ok:
        artifact.unlink(missing_ok=True)
        return failed_result(workload, describe_failure(attempt), attempt.counter)
    doc = attempt.document
    setups, setup_aborts, error = run_setups(workload, seed, trace, deadline)
    aborts += setup_aborts
    artifact.unlink(missing_ok=True)
    if error is not None:
        return failed_result(workload, "set-up process " + error, attempt.counter)
    setup_docs = [doc, *setups]
    wall = time.monotonic() - start

    e2e = end_to_end(doc, setup_docs, attempt.rusage)
    print(f"{workload}: seed {seed}, {seconds} s timed, trace {trace}, "
          f"{wall:.1f} s wall")
    for name, unit in END_TO_END.items():
        print(f"  {name:<24} {e2e[name]:.6g} {unit}")
    print(f"  {'setup_s processes':<24} " +
          " ".join(f"{d['setup_s'][0]:.4g}" for d in setup_docs) + " s")
    if doc["build_s"] is not None:
        print(f"  {'build_s':<24} {doc['build_s']:.6g} s")
    latencies = doc["latency_ms"]
    if workload == "serve_jakarta":
        p99 = stats.percentile(latencies, 99)
        shown = f"{p99:.6g} ms" if p99 is not None else \
            f"not reported ({len(latencies)} samples; p99 needs 1000)"
        print(f"  {'latency_p99_ms':<24} {shown}")
    counter = attempt.counter
    print(f"  {'operations':<24} {counter.attempted} attempted, {counter.failed} failed, "
          f"{len(latencies)} latency samples")
    print(f"  {'aborted processes':<24} {aborts} (each rerun in a fresh process)")
    correct = bool(doc["checks"]) and all(c["ok"] for c in doc["checks"])
    for c in doc["checks"]:
        print(f"  check {'ok  ' if c['ok'] else 'FAIL'} {c['name']}: {c['detail']}")
    metrics = {name: {"value": e2e[name], "unit": unit} for name, unit in END_TO_END.items()}
    if trace:
        layers = per_layer(doc, setup_docs, {"aborted_processes": aborts})
        for name, (unit, _) in PER_LAYER.items():
            print(f"  {name:<32} {layers[name]:.6g} {unit}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _) in PER_LAYER.items()}
    return {"correct": correct, "attempted": counter.attempted,
            "failed": counter.failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    args.seed %= 2 ** 64  # the workload program takes an unsigned 64-bit seed

    build()
    print("env " + json.dumps(environment()))
    sys.stdout.flush()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {name: report(name, args.seed, args.seconds, args.trace) for name in names}
    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
