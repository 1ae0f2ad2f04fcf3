"""The jordantp benchmark: verdict latency on four seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends requests in a closed loop: each request is sent only after
the previous one has finished.  A run sends a fixed number of whole rounds of
the workload's pool, sized from ``--seconds``, so a seed always sends the
same requests and fails the same ones.  Requests are ``jordantp`` command
lines, called in-process through ``jordantp.cli.main``, or as a fresh
``python -m jordantp.cli`` process for ``cli-cold``.  Every verdict is judged
by the theory oracle in ``workloads.py``; a request fails if it raises, exits
with an unexpected code, gives a wrong verdict or a non-canonical check-name
set.

``--trace 0`` prints the end-to-end metrics.  Their times are normalised to
the host's speed by a reference probe run next to every sample (see
``speed.py``); the wall-clock values are printed and recorded beside them.
``--trace 1`` runs a fixed prefix of the request pool untraced and then
twice traced (see
``tracer.py``) and prints the per-layer metrics.  The traced run also checks
that its reports are byte-identical to the untraced ones apart from
``wall_time_ms``, that the layer counts repeat exactly, and that every layer
counter is nonzero where the workload exercises the layer and zero where it
bypasses it.

Each run writes its result, with the environment and the seed, and the
traced run its spans, under ``bench/out/``.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

Seeds 1-10 were used to set the run length and bounds; seed 2312 is held out
for checking later performance claims.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the requests work on matrices of side 4 at most, and a
# second thread only spins against the client on a small host.  Set before
# numpy is first imported, here and in every child process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import tracer as tr  # noqa: E402
from workloads import REQUEST_SIZE, WORKLOADS, build_requests  # noqa: E402

HELD_OUT_SEED = 2312
SETUP_PROBES = 5
IMPORT_PROBES = 3
WARMUP_ROUNDS = 1
TAIL_SAMPLES = 10
CHILD_TIMEOUT_S = 120
# A run stops sending when its timed loop has taken this long, so that it
# ends within the three minutes a run may take even on a stalled host.
LOOP_LIMIT_S = 120.0
WALL_TIME = re.compile(r'"wall_time_ms": \d+')

VERIFY_LAYERS = [f"{layer}.calls" for layer in tr.CALL_LAYERS] + [
    "transition.nnls_solves", *[f"suites.{s}.s" for s in tr.SUITE_NAMES]]
# Layer counters that must be nonzero on a workload, and ones that must be
# zero because the workload bypasses the layer.  A counter that reads zero
# where the layer works means a binding escaped the tracer.
LAYER_EXPECTATIONS = {
    "verify-matrix": (VERIFY_LAYERS, ["convexgeom.lp_solves"]),
    "verify-closedform": (VERIFY_LAYERS, ["convexgeom.lp_solves"]),
    "geom": (["convexgeom.lp_solves.hull", "convexgeom.lp_solves.affinity", "cli.self_s",
              "reports.serialize.self_s"],
             ["backends.decompose_coords.calls", "elements.construct.calls",
              "transition.nnls_solves", *[f"suites.{s}.s" for s in tr.SUITE_NAMES]]),
    "cli-cold": (["backends.decompose_coords.calls", "backends.spectral_form.calls",
                  "backends.pairing.calls", "elements.construct.calls",
                  "convexgeom.lp_solves.affinity", "cli.self_s", "reports.serialize.self_s"],
                 ["transition.nnls_solves", "spectral.trial_rng.calls",
                  *[f"suites.{s}.s" for s in tr.SUITE_NAMES]]),
}
# Exact counts that must repeat between the two traced passes.
REPEATED_COUNTS = ["backends.decompose_coords.calls", "convexgeom.lp_solves",
                   "transition.nnls_solves", "elements.construct.calls"]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads() -> dict:
    """Thread counts of the OpenBLAS libraries loaded in this process."""
    out = {}
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                out[os.path.basename(path)] = int(getattr(lib, symbol)())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        threads = _blas_threads()
    except OSError as exc:
        threads = {"error": str(exc)}
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "held_out_seed": HELD_OUT_SEED,
    }


# ---------------------------------------------------------------------------
# requests
# ---------------------------------------------------------------------------


def call_in_process(argv) -> tuple[float, int | None, str]:
    """Run ``jordantp.cli.main`` on ``argv``: (seconds, exit code, stdout).

    The exit code is None when the call raised; stdout then holds the error.
    """
    import jordantp.cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = jordantp.cli.main(list(argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising request counts as failed, the loop goes on
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, rc, out.getvalue()


def call_process(command: list[str]) -> tuple[float, int | None, str]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "timed out"
    return time.perf_counter() - start, proc.returncode, proc.stdout


def call_cold(argv) -> tuple[float, int | None, str]:
    return call_process([sys.executable, "-m", "jordantp.cli", *argv])


def judge(request, result) -> tuple[str, str, bool] | None:
    """None when the oracle accepts the result, else (label, reason, crashed)."""
    _, rc, out = result
    reason = out if rc is None else request.check(rc, out)
    return None if reason is None else (request.label, reason, rc is None)


def timed_requests(workload, seconds: float) -> int:
    """Whole rounds that take about ``seconds`` at the allotted request time,
    and enough that the tail lies above the median."""
    size = workload.round_size
    fewest = -(-(2 * TAIL_SAMPLES + 1) // size)
    return max(fewest, round(seconds / (workload.request_s * size))) * size


def closed_loop(pool, call, reference, warmup: int, timed: int):
    """Send ``warmup`` and then ``timed`` requests back to back.

    The ``reference`` probe runs before each timed request and after the
    last one.  Returns the timed latencies, the probes, the
    failures of every request, warm-up included, and the number sent.
    """
    failures, latencies, probes, sent = [], [], [], 0

    def send():
        nonlocal sent
        request = pool[sent % len(pool)]
        sent += 1
        result = call(request.argv)
        failure = judge(request, result)
        if failure is not None:
            failures.append(failure)
        return result[0]

    for _ in range(warmup):
        send()
    deadline = time.perf_counter() + LOOP_LIMIT_S
    while len(latencies) < timed and time.perf_counter() < deadline:
        probes.append(reference.probe())
        latencies.append(send())
    probes.append(reference.probe())
    return latencies, probes, failures, sent


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_SAMPLES samples beyond it, but
    not below the median: (value, percentile, samples beyond)."""
    ordered = sorted(latencies)
    rank = max((len(ordered) + 1) // 2, len(ordered) - TAIL_SAMPLES)
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def setup_seconds(workload: str, seed: int, workdir: Path) -> tuple[list[float], list[float]]:
    """Wall times of SETUP_PROBES fresh set-ups, and ``speed.FRESH`` probes
    before each and after the last."""
    command = [sys.executable, str(BENCH / "child.py"), "setup", workload, str(seed), str(workdir)]
    times, probes = [], []
    for _ in range(SETUP_PROBES):
        probes.append(speed.FRESH.probe())
        seconds, rc, _ = call_process(command)
        if rc != 0:
            raise RuntimeError(f"setup probe exited with {rc}")
        times.append(seconds)
    probes.append(speed.FRESH.probe())
    return times, probes


def import_profile() -> dict:
    """Import times from ``python -X importtime`` in a fresh interpreter, medians."""
    samples = {"import.total_s": [], "import.scipy_optimize_s": [], "import.numpy_s": []}
    for _ in range(IMPORT_PROBES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import jordantp.cli"],
                              capture_output=True, text=True, env=child_env(), cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S, check=True)
        total, first = 0, {}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            name = parts[2].rstrip()
            cumulative = int(parts[1])
            if name.startswith(" ") and not name.startswith("  "):
                total += cumulative
            first.setdefault(name.strip(), cumulative)
        samples["import.total_s"].append(total * 1e-6)
        samples["import.scipy_optimize_s"].append(first.get("scipy.optimize", 0) * 1e-6)
        samples["import.numpy_s"].append(first.get("numpy", 0) * 1e-6)
    return {name: (statistics.median(values), "s") for name, values in samples.items()}


def time_metrics(setups: list[float], latencies: list[float]) -> dict:
    value, _, _ = tail(latencies)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "latency_p50_s": (statistics.median(latencies), "s"),
        "latency_tail_s": (value, "s"),
        "requests_per_s": (len(latencies) / sum(latencies), "1/s"),
    }


def untraced_run(workload, seed: int, seconds: float, workdir: Path):
    setups, setup_probes = setup_seconds(workload.name, seed, workdir)
    pool = build_requests(workload.name, seed, str(workdir))
    if workload.in_process:
        call, reference, who = call_in_process, speed.WARM, resource.RUSAGE_SELF
    else:
        call, reference, who = call_cold, speed.FRESH, resource.RUSAGE_CHILDREN
    timed = timed_requests(workload, seconds)
    latencies, probes, failures, sent = closed_loop(
        pool, call, reference, WARMUP_ROUNDS * workload.round_size, timed)
    metrics = time_metrics(speed.FRESH.normalise(setups, setup_probes),
                           reference.normalise(latencies, probes))
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    wall = time_metrics(setups, latencies)
    _, percentile, beyond = tail(latencies)
    notes = {
        "tail": f"p{percentile:.1f}, {beyond} of {len(latencies)} samples beyond",
        "failed_share": len(failures) / sent,
        "wall_clock": {name: value for name, (value, _) in wall.items()},
        "probe_median_s": statistics.median(probes),
        "setup_samples_s": setups,
        "setup_probes_s": setup_probes,
        "latencies_s": latencies,
        "probes_s": probes,
        "timed_requests": f"{len(latencies)} of {timed}",
    }
    return metrics, notes, failures, sent, True


def traced_run(workload, seed: int, workdir: Path):
    import jordantp.cli  # noqa: F401

    requests = build_requests(workload.name, seed, str(workdir))[:workload.trace_requests]
    n = len(requests)
    tracer = tr.Tracer()
    if workload.in_process:
        def traced_call(argv):
            span = tracer.open(tr.REQUEST)
            try:
                return call_in_process(argv)
            finally:
                tracer.close(span)
        untraced_call = call_in_process
    else:
        def traced_call(argv):
            spans = workdir / f"spans-{tracer.request_id}.npz"
            result = call_process([sys.executable, str(BENCH / "child.py"), "trace", str(spans), *argv])
            if spans.exists():
                tracer.merge(str(spans), tracer.request_id)
            return result
        untraced_call = call_cold

    # each request runs untraced and then traced back to back, so the host's
    # drift in speed does not enter the overhead; a second traced pass must
    # repeat every count
    untraced_call(requests[0].argv)  # warm-up: first-call costs are not overhead
    tr.install(tracer)  # in cli-cold the children trace; this finds missing targets
    untraced, passes = [], [[], []]
    for i, request in enumerate(requests):
        tracer.activate(False)
        untraced.append(untraced_call(request.argv))
        tracer.activate(True)
        tracer.request_id = i
        passes[0].append(traced_call(request.argv))
    for i, request in enumerate(requests):
        tracer.request_id = n + i
        passes[1].append(traced_call(request.argv))
    tracer.save(str(workdir / "spans.npz"))

    problems = [f"trace target missing: {name}" for name in tracer.missing]
    failures = []
    for results in [untraced, *passes]:
        for request, result in zip(requests, results):
            failure = judge(request, result)
            if failure is not None:
                failures.append(failure)
    for request, *results in zip(requests, untraced, *passes):
        if len({WALL_TIME.sub("", out) for _, _, out in results}) != 1:
            problems.append(f"traced output differs from untraced output on {request.label}")

    verdicts = sum(r.argv[0] == "geom" for r in requests)
    tables = [tr.span_table(tracer, set(range(first, first + n))) for first in (0, n)]
    metrics, repeat = (tr.layer_metrics(t, verdicts) for t in tables)
    for name, (value, unit) in metrics.items():
        if unit == "count" and value != repeat[name][0]:
            problems.append(f"{name} did not repeat: {value} then {repeat[name][0]}")
    nonzero, zero = LAYER_EXPECTATIONS[workload.name]
    problems += [f"{name} is 0 on {workload.name}" for name in nonzero if metrics[name][0] == 0]
    problems += [f"{name} is {metrics[name][0]} on {workload.name}, expected 0"
                 for name in zero if metrics[name][0] != 0]
    metrics.update(import_profile())
    overhead = statistics.median(t[0] - u[0] for t, u in zip(passes[0], untraced))
    metrics["trace.overhead_s"] = (overhead, "s")
    notes = {
        "untraced_p50_s": statistics.median(u[0] for u in untraced),
        "traced_p50_s": statistics.median(t[0] for t in passes[0]),
        "repeated_counts": {name: metrics[name][0] for name in REPEATED_COUNTS},
        "problems": problems,
    }
    return metrics, notes, failures, 3 * n, not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "jordantp" / "cli.py").is_file():
        print(f"error: no jordantp sources at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    if args.trace:
        metrics, notes, failures, attempted, sound = traced_run(workload, args.seed, run_dir)
    else:
        metrics, notes, failures, attempted, sound = untraced_run(
            workload, args.seed, args.seconds, run_dir)
    # every oracle mismatch is a failed request; a request that raised or
    # timed out, or a broken trace, also makes the run incorrect
    correct = sound and not any(crashed for *_, crashed in failures)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    env = environment()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "request_size": REQUEST_SIZE[args.workload],
              "environment": env, "notes": notes,
              "failures": [list(f) for f in failures], "result": result}
    (run_dir / "result.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"request size: {REQUEST_SIZE[args.workload]}")
    print("environment " + json.dumps(env))
    wall = notes.get("wall_clock", {})
    for name, (value, unit) in metrics.items():
        extra = f"  ({notes['tail']})" if name == "latency_tail_s" else ""
        if name in wall:
            extra += f"  [wall clock {wall[name]:.6g}]"
        print(f"  {name:40s} {value:.6g} {unit}{extra}")
    if "timed_requests" in notes:
        print(f"  timed requests {notes['timed_requests']}")
    print(f"  attempted {attempted}  failed {len(failures)}  failed_share "
          f"{len(failures) / attempted:.4f}")
    for label, reason, _ in sorted(set(failures)):
        print(f"  failed: {label}: {reason}")
    for problem in notes.get("problems", []):
        print(f"  problem: {problem}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
