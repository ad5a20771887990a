"""roughlap benchmark: one workload per process, a closed loop with one client.

    python3 perfbench/run.py --workload connection_ladder --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from anywhere inside a checkout that holds ``src/roughlap`` and
``specs/default.json``.  The workload's inputs come from ``--seed`` only.
Passes run back to back until ``--seconds`` have elapsed; every output is
checked after its pass, outside the timed region.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics (``setup_s``, ``pass_s``, ``peak_rss_mb``,
``gap_rel_err``); ``attempted`` and ``failed`` count operations, so the
error rate is ``failed / attempted``.  With ``--trace 1`` the first half of
the time runs untraced and the second half with every roughlap public
function wrapped in a span recorder; the JSON then holds the per-layer
metrics (medians over the traced passes) and the spans are written to
``.perfbench_out/``.  The exit status is nonzero when any output check
fails.  ``--workload all`` runs each workload in its own process and prints
the end-to-end table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# keep BLAS single-threaded before numpy loads, as the test suite does
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOAD_NAMES = ("verify_default", "connection_ladder", "hodge_ladder")
SETUP_PROBES = 4
PROBE_TIMEOUT_S = 120


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and make the inputs; print the seconds taken")
    return p.parse_args(argv)


def checkout_problem() -> str | None:
    for needed in ("src/roughlap/__init__.py", "specs/default.json"):
        if not (ROOT / needed).is_file():
            return f"{ROOT} holds no {needed}: run the benchmark inside a roughlap checkout"
    return None


def setup(workload: str, seed: int, workdir: Path):
    """Import roughlap, numpy and scipy and make the workload's inputs."""
    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    import roughlap
    if Path(roughlap.__file__).resolve().parent != ROOT / "src" / "roughlap":
        raise RuntimeError(f"imported roughlap from {roughlap.__file__}, not this checkout")
    inputs = workloads.WORKLOADS[workload][0](ROOT, seed, workdir)
    return inputs, time.perf_counter() - start


def probe_setup(workload: str, seed: int) -> float:
    """Seconds one fresh interpreter spends on ``setup``."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return float(done.stdout.split()[-1])


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> dict:
    """Thread count of every OpenBLAS library loaded into this process."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                out[Path(path).name] = fn()
                break
    return out


def environment(seed: int) -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": blas_threads(), "nproc": os.cpu_count(),
            "affinity_cpus": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "seed": seed}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.gap_rel_err = 0.0

    def add(self, results) -> None:
        for r in results:
            self.attempted += 1
            self.failed += r.failed
            if r.gap_rel_err is not None:
                self.gap_rel_err = max(self.gap_rel_err, r.gap_rel_err)
            if r.failed:
                print(f"# check failed: {r.message}", file=sys.stderr)


def run_loop(workload: str, inputs, seconds: float, tally: Tally, state: dict,
             recorder=None) -> list[float]:
    """Passes back to back until ``seconds`` have elapsed; returns pass times.

    With a recorder, each pass is one root span named ``bench.pass``.
    """
    import workloads
    _, run_pass, check = workloads.WORKLOADS[workload]
    times = []
    deadline = time.perf_counter() + seconds
    while True:
        if recorder is None:
            start = time.perf_counter()
            outputs = run_pass(inputs)
            times.append(time.perf_counter() - start)
        else:
            with recorder.span("bench.pass", "bench") as span:
                outputs = run_pass(inputs)
            times.append(span.duration)
        tally.add(check(inputs, outputs, state))
        if time.perf_counter() >= deadline:
            return times


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_workload(args) -> int:
    problem = checkout_problem()
    if problem:
        print(problem, file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs, setup_main = setup(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(repr(setup_main))
            return 0
        setups = [setup_main] + [probe_setup(args.workload, args.seed)
                                 for _ in range(SETUP_PROBES)]
        env = environment(args.seed)
        print("# env " + json.dumps(env, sort_keys=True))
        tally = Tally()
        state: dict = {}
        if args.trace:
            return traced_run(args, inputs, setups, env, tally, state)
        times = run_loop(args.workload, inputs, args.seconds, tally, state)
        q1, med, q3 = quartiles(times)
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (med, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "gap_rel_err": (tally.gap_rel_err, "ratio"),
        }
        print(f"# {args.workload} seed={args.seed}: {len(times)} passes, "
              f"{len(setups)} set-ups")
        for name, (value, unit) in metrics.items():
            print(f"{name:12s} {value!r} {unit}")
        print(f"{'':12s} pass_s q1={q1!r} q3={q3!r} n={len(times)}")
        print(f"{'error_rate':12s} {tally.failed / tally.attempted!r} ratio "
              f"({tally.failed} failed / {tally.attempted} attempted)")
        return emit(tally, metrics)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(args, inputs, setups, env, tally, state) -> int:
    import layers
    import spans
    untraced = run_loop(args.workload, inputs, args.seconds / 2, tally, state)
    recorder = spans.SpanRecorder()
    with spans.instrument(recorder):
        traced = run_loop(args.workload, inputs, args.seconds / 2, tally, state, recorder)
    roots = [i for i, s in enumerate(recorder.spans) if s.name == "bench.pass"]
    per_pass = [layers.layer_metrics(recorder.spans, root) for root in roots]
    values = {name: statistics.median_low(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.pass_s"] = statistics.median(traced)
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    units = {m[0]: m[1] for m in layers.METRICS}
    metrics = {name: (values[name], units[name]) for name in units}
    trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    trace_file.write_text(json.dumps(
        {"env": env, "workload": args.workload, "setups_s": setups,
         "untraced_pass_s": untraced, "traced_pass_s": traced,
         "per_pass": per_pass, "spans": recorder.to_json()}))
    print(f"# {args.workload} seed={args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes; spans in {trace_file}")
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value!r} {unit}")
    return emit(tally, metrics)


def emit(tally: Tally, metrics: dict) -> int:
    correct = tally.failed == 0
    print(json.dumps({"correct": correct, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; print the end-to-end table."""
    status = 0
    rows = []
    for workload in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        status = status or done.returncode
        if done.returncode not in (0, 1):
            continue
        result = json.loads(done.stdout.splitlines()[-1])
        m = result["metrics"]
        rows.append((workload, m["setup_s"]["value"], m["pass_s"]["value"],
                     m["peak_rss_mb"]["value"], result["failed"] / result["attempted"],
                     m["gap_rel_err"]["value"]))
    print(f"\n{'workload':18s} {'setup_s [s]':>12s} {'pass_s [s]':>11s} "
          f"{'peak_rss_mb [MB]':>17s} {'error_rate':>10s} {'gap_rel_err':>12s}")
    for w, setup_s, pass_s, rss, err, gap in rows:
        print(f"{w:18s} {setup_s:12.4f} {pass_s:11.4f} {rss:17.1f} {err:10.4f} {gap:12.3e}")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        if args.trace or args.setup_probe:
            sys.exit("--workload all runs the untraced end-to-end table only")
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
