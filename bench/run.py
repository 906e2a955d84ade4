"""mibounds benchmark: cold CLI, channel sweep and protocol mix.

Usage (from the repository root):

    python3 bench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Workloads: ``cli-cold``, ``channel-sweep``, ``protocols-mix`` (see
workloads.py for what each runs and why). One client, closed loop: each
operation starts when the previous one has ended.

``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: interpreter start, ``import mibounds``, input generation
  and warm-up, before the first measured operation; the median of
  SETUP_SAMPLES fresh worker processes.
* ``ops_per_s``, ``op_ms_p50`` and ``op_ms_tail`` come from each
  operation's median latency over the measured passes, which damps
  one-pass spikes: the operation count over the sum of those latencies,
  their median, and the one at the highest percentile with at least ten
  operations beyond it (the percentile and the sample count are
  printed).
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process, or of its
  children for ``cli-cold``.
* ``success_rate``: checked operations over attempted ones, that is
  1 - error rate. A wrong value, a wrong exit code, an exception or a
  timeout fails an operation.

``--trace 1`` prints the per-layer metrics: calls, busy and self seconds
of each wrapped function per traced pass (tracer.py), failures per
layer, the ``-X importtime`` split, first-call times from a fresh
process (probes.py), optimizer counters, traced allocation peaks,
computed bytes, bytes written by the CLI and the tracing overhead.

Every run writes a record with the machine, versions, commit and seed
to ``.bench_run/``. The last line of stdout is the JSON result. Without
``src/mibounds`` next to this directory the run fails with exit code 2.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
RUN_DIR = ROOT / ".bench_run"
SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 170.0

sys.path.insert(0, str(BENCH))
import probes  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError:
        return ""


def machine_record(seed):
    cpu_model = next((ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
                      if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level").strip(), _read(index / "type").strip()
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size").strip()
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        top = None
    lines = top.stdout.split() if top else []
    if top and top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
        commit = lines[1]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": commit,
        "seed": seed,
    }


def start_worker(args, workdir, result=None):
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    cmd += ["--tiny"] if args.tiny else []
    cmd += ["--result", str(result)] if result else ["--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=workloads.child_env(ROOT),
                            stdout=subprocess.PIPE, text=True)
    ready = proc.stdout.readline().strip() == "READY"
    return proc, (time.perf_counter() - t0 if ready else None)


def finish(proc, timeout):
    try:
        proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"worker exceeded {timeout:.0f} s")
    return proc.returncode


def tail_index(n):
    """Index of the highest-percentile sample with at least ten beyond it."""
    return n - 11 if n > 10 else n - 1


def op_latencies(passes):
    """Each operation's median latency over the passes, in list order."""
    return [statistics.median(p["records"][i]["s"] for p in passes)
            for i in range(len(passes[0]["records"]))]


def end_to_end(result, setup):
    lat = sorted(op_latencies([p for p in result["passes"] if not p["traced"]]))
    records = [r for p in result["passes"] for r in p["records"]]
    ok = sum(r["ok"] for r in records)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(lat) / sum(lat), "1/s"),
        "op_ms_p50": (statistics.median(lat) * 1e3, "ms"),
        "op_ms_tail": (lat[tail_index(len(lat))] * 1e3, "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "success_rate": (ok / len(records), "ratio"),
    }


def per_layer(result, import_split, first_calls, benchmark_names):
    traced = [p for p in result["passes"] if p["traced"]]
    plain = [p for p in result["passes"] if not p["traced"]]
    keys = set().union(*(p["layer"] for p in traced))
    out = {k: statistics.median(p["layer"].get(k, 0) for p in traced) for k in keys}
    busy = lambda passes: statistics.median(sum(r["s"] for r in p["records"]) for p in passes)
    out["trace.overhead_frac"] = busy(traced) / busy(plain) - 1.0
    out["cli.import_s"] = import_split["import_s"]
    out["cli.import_scipy_s"] = import_split["import_scipy_s"]
    out["cli.known_defects_failed"] = statistics.median(
        sum(not r["ok"] for r in p["probes"]) for p in traced)
    for layer, times in first_calls["layers"].items():
        out[f"{layer}.first_call_s"] = times["first_call_s"]
    metrics = {}
    for name, unit in benchmark_names:
        value = out.get(name, 0)
        metrics[name] = (int(value) if unit in ("count", "B") and value == int(value) else value, unit)
    return metrics


def per_layer_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    names = []
    for layer, entries in tracer.TARGETS.items():
        for _home, _attr, short in entries:
            f = f"{layer}.{short}"
            names += [(f"{f}.calls", "count"), (f"{f}.busy_s", "s"), (f"{f}.self_s", "s")]
            if f in tracer.ALLOC_TRACED:
                names.append((f"{f}.peak_alloc_mb", "MB"))
            if f in tracer.BYTES_COMPUTED:
                names.append((f"{f}.bytes_computed", "B"))
        names += [(f"{layer}.failed", "count"), (f"{layer}.first_call_s", "s")]
    names += [("cli.import_s", "s"), ("cli.import_scipy_s", "s"), ("cli.bytes_written", "B"),
              ("cli.known_defects_failed", "count"),
              ("protocols.lbfgs.iterations", "count"), ("protocols.lbfgs.fevals", "count"),
              ("protocols.lbfgs.not_converged", "count"), ("trace.overhead_frac", "ratio")]
    return names


def describe(result, metrics, args, extra):
    n = len(result["passes"][0]["records"])
    plain = sum(not p["traced"] for p in result["passes"])
    lines = [f"# workload {args.workload}, seed {args.seed}: {n} ops per pass, "
             f"{plain} untraced + {len(result['passes']) - plain} traced passes"]
    if not args.trace:
        pct = 100.0 * (n - 10) / n if n > 10 else 100.0
        lines.append(f"# op_ms_tail is p{pct:.1f} of {n} operations, each the median of "
                     f"{plain} passes ({n * plain} samples)")
    records = [r for p in result["passes"] for r in p["records"]]
    failed = [r for r in records if not r["ok"]]
    lines.append(f"# error_rate {len(failed)}/{len(records)} = {len(failed) / len(records):.4f}")
    for r in failed[:5]:
        lines.append(f"#   FAILED {r['op']}: {r['error']}")
    for r in result["passes"][0]["probes"]:
        verdict = "ok" if r["ok"] else f"FAILS ({r['error']})"
        lines.append(f"# known defect {r['op']}: {verdict}, {r['s']:.3f} s")
    lines += [f"# {line}" for line in extra]
    lines += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="shrunken operation lists, for the self-test only")
    args = p.parse_args()
    if not (ROOT / "src" / "mibounds" / "__init__.py").is_file():
        print(f"error: no mibounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = time.perf_counter()

    tag = f"{args.workload}_s{args.seed}_t{args.trace}{'_tiny' if args.tiny else ''}"
    workdir = RUN_DIR / f"work_{tag}_{os.getpid()}"
    result_path = workdir / "result.json"
    RUN_DIR.mkdir(exist_ok=True)
    setup, warm_ok = [], True
    try:
        for i in range(SETUP_SAMPLES):
            last = i == SETUP_SAMPLES - 1
            proc, seconds = start_worker(args, workdir / f"worker{i}",
                                         result_path if last else None)
            setup.append(seconds)
            if not last:
                warm_ok &= finish(proc, WORKER_TIMEOUT_S) == 0
        budget = WORKER_TIMEOUT_S - (time.perf_counter() - started)
        if finish(proc, budget) != 0 or None in setup:
            print("error: workload worker failed", file=sys.stderr)
            return 1
        result = json.loads(result_path.read_text(encoding="utf-8"))
        warm_ok &= all(r["ok"] for r in result["warmup"])

        extra = []
        if args.trace:
            env = workloads.child_env(ROOT)
            import_split = probes.import_profile(env, ROOT)
            first_calls = probes.run_first_call(env, ROOT, workdir)
            metrics = per_layer(result, import_split, first_calls, per_layer_names())
            extra.append(f"import: mibounds {import_split['import_s']:.3f} s, scipy "
                         f"{import_split['import_scipy_s']:.3f} s; slowest by self time: "
                         + ", ".join(f"{n} {s:.3f} s" for n, s in import_split["slowest_self_s"]))
            extra += [f"{layer}: first call {t['first_call_s']:.4f} s, steady {t['steady_s']:.4f} s"
                      for layer, t in first_calls["layers"].items()]
            spans = [{"pass": i, "process": j, **s}
                     for i, p in enumerate(result["passes"]) if p["traced"]
                     for j, proc_spans in enumerate(p["spans"]) for s in proc_spans]
            (RUN_DIR / f"spans_{tag}.jsonl").write_text(
                "".join(json.dumps(s) + "\n" for s in spans), encoding="utf-8")
        else:
            import_split = first_calls = None
            metrics = end_to_end(result, setup)

        records = [r for p in result["passes"] for r in p["records"]]
        failed = sum(not r["ok"] for r in records)
        for p_ in result["passes"]:
            p_.pop("spans")
        record = {"machine": machine_record(args.seed), "workload": args.workload,
                  "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
                  "setup_s_samples": setup, "import_profile": import_split,
                  "first_calls": first_calls, "metrics": metrics, "worker": result}
        (RUN_DIR / f"BENCH_{tag}.json").write_text(json.dumps(record, indent=1),
                                                   encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for line in describe(result, metrics, args, extra):
        print(line)
    print(json.dumps({
        "correct": failed == 0 and warm_ok,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
