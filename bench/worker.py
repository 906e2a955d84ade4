"""One workload process: set up, warm up, then run the measured passes.

Started by run.py, never by hand. Prints ``READY`` on stdout once set-up
(interpreter start, imports, input generation and one warm-up call of
each kind) is done, so the parent can time it. With ``--setup-only`` it
exits there. Otherwise an in-process workload runs one untimed warm-up
pass. Then it runs as many whole passes over the workload's fixed
operation list as fit in ``--seconds``, at least one (with ``--trace 1``
untraced and traced passes alternate, at least one of each), and writes
its raw results as JSON to ``--result``.
"""

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import workloads
from tracer import Tracer, aggregate, wrapped_bindings


def run_pass(ops):
    sink = io.StringIO()
    records = []
    for op in ops:
        if op.outdir:
            workloads.fresh_dir(op.outdir)
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(sink):
                value = op.run()
            error = None
        except Exception as exc:
            value, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        if error is None:
            try:
                error = op.check(value)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        written = workloads.dir_bytes(op.outdir) if op.outdir else 0
        records.append({"op": op.name, "s": elapsed, "ok": error is None,
                        "error": error, "bytes_written": written})
        sink.seek(0)
        sink.truncate()
    return records


def traced_pass(workload, ops, tracer):
    """Run one pass with the tracer on; return (records, span lists)."""
    if workload.in_process:
        tracer.install()
        try:
            records = run_pass(ops)
        finally:
            tracer.restore()
        left = wrapped_bindings()
        if left:
            raise RuntimeError(f"tracer left wrappers bound at {left}")
        return records, [tracer.take_spans()]
    workload.traced = True
    try:
        records = run_pass(ops)
    finally:
        workload.traced = False
    return records, workload.take_child_spans()


def main():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    p.add_argument("--workdir", required=True)
    p.add_argument("--result")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()
    root = Path(__file__).resolve().parent.parent

    cls = workloads.WORKLOADS[args.workload]
    if not cls.in_process:
        # children inherit the limit: a runaway allocation fails fast
        # instead of pressing on the machine's memory
        limit = workloads.CHILD_ADDRESS_SPACE
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    workload = cls(root, workloads.fresh_dir(args.workdir), args.seed, args.tiny)
    warmup = run_pass(workload.warmup_ops())
    print("READY", flush=True)
    if args.setup_only:
        return 0 if all(r["ok"] for r in warmup) else 1

    ops = workload.ops()
    probes = workload.defect_probes()
    # a full untimed pass first, so that FFT plans and allocator pools
    # for every size are in place before the measured passes
    warmup_pass = run_pass(ops) if workload.in_process else []
    tracer = Tracer()
    passes = []
    started = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        if traced:
            records, spans = traced_pass(workload, ops, tracer)
            layer = aggregate(spans)
            layer["cli.bytes_written"] = sum(r["bytes_written"] for r in records)
        else:
            records, spans, layer = run_pass(ops), None, None
        # the known-defect probes run untraced, apart from the counted ops
        passes.append({"traced": traced, "records": records, "probes": run_pass(probes),
                       "layer": layer, "spans": spans})
        elapsed = time.perf_counter() - started
        fits = elapsed * (len(passes) + 1) / len(passes) <= args.seconds
        if not fits and (not args.trace or len(passes) % 2 == 0):
            break

    who = resource.RUSAGE_SELF if workload.in_process else resource.RUSAGE_CHILDREN
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "inputs_digest": workload.inputs_digest(),
        "warmup": warmup + warmup_pass,
        "passes": passes,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
