"""Self-test of the benchmark at a tiny size.

Run from the repository root:  python3 bench/selftest.py

Checks that
* every workload emits exactly the end-to-end metrics of BENCHMARK.json
  untraced and exactly its per-layer metrics traced, with their units;
* two seeds give different full-size inputs but the same operation count;
* the tracer wraps every binding of a target function in every module
  that imported it by name, and restores every one afterwards;
* the import-time parser splits a known profile correctly;
* without the mibounds sources the benchmark exits nonzero and prints
  no result.
Exits 1 on the first failed check.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import probes  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload, seed, trace, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
                           "--tiny"], cwd=cwd, capture_output=True, text=True, timeout=180)


def expect(ok, message):
    if not ok:
        print(f"FAIL  {message}")
        sys.exit(1)
    print(f"ok    {message}")


def check_output(workload, seed, trace):
    proc = bench(workload, seed, trace)
    expect(proc.returncode == 0, f"{workload} seed {seed} trace {trace} exits 0 "
                                 f"{proc.stderr.strip()[-300:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(out) == {"correct", "attempted", "failed", "metrics"}
           and out["correct"] and out["attempted"] >= 1 and out["failed"] == 0,
           f"{workload} trace {trace} result keys and correctness")
    spec = SPEC["per_layer" if trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in out["metrics"].items()}
    expect(got == want, f"{workload} trace {trace} emits the {len(want)} metrics of "
                        f"BENCHMARK.json with their units")


def check_tracer():
    import mibounds.cli  # noqa: F401
    from mibounds import bounds, checks, cli, figures, protocols, svgplot

    originals = {name: getattr(mod, name) for mod, name in (
        (bounds, "fourier_bound_from_overlap"), (protocols, "optimize_en_state"),
        (svgplot, "render_line_plot"), (protocols, "minimize"))}
    t = tracer.Tracer()
    t.install()
    try:
        for mod, name in ((bounds, "fourier_bound_from_overlap"),
                          (cli, "fourier_bound_from_overlap"),
                          (checks, "fourier_bound_from_overlap"),
                          (protocols, "optimize_en_state"), (cli, "optimize_en_state"),
                          (figures, "optimize_en_state"), (checks, "optimize_en_state"),
                          (svgplot, "render_line_plot"), (cli, "render_line_plot"),
                          (protocols, "minimize")):
            expect(getattr(getattr(mod, name), "__bench_traced__", False),
                   f"{mod.__name__}.{name} is wrapped")
        expect(all(getattr(f, "__bench_traced__", False) for f in figures.FIGURES.values()),
               "every figure function in figures.FIGURES is wrapped")
        protocols.optimize_en_state(7, restarts=1)
        spans = t.take_spans()
    finally:
        t.restore()
    expect(tracer.wrapped_bindings() == [], "restore leaves no wrapper bound")
    expect(all(getattr(mod, name) is originals[name] for mod, name in (
        (cli, "fourier_bound_from_overlap"), (figures, "optimize_en_state"),
        (cli, "render_line_plot"), (protocols, "minimize"))), "restore puts the originals back")
    by_id = {s["id"]: s for s in spans}
    lbfgs = [s for s in spans if s["name"] == "protocols.lbfgs"]
    expect(lbfgs and all(by_id[s["parent"]]["name"] == "protocols.optimize_en_state"
                         for s in lbfgs), "lbfgs spans are children of optimize_en_state")
    agg = tracer.aggregate([spans])
    opt = "protocols.optimize_en_state"
    expect(abs(agg[f"{opt}.self_s"] + agg["protocols.lbfgs.self_s"]
               - agg[f"{opt}.busy_s"]) < 1e-9, "self times add up to the busy time")


def check_importtime():
    sample = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       scipy._lib",
        "import time:       200 |        300 |     scipy",
        "import time:       400 |        700 |   scipy.optimize",
        "import time:        50 |        750 |   mibounds.protocols",
        "import time:        10 |        10 |   mibounds.errors",
        "import time:         5 |        765 | mibounds",
    ])
    total, scipy, slowest = probes.parse_importtime(sample)
    expect(abs(total - 765e-6) < 1e-12 and abs(scipy - 700e-6) < 1e-12
           and slowest[0][0] == "scipy.optimize", "importtime parser")


def check_without_sources():
    bare = ROOT / ".bench_run" / "selftest_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("channel-sweep", 1, 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the sources: nonzero exit and no result")


def check_seeds():
    """Full-size inputs: built, not run, for two seeds."""
    for name, cls in workloads.WORKLOADS.items():
        made = []
        for seed in (1, 2):
            workdir = ROOT / ".bench_run" / f"selftest_{name}_{seed}"
            w = cls(ROOT, workloads.fresh_dir(workdir), seed)
            made.append((w.inputs_digest(), len(w.ops()), len(w.defect_probes())))
            shutil.rmtree(workdir, ignore_errors=True)
        expect(made[0][0] != made[1][0], f"{name}: seeds 1 and 2 generate different inputs")
        expect(made[0][1:] == made[1][1:],
               f"{name}: seeds 1 and 2 give the same operation count {made[0][1:]}")


def main():
    check_importtime()
    check_tracer()
    check_seeds()
    check_without_sources()
    for workload in workloads.WORKLOADS:
        check_output(workload, 1, 0)
        check_output(workload, 1, 1)
    print("self-test passed")


if __name__ == "__main__":
    main()
