"""Import profile and first-call probe, each in a fresh interpreter.

``python bench/probes.py first-call WORKDIR`` imports mibounds, then
calls into each layer once (the first call) and five more times (the
steady state), lowest layer first, and prints one JSON object with the
seconds of each. ``import_profile`` parses ``python -X importtime``.
"""

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

LAYER_ORDER = ("numerics", "channels", "bounds", "qpe_strategy", "protocols",
               "svgplot", "figures", "checks", "cli")
STEADY_CALLS = 5


def parse_importtime(stderr):
    """(mibounds cumulative s, scipy cumulative s, five slowest by self time).

    ``-X importtime`` prints each module after the modules it imported,
    one indentation level (two spaces) deeper per nesting level. scipy
    time is the cumulative time of every scipy module whose importer is
    not itself a scipy module.
    """
    pending = {}
    flat = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        self_us, cum_us, name_field = line[len("import time:"):].split("|")
        name = name_field.strip()
        depth = (len(name_field) - len(name_field.lstrip()) - 1) // 2
        node = {"name": name, "self": int(self_us) / 1e6, "cum": int(cum_us) / 1e6,
                "children": pending.pop(depth + 1, [])}
        pending.setdefault(depth, []).append(node)
        flat.append(node)
    roots = [n for depth in sorted(pending) for n in pending[depth]]

    def scipy_time(node, inside):
        is_scipy = node["name"] == "scipy" or node["name"].startswith("scipy.")
        if is_scipy and not inside:
            return node["cum"]
        return sum(scipy_time(c, inside or is_scipy) for c in node["children"])

    mibounds = next(n["cum"] for n in flat if n["name"] == "mibounds")
    scipy = sum(scipy_time(r, False) for r in roots)
    slowest = sorted(flat, key=lambda n: -n["self"])[:5]
    return mibounds, scipy, [(n["name"], n["self"]) for n in slowest]


def import_profile(env, cwd, runs=3):
    """Median import split over ``runs`` fresh interpreters."""
    samples = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mibounds"],
                              env=env, cwd=cwd, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"import mibounds failed: {proc.stderr.strip()[-300:]}")
        samples.append(parse_importtime(proc.stderr))
    mid = sorted(samples, key=lambda s: s[0])[len(samples) // 2]
    return {"import_s": statistics.median(s[0] for s in samples),
            "import_scipy_s": statistics.median(s[1] for s in samples),
            "slowest_self_s": mid[2]}


def _layer_calls(workdir):
    import numpy as np
    from mibounds import bounds, channels, checks, cli, figures, numerics, protocols
    from mibounds import qpe_strategy, svgplot

    model = channels.NoisyQpeModel("dephasing", 4, 0.9)
    phis = np.arange(64) / 64.0
    f = numerics.PeriodicGridFunction(1.0, (1.0 + np.exp(2j * np.pi * phis)) / 2.0)
    out = str(Path(workdir) / "first_call.json")
    return {
        "numerics": lambda: numerics.fourier_modes(f, (-8, 8)),
        "channels": lambda: channels.overlap_function(model),
        "bounds": lambda: bounds.fourier_bound_from_overlap(f),
        "qpe_strategy": lambda: qpe_strategy.enhancement_term(3, 0.9),
        "protocols": lambda: protocols.optimize_en_state(7),
        "svgplot": lambda: svgplot.render_line_plot([("a", [0, 1, 2], [0, 1, 4])]),
        "figures": lambda: figures.FIGURES["b_sigma"](n_sigma=20),
        "checks": lambda: checks.run_suite("channels"),
        "cli": lambda: cli.main(["bound", "--channel", "dephasing", "--M", "2",
                                 "--eta", "1", "--out", out]),
    }


def first_call(workdir):
    t0 = time.perf_counter()
    import mibounds  # noqa: F401
    result = {"import_s": time.perf_counter() - t0, "layers": {}}
    calls = _layer_calls(workdir)
    for layer in LAYER_ORDER:
        times = []
        for _ in range(1 + STEADY_CALLS):
            t = time.perf_counter()
            calls[layer]()
            times.append(time.perf_counter() - t)
        result["layers"][layer] = {"first_call_s": times[0],
                                   "steady_s": statistics.median(times[1:])}
    return result


def run_first_call(env, cwd, workdir):
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "first-call",
                           str(workdir)], env=env, cwd=cwd, capture_output=True,
                          text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"first-call probe failed: {proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


if __name__ == "__main__":
    if sys.argv[1:2] != ["first-call"] or len(sys.argv) != 3:
        sys.exit("usage: probes.py first-call WORKDIR")
    print(json.dumps(first_call(sys.argv[2])))
