"""The three workloads: their inputs, operation lists and output checks.

Every workload builds its inputs from the seed alone, keeps the same
operation count for every seed, and checks each operation's output
against ``reference`` (never against mibounds itself). An operation
fails when it raises, times out, exits with an unexpected code or
returns a wrong value.

* ``cli-cold``: fresh ``python -m mibounds`` children, one at a time.
  Every real command pays interpreter start and package import, so this
  isolates the import layer and the CLI plumbing.
* ``channel-sweep``: in-process ``cli.main(["bound", "--channel", ...])``
  over every channel kind and M = 1..12, 14, 16, plus the states route
  for M = 1..6 on a 512-point grid. The grid/FFT numerics, overlap
  synthesis and the states route do nearly all the work; import is paid
  once in set-up. Erasure at M = 6 sets a peak of about 1.3 GB.
* ``protocols-mix``: in-process optimizer runs, two-seed trials and one
  ``figure entropy2``. Many small 256- and 4096-point transforms, scipy
  L-BFGS and G x G circulant matrices; no channel or states route.
"""

import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import reference as ref

CHILD_TIMEOUT_S = 60.0
CHILD_ADDRESS_SPACE = 4 * 2**30


def child_env(root):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(root) / "src")
    return env


def fresh_dir(path):
    path = Path(path)
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def read_csv(path):
    """(header, float array of rows) of a numeric CSV written by the CLI."""
    lines = [ln for ln in Path(path).read_text(encoding="utf-8").splitlines()
             if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [[float(c) for c in ln.split(",")] for ln in lines[1:]]
    return header, np.asarray(rows, dtype=float)


def close(name, got, want, tol):
    if got is None or not math.isfinite(got) or abs(got - want) > tol:
        return f"{name} = {got!r}, reference {want!r} (tolerance {tol:g})"
    return None


class Op:
    """One timed operation: ``run`` is timed, ``check`` is not."""

    def __init__(self, name, run, check, outdir=None):
        self.name = name
        self.run = run
        self.check = check
        self.outdir = outdir


def _first_error(*messages):
    return next((m for m in messages if m), None)


# -- checks shared by the CLI ops, in a child or in process -----------------

def check_bound_report(path, method, want, tol):
    rep = json.loads(Path(path).read_text(encoding="utf-8"))
    if rep.get("method") != method:
        return f"method {rep.get('method')!r}, expected {method!r}"
    if rep.get("flags"):
        return f"unexpected flags {rep['flags']}"
    return close("bound_bits", rep.get("bound_bits"), want, tol)


def check_figure_files(outdir, names, svg):
    for name in names:
        for ext in (("csv", "svg") if svg else ("csv",)):
            path = Path(outdir) / f"{name}.{ext}"
            if not path.is_file():
                return f"missing {path.name}"
            if ext == "svg":
                text = path.read_text(encoding="utf-8")
                if not (text.lstrip().startswith("<svg") and text.rstrip().endswith("</svg>")):
                    return f"{path.name} is not an SVG document"
    return None


def check_entropy2(outdir, n_calls, svg):
    err = check_figure_files(outdir, ("entropy2", "entropy2_weights"), svg)
    if err:
        return err
    _, post = read_csv(Path(outdir) / "entropy2.csv")
    if post.shape != (16 * (n_calls + 1), 3):
        return f"entropy2.csv has shape {post.shape}"
    fejer = ref.fejer_density(n_calls, post[:, 0])
    worst = float(np.max(np.abs(post[:, 1] - fejer)))
    if worst > 1e-9 * (n_calls + 1):
        return f"p_uniform differs from the Fejer kernel by {worst:.3e}"
    _, weights = read_csv(Path(outdir) / "entropy2_weights.csv")
    return _first_error(
        close("mean p_optimal", float(post[:, 2].mean()), 1.0, 1e-9),
        close("sum weight_optimal", float(weights[:, 2].sum()), 1.0, 1e-9),
        None if weights.shape[0] == n_calls + 1 else "wrong weight rows",
    )


def check_optimizer(n_calls, entropy_bits, mi_bits, coefficients, uniform_entropy=None):
    """Criterion 07's thresholds, plus the entropy recomputed from the state."""
    grid = max(16 * (n_calls + 1), 4096)
    c = np.asarray(coefficients, dtype=float)
    uniform = ref.posterior_entropy_bits(np.full(n_calls + 1, 1.0 / math.sqrt(n_calls + 1)), grid)
    gain = uniform - entropy_bits
    return _first_error(
        close("entropy of returned state", ref.posterior_entropy_bits(c, grid), entropy_bits, 1e-9),
        close("mi_bits", mi_bits, -entropy_bits, 1e-12),
        None if uniform_entropy is None else close("uniform_entropy_bits", uniform_entropy, uniform, 1e-9),
        None if gain >= 1e-3 else f"gain over the flat state {gain:.3e} < 1e-3 bits",
        None if mi_bits <= math.log2(n_calls + 1) + 1e-6 else f"mi {mi_bits} above log2(N+1)",
    )


def check_two_seed_result(res, c, a, b, n_grid):
    single, split, merged = ref.two_seed(c, a, b, n_grid)
    return _first_error(
        close("mi_single", res.mi_single, single, 1e-9),
        close("mi_split", res.mi_split, split, 1e-9),
        close("mi_merged", res.mi_merged, merged, 1e-9),
        None if res.always_ok else "always_ok is false",
        None if not res.wonder_violated else "wonder_violated is true",
    )


# -- cli-cold ----------------------------------------------------------------

def write_overlap_csv(path, rng, n_modes=8, n_grid=64):
    """Overlap f = sum_k w_k e^(i 2 pi k phi), k in [-8, 8]; its bound is H(w)."""
    w = rng.dirichlet(np.ones(2 * n_modes + 1))
    ks = np.arange(-n_modes, n_modes + 1)
    phis = np.arange(n_grid) / n_grid
    f = np.exp(2j * np.pi * np.outer(phis, ks)) @ w
    lines = ["phi,re,im"] + [f"{float(p)!r},{float(v.real)!r},{float(v.imag)!r}"
                               for p, v in zip(phis, f)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ref.entropy_bits(w)


def write_model_csv(path, rng, n_grid=4096):
    """Outcome model p1 = (1 + v cos 2 pi k phi) / 2, p2 = 1 - p1."""
    k = int(rng.integers(1, 9))
    v = float(rng.uniform(0.3, 0.95))
    phis = np.arange(n_grid) / n_grid
    p1 = (1.0 + v * np.cos(2.0 * np.pi * k * phis)) / 2.0
    lines = ["phi,p1,p2"] + [f"{float(p)!r},{float(a)!r},{float(1.0 - a)!r}"
                               for p, a in zip(phis, p1)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return ref.cosine_model_fisher_bound(k, v, n_grid)


class CliCold:
    name = "cli-cold"
    in_process = False

    def __init__(self, root, workdir, seed, tiny=False):
        self.root = Path(root)
        self.workdir = Path(workdir)
        self.seed = int(seed)
        self.tiny = tiny
        self.env = child_env(root)
        self.traced = False
        self.child_spans = []
        rng = np.random.default_rng([self.seed, 10])
        self.inputs = fresh_dir(self.workdir / "inputs")
        self.overlap_ref = write_overlap_csv(self.inputs / "overlap.csv", rng)
        self.model_ref = write_model_csv(self.inputs / "model.csv", rng)
        self.etas = {(kind, m): float(rng.uniform(0.05, 1.0))
                     for m in (2, 16) for kind in ref.CHANNEL_KINDS}
        self.fisher_m = int(rng.integers(2, 9))
        self.fisher_eta = float(rng.uniform(0.05, 1.0))
        self.chi_kind = ref.CHANNEL_KINDS[int(rng.integers(0, 3))]
        self.n_op = 0

    def inputs_digest(self):
        h = hashlib.sha256()
        for name in ("overlap.csv", "model.csv"):
            h.update((self.inputs / name).read_bytes())
        h.update(repr((sorted(self.etas.items()), self.fisher_m,
                       self.fisher_eta, self.chi_kind)).encode())
        return h.hexdigest()

    def _child(self, argv, opdir):
        spans = self.workdir / "child_spans.json"
        if self.traced:
            cmd = [sys.executable, str(self.root / "bench" / "traced_cli.py"),
                   str(spans), *argv]
        else:
            cmd = [sys.executable, "-m", "mibounds", *argv]
        try:
            return subprocess.run(cmd, cwd=opdir, env=self.env, capture_output=True,
                                  text=True, timeout=CHILD_TIMEOUT_S)
        finally:
            if self.traced and spans.is_file():
                self.child_spans.append(json.loads(spans.read_text()))
                spans.unlink()

    def take_child_spans(self):
        spans, self.child_spans = self.child_spans, []
        return spans

    def _op(self, label, argv, expect, check=None):
        """A child op; ``check(proc, outdir)`` runs after the exit-code test."""
        self.n_op += 1
        outdir = self.workdir / f"op{self.n_op:02d}"

        def run():
            return self._child(argv, outdir)

        def verify(proc):
            if "Traceback" in proc.stderr:
                return f"traceback: {proc.stderr.strip().splitlines()[-1]}"
            if proc.returncode not in expect:
                return f"exit {proc.returncode}, expected {sorted(expect)}"
            return check(proc, outdir) if check else None

        return Op(label, run, verify, outdir)

    def _bound(self, label, argv, method, want, tol):
        return self._op(label, ["bound", *argv, "--out", "report.json"], {0},
                        lambda p, d: check_bound_report(d / "report.json", method, want, tol))

    def _channel(self, kind, m):
        eta = self.etas[(kind, m)]
        return self._bound(f"bound {kind} M={m}",
                           ["--channel", kind, "--M", str(m), "--eta", repr(eta)],
                           "fourier", ref.channel_chi(kind, m, eta), 1e-8)

    def warmup_ops(self):
        return [self._op("--version (warm-up)", ["--version"], {0})]

    def ops(self):
        self.n_op = 0
        s = str(self.seed)
        if self.tiny:
            return [self._op("--version", ["--version"], {0}, self._check_version),
                    self._channel("dephasing", 2),
                    self._op("invalid --M 0", ["bound", "--channel", "dephasing", "--M", "0",
                                               "--eta", "0.5"], {2}, self._check_error)]
        ops = [self._op("--version", ["--version"], {0}, self._check_version)]
        ops += [self._channel(kind, m) for m in (2, 16) for kind in ref.CHANNEL_KINDS]
        ops += [
            self._bound(f"bound dephasing fisher M={self.fisher_m}",
                        ["--channel", "dephasing", "--M", str(self.fisher_m),
                         "--eta", repr(self.fisher_eta), "--method", "fisher"],
                        "fisher", ref.dephasing_fisher_bound(self.fisher_m, self.fisher_eta), 1e-9),
            self._bound("bound --overlap", ["--overlap", str(self.inputs / "overlap.csv")],
                        "fourier", self.overlap_ref, 1e-9),
            self._bound("bound --model", ["--model", str(self.inputs / "model.csv"),
                                          "--method", "fisher"],
                        "fisher", self.model_ref, 1e-9),
            self._op("figure b_sigma --svg", ["figure", "b_sigma", "--svg"], {0},
                     self._check_b_sigma),
            self._op(f"figure chi_qpe --kind {self.chi_kind} --svg",
                     ["figure", "chi_qpe", "--kind", self.chi_kind, "--svg"], {0},
                     self._check_chi_qpe),
            self._op("figure transition --svg", ["figure", "transition", "--svg"], {0},
                     self._check_transition),
            self._op("figure entropy2 --N 255", ["figure", "entropy2", "--N", "255",
                                                 "--seed", s], {0},
                     lambda p, d: check_entropy2(d, 255, svg=False)),
            self._op("optimize --N 255", ["optimize", "--N", "255", "--seed", s,
                                          "--out", "report.json"], {0}, self._check_optimize),
            self._op("two-seed --trials 100", ["two-seed", "--trials", "100", "--seed", s,
                                               "--out", "report.json"], {0},
                     self._check_two_seed),
            self._op("check channels", ["check", "channels"], {0}, self._check_suite),
            self._op("check all", ["check", "all"], {1}, self._check_suite),
        ]
        invalid = [
            ["bound", "--channel", "dephasing", "--M", "0", "--eta", "0.5"],
            ["bound", "--channel", "dephasing", "--M", "3", "--eta", "1.5"],
            ["bound", "--channel", "erasure", "--M", "3", "--eta", "0.5", "--method", "fisher"],
            ["bound", "--M", "3", "--eta", "0.5"],
            ["figure", "nosuch"],
        ]
        ops += [self._op("invalid: " + " ".join(a), a, {2}, self._check_error)
                for a in invalid]
        return ops

    def defect_probes(self):
        """The two documented defects, run and reported apart from the ops.

        A correct program returns the closed-form value, flags the result,
        or exits with a documented code (2 bad input, 3 numerical failure).
        """
        if self.tiny:
            return []
        return [
            self._op("defect: dephasing M=10 eta=1 --grid 6",
                     ["bound", "--channel", "dephasing", "--M", "10", "--eta", "1",
                      "--grid", "6", "--out", "report.json"], {0, 2, 3},
                     self._defect_check("dephasing", 10, 1.0, flagged_ok=True)),
            self._op("defect: erasure M=30 eta=0.9",
                     ["bound", "--channel", "erasure", "--M", "30", "--eta", "0.9",
                      "--out", "report.json"], {0, 2, 3},
                     self._defect_check("erasure", 30, 0.9, flagged_ok=False)),
        ]

    @staticmethod
    def _defect_check(kind, m, eta, flagged_ok):
        def check(proc, outdir):
            if proc.returncode != 0:
                return None
            rep = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
            if flagged_ok and rep.get("flags"):
                return None
            return close("bound_bits", rep.get("bound_bits"), ref.channel_chi(kind, m, eta), 1e-8)
        return check

    @staticmethod
    def _check_version(proc, outdir):
        if not re.fullmatch(r"\d+\.\d+\.\d+\S*", proc.stdout.strip()):
            return f"unexpected version output {proc.stdout.strip()!r}"
        return None

    @staticmethod
    def _check_error(proc, outdir):
        return None if proc.stderr.strip() else "no error message on stderr"

    @staticmethod
    def _check_b_sigma(proc, outdir):
        err = check_figure_files(outdir, ("b_sigma",), svg=True)
        if err:
            return err
        _, rows = read_csv(outdir / "b_sigma.csv")
        want = np.array([ref.fisher_curve(s * s) for s in rows[:, 0]])
        return _first_error(
            None if rows.shape == (200, 4) else f"b_sigma.csv shape {rows.shape}",
            close("max |bound - curve|", float(np.max(np.abs(rows[:, 2] - want))), 0.0, 1e-12),
            close("max |margin - (bound - entropy)|",
                  float(np.max(np.abs(rows[:, 3] - (rows[:, 2] - rows[:, 1])))), 0.0, 1e-12),
        )

    def _check_chi_qpe(self, proc, outdir):
        err = check_figure_files(outdir, ("chi_qpe",), svg=True)
        if err:
            return err
        _, rows = read_csv(outdir / "chi_qpe.csv")
        want = np.array([ref.channel_chi(self.chi_kind, int(m), e) for e, m, _ in rows])
        return _first_error(
            None if rows.shape == (5 * 101, 3) else f"chi_qpe.csv shape {rows.shape}",
            close("max |chi - closed form|", float(np.max(np.abs(rows[:, 2] - want))), 0.0, 1e-10),
        )

    @staticmethod
    def _check_transition(proc, outdir):
        err = check_figure_files(outdir, ("transition",), svg=True)
        if err:
            return err
        _, rows = read_csv(outdir / "transition.csv")
        want = np.array([ref.enhancement_term(int(m), e) for e, m, _ in rows])
        return _first_error(
            None if rows.shape == (5 * 201, 3) else f"transition.csv shape {rows.shape}",
            close("max |term - closed form|", float(np.max(np.abs(rows[:, 2] - want))), 0.0, 1e-10),
        )

    @staticmethod
    def _check_optimize(proc, outdir):
        rep = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        return check_optimizer(255, rep["entropy_bits"], rep["mi_bits"],
                               rep["coefficients"], rep["uniform_entropy_bits"])

    @staticmethod
    def _check_two_seed(proc, outdir):
        rep = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
        summary = rep["summary"]
        if (summary["n_trials"], summary["always_violations"],
                summary["wonder_satisfied"]) != (100, 0, 0):
            return f"summary {summary}"
        singles = {}
        for t in rep["trials"]:
            n = t["n_calls"]
            if n not in singles:
                c = np.full(n + 1, 1.0 / math.sqrt(n + 1))
                singles[n] = ref.circulant_mi(ref.synthesized_density(c, 256))
            err = _first_error(
                close("mi_single", t["mi_single"], singles[n], 1e-9),
                close("lambda_1 + lambda_2", t["lambda_1"] + t["lambda_2"], 1.0, 1e-8),
                None if t["always_ok"] and not t["wonder_violated"] else f"trial {t}",
            )
            if err:
                return err
        return None

    @staticmethod
    def _check_suite(proc, outdir):
        lines = proc.stdout.strip().splitlines()
        fails = [ln.split()[1] for ln in lines if ln.startswith("FAIL")]
        passes = [ln for ln in lines if ln.startswith("PASS")]
        if proc.returncode == 1:
            if fails != ["numerics.entropy_vs_bound_scan"]:
                return f"failing checks {fails}, expected only numerics.entropy_vs_bound_scan"
        elif fails or not passes:
            return f"failing checks {fails}"
        return None


# -- in-process workloads --------------------------------------------------------

class _InProcess:
    in_process = True

    def __init__(self, root, workdir, seed, tiny=False):
        import mibounds.cli  # noqa: F401  (the import is part of set-up)
        self.mods = {name: sys.modules[f"mibounds.{name}"]
                     for name in ("cli", "bounds", "channels", "protocols")}
        self.workdir = Path(workdir)
        self.seed = int(seed)
        self.tiny = tiny
        self.outdir = fresh_dir(self.workdir / "out")

    def _cli(self, label, argv, check):
        outdir = self.outdir

        def run():
            return self.mods["cli"].main(argv)

        def verify(rc):
            return f"exit {rc}, expected 0" if rc != 0 else check()

        return Op(label, run, verify, outdir)

    def defect_probes(self):
        return []


class ChannelSweep(_InProcess):
    name = "channel-sweep"
    STATES_GRID = 512

    def __init__(self, root, workdir, seed, tiny=False):
        super().__init__(root, workdir, seed, tiny)
        rng = np.random.default_rng([self.seed, 20])
        self.bound_ms = (1, 2, 3) if tiny else tuple(range(1, 13)) + (14, 16)
        self.states_ms = (1, 2) if tiny else tuple(range(1, 7))
        self.bound_etas = {(k, m): float(rng.uniform(0.05, 1.0))
                           for k in ref.CHANNEL_KINDS for m in self.bound_ms}
        self.states_etas = {(k, m): float(rng.uniform(0.05, 1.0))
                            for k in ref.CHANNEL_KINDS for m in self.states_ms}
        self.warm_eta = float(rng.uniform(0.05, 1.0))
        self.prior = self.mods["bounds"].PriorDensity.uniform(1.0, self.STATES_GRID)

    def inputs_digest(self):
        return hashlib.sha256(repr((sorted(self.bound_etas.items()),
                                    sorted(self.states_etas.items()))).encode()).hexdigest()

    def _bound(self, kind, m, eta):
        out = self.outdir / "report.json"
        argv = ["bound", "--channel", kind, "--M", str(m), "--eta", repr(eta), "--out", str(out)]
        return self._cli(f"bound {kind} M={m}", argv,
                         lambda: check_bound_report(out, "fourier", ref.channel_chi(kind, m, eta), 1e-8))

    def _states(self, kind, m, eta):
        bounds, channels = self.mods["bounds"], self.mods["channels"]
        prior = self.prior
        model = channels.NoisyQpeModel(kind, m, eta)
        k_side = model.n_calls + 2

        def run():
            family = bounds.StateFamily(1.0, channels.purified_state_family(model, prior.grid))
            return bounds.fourier_bound_from_states(family, prior, (-k_side, k_side))

        def check(rep):
            return _first_error(None if not rep.flags else f"unexpected flags {rep.flags}",
                                close("bound_bits", rep.bound_bits, ref.channel_chi(kind, m, eta), 1e-8))

        return Op(f"states {kind} M={m}", run, check)

    def warmup_ops(self):
        return ([self._bound(k, 1, self.warm_eta) for k in ref.CHANNEL_KINDS]
                + [self._states(k, 1, self.warm_eta) for k in ref.CHANNEL_KINDS])

    def ops(self):
        return ([self._bound(k, m, self.bound_etas[(k, m)])
                 for k in ref.CHANNEL_KINDS for m in self.bound_ms]
                + [self._states(k, m, self.states_etas[(k, m)])
                   for k in ref.CHANNEL_KINDS for m in self.states_ms])


class ProtocolsMix(_InProcess):
    name = "protocols-mix"
    TWO_SEED_GRID = 256

    def __init__(self, root, workdir, seed, tiny=False):
        super().__init__(root, workdir, seed, tiny)
        protocols = self.mods["protocols"]
        rng = np.random.default_rng([self.seed, 30])
        self.opt_ns = (7,) if tiny else (7, 31, 255, 1023)
        self.restarts = 2 if tiny else 8
        self.figure_n = 7 if tiny else 255
        self.pairs = []
        for _ in range(5 if tiny else 300):
            n = int(rng.integers(2, 5)) + 1
            u = rng.uniform(0.0, 1.0, size=n)
            a = np.sqrt(u) * rng.choice([-1.0, 1.0], size=n)
            b = np.sqrt(1.0 - u) * rng.choice([-1.0, 1.0], size=n)
            state = protocols.EntangledState.uniform(n - 1)
            self.pairs.append(protocols.SeedPair(state, a.astype(complex), b.astype(complex)))

    def inputs_digest(self):
        h = hashlib.sha256()
        for p in self.pairs:
            h.update(p.a.tobytes())
            h.update(p.b.tobytes())
        return h.hexdigest()

    def _optimize(self, n_calls, restarts):
        protocols = self.mods["protocols"]

        def run():
            return protocols.optimize_en_state(n_calls, restarts=restarts, seed=self.seed)

        def check(result):
            state, entropy, mi, _trace = result
            return check_optimizer(n_calls, entropy, mi, state.coefficients)

        return Op(f"optimize_en_state N={n_calls}", run, check)

    def _two_seed(self, i, pair):
        protocols = self.mods["protocols"]
        grid = self.TWO_SEED_GRID

        def run():
            return protocols.two_seed_experiment(pair, grid)

        def check(res):
            return check_two_seed_result(res, pair.state.coefficients, pair.a, pair.b, grid)

        return Op(f"two_seed trial {i}", run, check)

    def _figure(self, n_calls):
        argv = ["figure", "entropy2", "--N", str(n_calls), "--svg", "--seed", str(self.seed),
                "--out-dir", str(self.outdir)]
        return self._cli(f"figure entropy2 --N {n_calls} --svg", argv,
                         lambda: check_entropy2(self.outdir, n_calls, svg=True))

    def warmup_ops(self):
        return ([self._optimize(7, 2)]
                + [self._two_seed(i, p) for i, p in enumerate(self.pairs[:2])]
                + [self._figure(7)])

    def ops(self):
        return ([self._optimize(n, self.restarts) for n in self.opt_ns]
                + [self._two_seed(i, p) for i, p in enumerate(self.pairs)]
                + [self._figure(self.figure_n)])


WORKLOADS = {w.name: w for w in (CliCold, ChannelSweep, ProtocolsMix)}
