#!/usr/bin/env python3
"""boostcd benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The command generates the workload's planted instances from
``--seed`` (see planted.py), then starts one measuring process that
imports boostcd, reads the instances back through ``instance.read_instance``
and calls the public entry points one after another (a closed loop with a
single client).  A run makes whole passes over a fixed schedule, as many
as fit ``--seconds`` on the reference machine (at least one), so every run
of a workload takes the same samples.  Every output is checked against
the planted ground truth by oracle.py.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` makes half the passes untraced and half with spans recorded
around the program's layer boundaries (spans.py), and reports per-layer
metrics, per measured pass, plus the tracing overhead; the spans are
written to ``bench/_work/``.  See NOTES.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / "_work"

NPROC = len(os.sched_getaffinity(0))
# BLAS threads are capped at the CPUs this process may use; set before numpy loads.
BLAS_THREADS = str(NPROC)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

sys.path.insert(0, str(HERE))
import oracle  # noqa: E402
import planted  # noqa: E402
from spans import SpanRecorder  # noqa: E402

# Metric names and units, as BENCHMARK.json declares them.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

# Every workload runs all five operations (set-up, analyze, run + certify,
# rates), so that every end-to-end metric is defined on every workload; each
# loads one layer group heavily and samples the others lightly.  The light
# part comes from a fixed seed: the workload seed varies only the heavy
# part, which is what the workload is about.  Within a pass, operations are
# spread evenly, so each metric's samples span the whole run: on a shared
# 2-vCPU VM, speed changes by up to a factor of two, for seconds to minutes.
PROBE_SEED = 0
# Analyses of ~0.15 s: 15 ms ones, between the large runs' BLAS calls,
# spread 0.35 across runs.
PROBE_ANALYZE = [(r, 30, 12, 0) for r in planted.REGIMES]
# The desk check: long runs on a small mixed instance, where per-step Python
# overhead and validation dominate and the mat-vecs are negligible.
DESK_SHAPE = (50, 20)
DESK_RUNS = [("logistic", "wolfe", 2000), ("exp", "wolfe", 2000), ("logistic", "exact", 2000)]

ANALYZE_SIZES = ((20, 8), (27, 11), (35, 14), (42, 17), (50, 20))
ANALYZE_REPLICAS = 3
LARGE_SHAPE = (5000, 500)
# Run mixes are lopsided (3:1 or 2:1) so the median run time falls inside
# one line search's group rather than between the two.
LARGE_RUNS = [  # (instance regime, loss, line search, iterations)
    (planted.WEAK_LEARNABLE, "logistic", "wolfe", 200),
    (planted.WEAK_LEARNABLE, "exp", "exact", 200),
    (planted.MIXED, "logistic", "exact", 200),
    (planted.MIXED, "exp", "exact", 200),
]
# Per pass: repeats of the analysis probes, rates batteries and set-ups.
PROBE_ANALYZE_PASSES = 8
RATES_PER_PASS = {"analyze-planted": 8, "descent-large": 5}
SETUPS_PER_PASS = {"analyze-planted": 4, "descent-large": 3}
# Nominal wall time of one pass on the reference machine.  A run makes
# round(seconds / PASS_S) whole passes (at least one), so every run of a
# workload takes the same samples whatever the machine's speed.
PASS_S = {"analyze-planted": 22.0, "descent-large": 32.0}

MATVEC_REPS = 25
CHILD_DEADLINE_S = 170.0


class NoSamples(Exception):
    """A metric has nothing to be computed from."""


# ---------------------------------------------------------------------------
# input generation (parent process)

def _write_instance(workdir: Path, key: str, p: planted.Planted, inputs: dict) -> None:
    m, n = p.a.shape
    with open(workdir / f"{key}.json", "w") as fh:
        json.dump({"m": m, "n": n, "entries": p.a.tolist()}, fh)
    np.save(workdir / f"{key}.npy", p.a)
    inputs["instances"][key] = {"regime": p.regime, "core": list(p.core), "margin": p.margin}


def _spread(*streams) -> list:
    """Merge op lists so each one's items are spread evenly over the pass."""
    placed = [((i + 0.5) / len(ops), k, op) for k, ops in enumerate(streams)
              for i, op in enumerate(ops)]
    return [op for _, _, op in sorted(placed, key=lambda t: t[:2])]


def build_inputs(workload: str, seed: int, workdir: Path) -> dict:
    """Plant the workload's instances under ``workdir`` and return the
    manifest the measuring process reads: the instances with their ground
    truth, the run specs, and the schedule of one pass."""
    inputs = {"workload": workload, "instances": {}, "runs": []}

    def add(key, regime, m, n, s, replica=0):
        if key not in inputs["instances"]:
            _write_instance(workdir, key, planted.plant(regime, m, n, s, replica), inputs)
        return key

    def runs(key, specs):
        ops = []
        for loss, line_search, iters in specs:
            ops.append(["run", len(inputs["runs"])])
            inputs["runs"].append({"instance": key, "loss": loss,
                                   "line_search": line_search, "iters": iters})
        return ops

    rates = [["rates"]] * RATES_PER_PASS[workload]
    setups = [["setup"]] * SETUPS_PER_PASS[workload]
    if workload == "analyze-planted":
        heavy = [["analyze", add(f"a-{r}-{m}x{n}-{rep}", r, m, n, seed, rep)]
                 for rep in range(ANALYZE_REPLICAS) for m, n in ANALYZE_SIZES
                 for r in planted.REGIMES]
        desk = add("probe-desk", planted.MIXED, *DESK_SHAPE, PROBE_SEED)
        schedule = _spread(heavy, runs(desk, DESK_RUNS), rates, setups)
    else:
        heavy = []
        for regime, loss, line_search, iters in LARGE_RUNS:
            heavy += runs(add(f"large-{regime}", regime, *LARGE_SHAPE, seed), [(loss, line_search, iters)])
        probe_analyze = [["analyze", add(f"probe-{r}-{m}x{n}-{rep}", r, m, n, PROBE_SEED, rep)]
                         for r, m, n, rep in PROBE_ANALYZE] * PROBE_ANALYZE_PASSES
        schedule = _spread(heavy, probe_analyze, rates, setups)
    inputs["schedule"] = schedule
    with open(workdir / "manifest.json", "w") as fh:
        json.dump(inputs, fh)
    return inputs


# ---------------------------------------------------------------------------
# measurement (child process)

IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import boostcd; print(time.perf_counter() - t)")


class Measurement:
    """The measuring process's state: program modules, instances, ops."""

    def __init__(self, workdir: Path, inputs: dict):
        sys.path.insert(0, str(SRC))
        from boostcd import boost, cli, instance, losses, structure
        self.boost, self.cli, self.instance = boost, cli, instance
        self.losses, self.structure = losses, structure
        self.workdir = workdir
        self.inputs = inputs
        self.mats = {k: np.load(workdir / f"{k}.npy") for k in inputs["instances"]}
        self.insts = {}
        self.loss_specs = {}
        self.setup_times = []
        self.ops = []          # (kind, seconds, verified, iterations, what)
        self.errors = []       # operations that raised
        self.uncertified = []  # structure reports whose witnesses failed verification
        self.wrong = []        # outputs that contradict the ground truth

    def setup(self) -> None:
        """Import (in a fresh interpreter), read every instance file and
        build every loss once; records the wall time of the three."""
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                             capture_output=True, text=True, check=True, timeout=60)
        import_s = float(out.stdout.strip().splitlines()[-1])
        t0 = time.perf_counter()
        insts = {k: self.instance.read_instance(self.workdir / f"{k}.json")
                 for k in self.inputs["instances"]}
        specs = {(r["loss"], insts[r["instance"]].m): self.losses.make_loss(r["loss"], insts[r["instance"]].m)
                 for r in self.inputs["runs"]}
        elapsed = time.perf_counter() - t0
        self.insts, self.loss_specs = insts, specs
        self.setup_times.append(import_s + elapsed)

    def _record(self, kind, seconds, problems, iterations=0, what="", unverified=()):
        self.ops.append((kind, seconds, not problems and not unverified, iterations, what))
        if problems:
            self.wrong.append(f"{kind} {what}: {'; '.join(problems)}")
        if unverified:
            self.uncertified.append(f"{kind} {what}: {'; '.join(unverified)}")

    def _raised(self, kind, what, exc, seconds=0.0):
        """Analyses that raise are the bundled simplex's known failures and
        are counted; an exception from any other operation is a wrong
        answer."""
        self.ops.append((kind, seconds, False, 0, what))
        line = f"{kind} {what}: {type(exc).__name__}: {exc}"
        (self.errors if kind == "analyze" else self.wrong).append(line)

    def analyze(self, key) -> None:
        t0 = time.perf_counter()
        try:
            report = self.structure.analyze(self.insts[key])
        except Exception as exc:  # a named failure of the program: counted, run goes on
            self._raised("analyze", key, exc, time.perf_counter() - t0)
            return
        seconds = time.perf_counter() - t0
        truth = self.inputs["instances"][key]
        self._record("analyze", seconds, oracle.check_report(truth, report), what=key,
                     unverified=oracle.check_witnesses(self.mats[key], truth, report))

    def run(self, index) -> None:
        """One descent run, then a dual certificate at its final state."""
        spec = self.inputs["runs"][index]
        key, kind = spec["instance"], spec["loss"]
        inst, what = self.insts[key], f"{key} {kind}/{spec['line_search']}"
        loss = self.loss_specs[(kind, inst.m)]
        cfg = self.boost.RunConfig(max_iters=spec["iters"], line_search=spec["line_search"])
        t0 = time.perf_counter()
        try:
            trace = self.boost.run(inst, loss, cfg)
        except Exception as exc:
            self._raised("run", what, exc)
            return
        seconds = time.perf_counter() - t0
        self._record("run", seconds, oracle.check_run(self.mats[key], kind, spec["iters"], trace),
                     len(trace.records), what)
        t0 = time.perf_counter()
        try:
            cert = self.structure.dual_certificate(inst, loss, trace.final_state)
        except Exception as exc:
            self._raised("certify", what, exc)
            return
        seconds = time.perf_counter() - t0
        self._record("certify", seconds,
                     oracle.check_certificate(self.mats[key], trace.final_state.objective, cert),
                     what=what)

    def rates(self) -> None:
        """One battery: ``boostcd rates`` for both losses."""
        problems = []
        t0 = time.perf_counter()
        for kind in ("logistic", "exp"):
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = self.cli.main(["rates", "--loss", kind])
            except Exception as exc:
                self._raised("rates", f"--loss {kind}", exc)
                return
            problems += oracle.check_rates(code, out.getvalue())
        self._record("rates", time.perf_counter() - t0, problems, what="battery")

    def one_pass(self) -> None:
        for op, *arg in self.inputs["schedule"]:
            getattr(self, op)(*arg)

    def passes(self, count: int) -> list:
        """``count`` whole passes; returns each pass's wall time."""
        walls = []
        for _ in range(count):
            t0 = time.perf_counter()
            self.one_pass()
            walls.append(time.perf_counter() - t0)
        return walls


def _shape_medians(meas: Measurement, analyses) -> list:
    """Median latency, in seconds, of the attempted analyses of each
    instance shape.  Analysis time varies several-fold between instances
    of one shape, so per-shape medians keep the size ladder's weight fixed
    from seed to seed."""
    by_shape = {}
    for op in analyses:
        by_shape.setdefault(meas.mats[op[4]].shape, []).append(op[1])
    return [statistics.median(v) for v in by_shape.values()]


def end_to_end(meas: Measurement) -> dict:
    """Every attempted analysis is timed, failed ones until they raise.
    Runs, certificates and rates batteries are timed when verified; any
    failure of theirs makes the result incorrect."""
    analyses = [op for op in meas.ops if op[0] == "analyze"]
    done = {k: [op for op in meas.ops if op[0] == k and op[2]] for k in ("run", "certify", "rates")}
    for kind, ops in (("analyze", analyses), *done.items()):
        if not ops:
            raise NoSamples(f"no {'attempted' if kind == 'analyze' else 'verified'} {kind} to time")
    shape_s = _shape_medians(meas, analyses)
    run_s = [op[1] for op in done["run"]]
    return {
        "setup_s": statistics.median(meas.setup_times),
        # each attempted analysis is charged its shape's median latency, so
        # a few pivot-budget failures (seconds each) do not swing the rate
        "analyze_per_s": (sum(op[2] for op in analyses) / len(analyses)
                          / statistics.fmean(shape_s)),
        "analyze_p50_ms": 1e3 * statistics.geometric_mean(shape_s),
        "run_iters_per_s": sum(op[3] for op in done["run"]) / sum(run_s),
        "run_p50_s": statistics.median(run_s),
        "certify_s": statistics.median(op[1] for op in done["certify"]),
        "rates_s": statistics.fmean(op[1] for op in done["rates"]),
        "verified_frac": sum(op[2] for op in meas.ops) / len(meas.ops),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def by_regime(meas: Measurement, ops) -> dict:
    """Analyses split by planted regime: {regime: (attempted, failed, seconds)}."""
    out = {r: [0, 0, 0.0] for r in planted.REGIMES}
    for kind, seconds, verified, _, key in ops:
        if kind == "analyze":
            row = out[meas.inputs["instances"][key]["regime"]]
            row[0] += 1
            row[1] += not verified
            row[2] += seconds
    return out


def install_spans(rec: SpanRecorder, meas: Measurement) -> None:
    boost, structure = meas.boost, meas.structure
    rec.wrap(boost, "boost_step", "boost.step")
    rec.wrap(boost, "select_coordinate", "boost.select")
    linesearch = getattr(boost, "linesearch", None)
    if linesearch is None:
        rec.absent += ["linesearch.wolfe", "linesearch.exact"]
    else:
        rec.wrap(linesearch, "wolfe_search", "linesearch.wolfe", search=True)
        rec.wrap(linesearch, "exact_search", "linesearch.exact", search=True)
    risk_cls = getattr(meas.losses, "RiskFunction", None)
    if risk_cls is None:
        rec.absent += ["losses.value", "losses.grad"]
    else:
        rec.wrap(risk_cls, "value", "losses.value", by_search=True)
        rec.wrap(risk_cls, "grad", "losses.grad", by_search=True)
    for fn in ("analyze", "weak_learnable", "attainable", "gamma_classical",
               "dual_certificate", "kernel_basis"):
        rec.wrap(structure, fn, f"structure.{fn}")
    rec.wrap(structure, "solve", "lp.solve")


def _matvec_ms(meas: Measurement) -> tuple:
    """Median wall time of inst.a @ lam and inst.a.T @ w on the workload's
    largest descent matrix."""
    key = max((r["instance"] for r in meas.inputs["runs"]), key=lambda k: meas.mats[k].size)
    a = meas.insts[key].a
    rng = np.random.default_rng(0)
    lam, w = rng.standard_normal(a.shape[1]), rng.random(a.shape[0])
    fwd, back = [], []
    for _ in range(MATVEC_REPS):
        t0 = time.perf_counter()
        a @ lam
        t1 = time.perf_counter()
        a.T @ w
        fwd.append(t1 - t0)
        back.append(time.perf_counter() - t1)
    return 1e3 * statistics.median(fwd), 1e3 * statistics.median(back)


def per_layer(rec: SpanRecorder, meas: Measurement, traced_ops, untraced_walls, traced_walls,
              matvec) -> dict:
    """Per traced pass, except ``instance.read_s``, which is per set-up."""
    s = rec.summary()
    passes = len(traced_walls)

    def get(name, field="s", per_pass=True):
        value = s[name][field] if name in s else 0
        return value / passes if per_pass else value

    out = {"instance.read_s": get("instance.read", per_pass=False) / len(meas.setup_times)}
    for fn in ("value", "grad"):
        for phase in (".search", ".rebuild"):
            out[f"losses.{fn}{phase}.calls"] = get(f"losses.{fn}{phase}", "calls")
            out[f"losses.{fn}{phase}.s"] = get(f"losses.{fn}{phase}")
        out[f"losses.{fn}.calls"] = out[f"losses.{fn}.search.calls"] + out[f"losses.{fn}.rebuild.calls"]
        out[f"losses.{fn}.s"] = out[f"losses.{fn}.search.s"] + out[f"losses.{fn}.rebuild.s"]
    for ls in ("wolfe", "exact"):
        for field in ("calls", "s", "evals"):
            out[f"linesearch.{ls}.{field}"] = get(f"linesearch.{ls}", field)
    out["boost.step.calls"] = get("boost.step", "calls")
    out["boost.step.s"] = get("boost.step")
    out["boost.select.s"] = get("boost.select")
    out["boost.rebuild.self_s"] = (out["boost.step.s"] - out["boost.select.s"]
                                   - out["linesearch.wolfe.s"] - out["linesearch.exact.s"])
    out["boost.matvec_ms"], out["boost.rmatvec_ms"] = matvec
    out["structure.analyze.calls"] = get("structure.analyze", "calls")
    out["structure.analyze.s"] = get("structure.analyze")
    out["structure.analyze.self_s"] = get("structure.analyze", "self_s")
    lp_in_analyze = s["structure.analyze"]["within"].get("lp.solve", 0) if "structure.analyze" in s else 0
    out["structure.analyze.lp_calls"] = lp_in_analyze / passes
    for fn in ("weak_learnable", "attainable", "gamma_classical", "dual_certificate", "kernel_basis"):
        out[f"structure.{fn}.s"] = get(f"structure.{fn}")
    out["lp.solve.calls"] = get("lp.solve", "calls")
    out["lp.solve.s"] = get("lp.solve")
    out["lp.solve.max_s"] = get("lp.solve", "max_s", per_pass=False)
    out["lp.solve.failed"] = get("lp.solve", "errors")
    for regime, (_, failed, seconds) in by_regime(meas, traced_ops).items():
        out[f"analyze.{regime}.failed"] = failed / passes
        out[f"analyze.{regime}.s"] = seconds / passes
    untraced, traced = statistics.fmean(untraced_walls), statistics.fmean(traced_walls)
    out["tracing.overhead_s"] = traced - untraced
    out["tracing.overhead_frac"] = (traced - untraced) / untraced
    return out


def measure(workdir: Path, seed: int, seconds: int, trace: bool) -> int:
    with open(workdir / "manifest.json") as fh:
        inputs = json.load(fh)
    meas = Measurement(workdir, inputs)
    rec = SpanRecorder()
    if trace:
        rec.wrap(meas.instance, "read_instance", "instance.read")
    meas.setup()
    count = max(1, round((seconds / 2 if trace else seconds) / PASS_S[inputs["workload"]]))
    walls = meas.passes(count)
    traced_walls = []
    try:
        if trace:
            untraced_ops = len(meas.ops)
            install_spans(rec, meas)
            try:
                traced_walls = meas.passes(count)
            finally:
                rec.restore()
            metrics = per_layer(rec, meas, meas.ops[untraced_ops:], walls, traced_walls,
                                _matvec_ms(meas))
            units = PER_LAYER_UNITS
            spans_path = WORK / f"spans-{inputs['workload']}-seed{seed}.json"
            rec.dump(spans_path)
        else:
            metrics = end_to_end(meas)
            units = END_TO_END_UNITS
    except NoSamples as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1

    import scipy
    attempted, failed = len(meas.ops), sum(not op[2] for op in meas.ops)
    print(f"workload={inputs['workload']} seed={seed} trace={int(trace)} passes={len(walls)}"
          f"+{len(traced_walls)} pass_s={statistics.fmean(walls):.3f}")
    print(f"env: python={sys.version.split()[0]} numpy={np.__version__} scipy={scipy.__version__} "
          f"nproc={NPROC} blas_threads={BLAS_THREADS} clients=1 (closed loop)")
    counts = {k: sum(op[0] == k for op in meas.ops) for k in ("analyze", "run", "certify", "rates")}
    print("operations: " + " ".join(f"{k}={v}" for k, v in counts.items())
          + f" setups={len(meas.setup_times)} attempted={attempted} failed={failed}"
          f" failed_frac={failed / attempted:.4f}")
    print("analyses by regime (attempted/failed/seconds): " + " ".join(
        f"{r}={n}/{f}/{t:.2f}" for r, (n, f, t) in by_regime(meas, meas.ops).items()))
    for line in sorted(set(meas.errors)):
        print(f"raised ({meas.errors.count(line)}x): {line}")
    for line in meas.uncertified:
        print(f"witness failed verification: {line}")
    for line in meas.wrong:
        print(f"WRONG: {line}")
    if trace:
        print(f"spans: {len(rec.spans)} written to {spans_path.relative_to(HERE.parent)}; "
              f"absent boundaries: {', '.join(rec.absent) or 'none'}")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6g} {units[name]}")
    print(json.dumps({
        "correct": not meas.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--measure", metavar="WORKDIR", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if args.measure:
        return measure(Path(args.measure), args.seed, args.seconds, bool(args.trace))
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "boostcd" / "__init__.py").is_file():
        print(f"error: no boostcd sources at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 1

    # A SIGTERM unwinds like an exception, so the measuring process is
    # killed and reaped and the planted inputs are removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    workdir = WORK / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        build_inputs(args.workload, args.seed, workdir)
        cmd = [sys.executable, str(Path(__file__).resolve()), "--measure", str(workdir),
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        try:
            child = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                   timeout=CHILD_DEADLINE_S - (time.perf_counter() - started))
        except subprocess.TimeoutExpired:
            print("error: measuring process overran its deadline", file=sys.stderr)
            return 1
        if child.returncode != 0:
            print(f"error: measuring process exited {child.returncode}", file=sys.stderr)
            return 1
        sys.stdout.write(child.stdout)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
