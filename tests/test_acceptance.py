"""Acceptance gate.

Each test checks one promised behavior end to end and prints a single
``[acceptance] <name>: PASS|FAIL`` line (run pytest with -s to see them
on success).  Tolerances here are contractual: do not widen them.
"""

import math

import numpy as np

import references
from boostcd import boost, fixtures, structure
from boostcd.boost import RunConfig, initial_state, run
from boostcd.cli import main
from boostcd.instance import from_json, make_instance, to_json
from boostcd.losses import (
    KINDS,
    LOGISTIC,
    conj_eval,
    conj_grad,
    loss_eval,
    loss_grad,
    make_loss,
)

MIXED_OPTIMUM = 2 * math.log(2)


def _verdict(label, failures):
    print(f"[acceptance] {label}: {'FAIL' if failures else 'PASS'}", flush=True)
    assert not failures, f"{label}:\n" + "\n".join(failures[:20])


def test_mixed_lower_bound_with_exact_steps():
    # logistic descent with exact steps on the two-cluster-plus-outlier
    # instance: suboptimality stays above 1/(8t), the first step is ln 2,
    # coordinates alternate, the per-step stationarity identity
    # exp(2u) = exp(2v) + 2 exp(v-u) + 2 holds, and the iterate norm
    # grows no faster than ln(4t)
    failures = []
    inst = fixtures.mixed_3x2()
    trace = run(inst, make_loss(LOGISTIC, inst.m),
                RunConfig(max_iters=200, line_search="exact"))
    fs = trace.objectives()
    if len(trace.records) != 200:
        failures.append(f"expected 200 iterations, got {len(trace.records)}")
    if abs(trace.records[0].alpha - math.log(2)) > 1e-10:
        failures.append(f"first step {trace.records[0].alpha!r} != ln 2")
    lam = np.zeros(inst.n)
    for i, r in enumerate(trace.records):
        t = i + 1
        sub = fs[t] - MIXED_OPTIMUM
        if not sub >= 1.0 / (8.0 * t):
            failures.append(f"t={t}: suboptimality {sub!r} < 1/(8t)")
        if i >= 1 and r.j == trace.records[i - 1].j:
            failures.append(f"t={t}: coordinate {r.j} repeated")
        lam[r.j] += r.sign * r.alpha
        u, v = float(np.max(lam)), float(np.min(lam))
        residual = abs(
            math.exp(2 * u) - math.exp(2 * v) - 2 * math.exp(v - u) - 2.0
        )
        if residual > 1e-8:
            failures.append(f"t={t}: stationarity residual {residual!r}")
        if float(np.sum(np.abs(lam))) > math.log(4.0 * t):
            failures.append(f"t={t}: |lam|_1 exceeds ln(4t)")
    _verdict("mixed-instance 1/(8t) lower bound", failures)


def test_weak_learnable_geometric_rate():
    # exponential loss with Wolfe(1/3, 1/2) contracts by (1 - gamma^2/6)
    # per iteration and reaches 1e-6 well inside the implied budget
    failures = []
    instances = [("weaklearn-3x3", fixtures.weaklearn_3x3())]
    for seed in range(50):
        inst = fixtures.random_by_regime("weak_learnable", seed=seed, m=5,
                                         n=4, entries="ternary")
        instances.append((f"random-{seed}", inst))
    target = 1e-6
    for name, inst in instances:
        gamma = structure.gamma_classical(inst)
        if not gamma > 1e-8:
            failures.append(f"{name}: gamma {gamma!r} not positive")
            continue
        trace = run(inst, make_loss("exp", inst.m),
                    RunConfig(max_iters=10 * math.ceil(
                        6.0 / gamma ** 2 * math.log(inst.m / target)),
                        target_objective=target))
        fs = trace.objectives()
        ratio = 1.0 - gamma ** 2 / 6.0
        bad = np.flatnonzero(fs[1:] > fs[:-1] * ratio + 1e-9)
        if bad.size:
            failures.append(f"{name}: contraction bound fails at t={bad[0] + 1}")
        if trace.status != boost.TARGET_REACHED:
            failures.append(f"{name}: stopped with {trace.status}, "
                            f"objective {trace.final_state.objective!r}")
    _verdict("weak-learnable geometric rate", failures)


def test_per_step_descent_guarantees():
    # every Wolfe step decreases the objective by at least
    # grad_inf^2 / (6 f); closed-form steps meet the stronger
    # denominator 2 f, both as exact inequalities (g'' <= g)
    failures = []
    for name, make_fixture in fixtures.FIXTURES.items():
        inst = make_fixture()
        for kind in KINDS:
            loss = make_loss(kind, inst.m)
            for search, denom in (("wolfe", 6.0), ("closed", 2.0)):
                trace = run(inst, loss, RunConfig(
                    grad_tol=1e-6, max_iters=150, line_search=search))
                fs = trace.objectives()
                for i, r in enumerate(trace.records):
                    floor = r.grad_inf ** 2 / (denom * fs[i])
                    if not fs[i] - fs[i + 1] >= floor:
                        failures.append(
                            f"{name}/{kind}/{search} t={i + 1}: decrement "
                            f"{fs[i] - fs[i + 1]!r} < {floor!r}"
                        )
    _verdict("per-step descent guarantees", failures)


def test_structural_alternatives_on_random_instances():
    # Gordan and Stiemke alternatives, hard-core split, and the positivity
    # of the classical rate, cross-checked over 1000 random matrices
    failures = []
    rng = np.random.default_rng(20260814)
    for i in range(1000):
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 7))
        entries = "ternary" if i % 2 == 0 else "uniform"
        inst = fixtures.random_instance(rng, m, n, entries=entries)
        core = structure.hard_core(inst)
        weak, _ = references.weak_learnable(inst)
        att, _ = references.attainable(inst)
        ray, _ = references._nonpositive_nonzero_ray(inst)
        if weak != (core == []):
            failures.append(f"#{i}: halfspace witness vs empty core disagree")
        if att != (len(core) == inst.m):
            failures.append(f"#{i}: positive dual vs full core disagree")
        if att == ray:
            failures.append(f"#{i}: ray and positive dual both {att}")
        if (structure.gamma_classical(inst) > 1e-8) != weak:
            failures.append(f"#{i}: gamma positivity disagrees with regime")
        try:
            structure.decompose(inst)
        except structure.InvariantViolationError as exc:
            failures.append(f"#{i}: decompose sub-check failed: {exc}")
    if structure.hard_core(fixtures.mixed_3x2()) != [1, 2]:
        failures.append("mixed fixture hard core is not [1, 2]")
    _verdict("structural alternatives", failures)


def test_conjugate_duality_suite():
    failures = []
    rng = np.random.default_rng(5)
    for kind in KINDS:
        loss = make_loss(kind, 3)
        xs = rng.uniform(-30.0, 5.0, size=1000)
        for x in xs:
            x = float(x)
            phi = loss_grad(loss, x)
            fy = abs(loss_eval(loss, x) + conj_eval(loss, phi) - x * phi)
            if fy > 1e-9:
                failures.append(f"{kind}: conjugate equality off by {fy!r} at {x!r}")
                break
            inv = conj_grad(loss, phi)
            if abs(inv - x) > 1e-10 * max(1.0, abs(x)):
                failures.append(f"{kind}: gradient inverse off at {x!r}")
                break
    # every extractable certificate bounds the optimum from below
    n_certs = 0
    for make_fixture in fixtures.FIXTURES.values():
        inst = make_fixture()
        for kind in KINDS:
            loss = make_loss(kind, inst.m)
            trace = run(inst, loss, RunConfig(grad_tol=1e-6, max_iters=150))
            for state in (initial_state(inst, loss), trace.final_state):
                cert = structure.dual_certificate(inst, loss, state)
                if cert is None:
                    continue
                n_certs += 1
                if cert.gap_bound < -1e-8:
                    failures.append(
                        f"{inst.m}x{inst.n}/{kind}: negative gap {cert.gap_bound!r}"
                    )
    if n_certs < 10:
        failures.append(f"only {n_certs} certificates extracted")
    # the two-example attainable instance certifies its own optimum with
    # equal weights on both examples
    inst = fixtures.attainable_pair()
    loss = make_loss(LOGISTIC, inst.m)
    trace = run(inst, loss)
    cert = structure.dual_certificate(inst, loss, trace.final_state)
    if cert is None or cert.gap_bound > 1e-6:
        failures.append(f"terminal certificate gap: {cert and cert.gap_bound!r}")
    elif abs(cert.psi[0] - cert.psi[1]) > 1e-12:
        failures.append(f"certificate weights differ: {cert.psi}")
    _verdict("conjugate duality", failures)


def test_mixed_inverse_envelope():
    # Wolfe logistic descent on the mixed instance decays like C/t: the
    # constant fitted on t in [5, 50] must still envelope t = 200, and the
    # run sits above the 1/(8t) floor there
    failures = []
    inst = fixtures.mixed_3x2()
    trace = run(inst, make_loss(LOGISTIC, inst.m), RunConfig(max_iters=200))
    fs = trace.objectives()
    ts = np.arange(1, len(fs))
    sub = fs[1:] - MIXED_OPTIMUM
    window = (ts >= 5) & (ts <= 50) & (sub > 5e-12)
    slope, intercept = np.polyfit(np.log(ts[window]), np.log(sub[window]), 1)
    c = float(np.exp(intercept))
    pred = np.exp(intercept + slope * np.log(ts[window]))
    residual = float(np.max(np.abs(pred / sub[window] - 1.0)))
    s200 = float(sub[-1])
    if not 1.0 / 1600.0 <= s200 <= c / 200.0:
        failures.append(
            f"t=200 suboptimality {s200!r} outside [1/1600, {c / 200.0!r}]"
        )
    if residual > 0.3:
        failures.append(f"fit residual {residual!r} > 0.3 (C={c!r}, "
                        f"slope={slope!r})")
    _verdict("mixed-regime 1/t envelope", failures)


def test_determinism_and_serialization(tmp_path):
    failures = []
    inst_path = tmp_path / "inst.json"
    assert main(["gen", "random", "--regime", "weak_learnable", "--seed", "9",
                 "--m", "5", "--n", "4", "--entries", "ternary",
                 "--out", str(inst_path)]) == 0
    traces = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code = main(["run", str(inst_path), "--loss", "exp", "--iters", "60",
                     "--grad-tol", "1e-6", "--out", str(out)])
        if code not in (0, 2):
            failures.append(f"run exited {code}")
        traces.append(out.read_bytes())
    if traces[0] != traces[1]:
        failures.append("identical flags produced different traces")

    awkward = make_instance([
        [0.1, -1.0, 1.0 / 3.0],
        [1e-17, 2.0 ** -1074, -0.9999999999999999],
    ])
    rng = np.random.default_rng(123)
    mats = [awkward.a] + [
        fixtures.random_instance(rng, int(rng.integers(1, 7)),
                                 int(rng.integers(1, 7))).a
        for _ in range(20)
    ]
    for k, a in enumerate(mats):
        back = from_json(to_json(make_instance(a))).a
        if a.tobytes() != back.tobytes():
            failures.append(f"matrix {k}: decimal round-trip not bit-exact")
    _verdict("determinism and serialization", failures)
