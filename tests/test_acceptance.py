"""Acceptance suite: ten end-to-end checks, one per criterion.

Each test prints a single ``[criterion NN] name: PASS/FAIL`` line (visible
under ``pytest -v -s`` or in captured output) and then asserts, so the
suite doubles as a human-readable scorecard.  The experiment criteria
(07, 09) run the full seeded repetitions and are the slowest part; the
whole file stays well inside the stated runtime budgets on a laptop.
"""
import importlib.util
import pathlib
import time

import numpy as np

from hessprec.cli import main as cli_main
from hessprec.data import gen_blobs, gen_classification
from hessprec.harness import (
    QuadraticBundle,
    SolverSettings,
    compare,
    construct_preconditioner,
)
from hessprec.inference import (
    MatrixPrior,
    NoiseModel,
    ObservationSet,
    infer_noise_free,
    infer_noisy,
)
from hessprec.linalg import generalized_sym_eig
from hessprec.mlp import MLPOracle, ToyNet
from hessprec.precond import SpectralApprox, apply_p_squared, build
from hessprec.problems import (
    LogisticProblem,
    QuadraticProblem,
    batch_oracle,
    logistic_oracle,
)
from hessprec.solver import SolverConfig, estimate_parameters, run_inference


def _report(num, name, ok, detail=""):
    from conftest import record_score

    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:02d}] {name}: {status}" + (f"  ({detail})" if detail else "")
    print(line)
    record_score(line)
    assert ok, f"criterion {num} failed: {detail}"


def _spd(rng, n, spread=10.0):
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.exp(rng.uniform(0.0, np.log(spread), size=n))
    return (Q * lam) @ Q.T


def _dense_posterior_mean(b0, w0, lam0, S, Y):
    """Brute-force reference: the linear-Gaussian update on the flattened
    n^2-dimensional matrix with explicit Kronecker blocks."""
    n, m = S.shape
    H = np.kron(np.eye(n), S.T)
    P = w0 ** 2 * np.eye(n * n)
    Ne = np.kron(np.eye(n), np.diag(lam0 ** 2 * np.sum(S * S, axis=0)))
    m0 = b0 * np.eye(n).ravel()
    innov = Y.ravel() - H @ m0
    vec = m0 + P @ H.T @ np.linalg.solve(H @ P @ H.T + Ne, innov)
    return vec.reshape(n, n)


def _full_batch_oracle(seed, n=6, n_samples=48, alpha_reg=1e-2):
    """Quadratic oracle whose every draw is the whole dataset: exact products."""
    rng = np.random.default_rng(seed)
    Phi = rng.standard_normal((n, n_samples))
    problem = QuadraticProblem(Phi=Phi, y=rng.standard_normal(n_samples),
                               alpha_reg=alpha_reg)
    return problem, batch_oracle(problem, n_samples, seed=seed)


def test_criterion_01_factored_update_matches_dense_solve():
    rng = np.random.default_rng(11)
    t0 = time.perf_counter()
    worst = 0.0
    for i in range(50):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(1, min(n, 4) + 1))
        lam0 = (0.01, 0.1, 1.0)[i % 3]
        B = _spd(rng, n)
        S = rng.standard_normal((n, m))
        Y = B @ S + lam0 * rng.standard_normal((n, m))
        b0 = float(rng.uniform(0.5, 2.0))
        w0 = float(rng.uniform(0.5, 2.0))
        post = infer_noisy(MatrixPrior(b0=b0, w0=w0, n=n), NoiseModel(lam0=lam0),
                           ObservationSet.from_probes(S, Y, lam0))
        ref = _dense_posterior_mean(b0, w0, lam0, S, Y)
        worst = max(worst, np.linalg.norm(post.dense() - ref) / np.linalg.norm(ref))
    elapsed = time.perf_counter() - t0
    _report(1, "factored update matches dense solve",
            worst <= 1e-8 and elapsed < 10.0,
            f"worst rel err {worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_noise_free_interpolation_and_recovery():
    rng = np.random.default_rng(22)
    worst_interp = 0.0
    for _ in range(20):
        n, m = 8, 3
        B = _spd(rng, n)
        S = rng.standard_normal((n, m))
        Y = B @ S
        post = infer_noise_free(MatrixPrior(b0=1.3, w0=0.8, n=n),
                                ObservationSet.from_probes(S, Y, 0.0))
        worst_interp = max(worst_interp,
                           np.linalg.norm(post.dense() @ S - Y) / np.linalg.norm(Y))

    problem, oracle = _full_batch_oracle(seed=5, n=6)
    est = estimate_parameters(oracle, np.zeros(6), init_samples=2)
    post = run_inference(oracle, np.zeros(6), est,
                         SolverConfig(iterations=6, init_samples=2))
    H = problem.hessian()
    worst_apply = 0.0
    for _ in range(10):
        v = rng.standard_normal(6)
        worst_apply = max(worst_apply,
                          np.linalg.norm(post.apply(v) - H @ v) / np.linalg.norm(H @ v))
    _report(2, "noise-free interpolation and full-rank recovery",
            worst_interp <= 1e-10 and worst_apply <= 1e-6,
            f"interp {worst_interp:.2e}, apply {worst_apply:.2e}")


def test_criterion_03_generalized_eigen_residuals():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 17))
        G = _spd(rng, m, spread=50.0)
        R = _spd(rng, m, spread=50.0)
        res = generalized_sym_eig(G, R)
        V, t = res.vectors, res.values
        resid = np.linalg.norm(G @ V - R @ V @ np.diag(t)) / np.linalg.norm(G)
        ortho = np.linalg.norm(V.T @ R @ V - np.eye(m))
        worst = max(worst, resid, ortho)
    _report(3, "generalized eigen residuals", worst <= 1e-10, f"worst {worst:.2e}")


def test_criterion_04_exact_probes_span_krylov_space():
    problem, oracle = _full_batch_oracle(seed=7, n=6)
    est = estimate_parameters(oracle, np.zeros(6), init_samples=2)
    assert est.lam0 < 1e-12  # full-batch products carry no sampling noise
    post = run_inference(oracle, np.zeros(6), est,
                         SolverConfig(iterations=3, init_samples=2))
    S = post.C / est.w0
    H = problem.hessian()
    krylov = np.column_stack([np.linalg.matrix_power(H, j) @ est.mean_grad
                              for j in range(3)])
    Qs, _ = np.linalg.qr(S)
    Qk, _ = np.linalg.qr(krylov)
    # sin of the largest principal angle between the two 3-dim spans
    sines = np.linalg.svd(Qk - Qs @ (Qs.T @ Qk), compute_uv=False)
    _report(4, "exact probes span the Krylov space",
            sines.max() <= 1e-6, f"max principal angle {sines.max():.2e}")


def test_criterion_05_conditioning_collapse_with_exact_pairs():
    rng = np.random.default_rng(55)
    n, k = 32, 4
    B = _spd(rng, n, spread=500.0)
    lam, V = np.linalg.eigh(B)
    lam, V = lam[::-1], V[:, ::-1]
    precond, _ = build(SpectralApprox(U=V[:, :k], sigma=lam[:k]), beta=1.0)
    M = np.column_stack([apply_p_squared(precond, B[:, j]) for j in range(n)])
    got = np.sort(np.linalg.eigvals(M / precond.alpha ** 2).real)
    want = np.sort(np.concatenate([np.ones(k), lam[k:]]))
    err = np.max(np.abs(got - want) / np.maximum(want, 1.0))
    _report(5, "top-k directions flattened to unit curvature",
            err <= 1e-8, f"worst spectrum err {err:.2e}")


def test_criterion_06_hvp_matches_central_differences():
    rng = np.random.default_rng(66)
    worst = 0.0

    def fd_check(grad, hvp, w, dim):
        nonlocal worst
        s = rng.standard_normal(dim)
        s /= np.linalg.norm(s)
        eps = 1e-4
        fd = (grad(w + eps * s) - grad(w - eps * s)) / (2 * eps)
        hv = hvp(w, s)
        worst = max(worst, np.linalg.norm(hv - fd) / np.linalg.norm(hv))

    Phi = rng.standard_normal((10, 300))
    quad = QuadraticProblem(Phi=Phi, y=rng.standard_normal(300), alpha_reg=1e-3)
    qo = batch_oracle(quad, 64, seed=1)
    qb = qo.draw_batch()
    fd_check(lambda w: qo.gradient(w, qb), lambda w, s: qo.hvp(w, s, qb),
             rng.standard_normal(10), 10)

    X, labels = gen_classification(seed=2, n_samples=400, input_dim=12, separation=2.0)
    lo = logistic_oracle(LogisticProblem(X=X, labels=labels, reg=1e-2), 64, seed=2)
    lb = lo.draw_batch()
    fd_check(lambda w: lo.gradient(w, lb), lambda w, s: lo.hvp(w, s, lb),
             0.1 * rng.standard_normal(12), 12)

    Xb, yb = gen_blobs(seed=3, n_samples=400, input_dim=8, n_classes=4)
    net = ToyNet(sizes=(8, 10, 4), reg=1e-3)
    mo = MLPOracle(net, Xb, yb, 64, seed=3)
    mb = mo.draw_batch()
    fd_check(lambda w: mo.gradient(w, mb), lambda w, s: mo.hvp(w, s, mb),
             0.3 * rng.standard_normal(net.n_params), net.n_params)

    _report(6, "oracle products match central differences",
            worst <= 1e-5, f"worst rel err {worst:.2e}")


# --- the ill-conditioned regression comparison (criterion 7) ---------------

def _load_script(name):
    """The experiment script ``scripts/<name>.py`` as a module."""
    path = pathlib.Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"acceptance_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# criteria 07-09 run the paper's two experiments exactly as the scripts define them
REGRESSION = _load_script("run_regression_comparison")
MLP_SWEEP = _load_script("run_mlp_lr_sweep")


def _run_regression_comparison(seed):
    """One seeded repetition of the four-way optimizer comparison.

    The problem is built once: its Hessian gives the condition number, its
    exact solution the target, and the comparison runs on it.  Returns a
    dict with the condition number and the per-optimizer read counts and
    final losses needed by the acceptance clauses.
    """
    pc = REGRESSION.problem_config(seed)
    bundle = QuadraticBundle(pc)
    lam = np.linalg.eigvalsh(bundle.problem.hessian())
    star, target = REGRESSION.target(bundle)
    runs = REGRESSION.build_runs(pc, seed, target)
    with np.errstate(over="ignore", invalid="ignore"):
        comp = compare(runs, bundle)
    by_label = {}
    for label, rec in comp.labeled_records:
        by_label.setdefault(label, []).append(rec)
    out = {"kappa": lam[-1] / lam[0], "star": star, "target": target}
    sgd_benchmarks = []
    for s in comp.summaries:
        if s.label.startswith("sgd["):
            if s.data_read_to_target is not None:
                sgd_benchmarks.append(s.data_read_to_target)
            elif not s.diverged:
                sgd_benchmarks.append(s.data_read)
        elif s.label == "precond_sgd":
            out["pre_to_target"] = s.data_read_to_target
            out["pre_diverged"] = s.diverged
        elif s.label == "avg_inv":
            out["avg_final"] = s.final_train_loss
            out["avg_read"] = s.data_read
        elif s.label == "cg":
            out["cg_diverged"] = s.diverged
            out["cg_steps"] = len(by_label["cg"]) - 1
    out["best_sgd_reads"] = min(sgd_benchmarks)
    pre_at = [r.train_loss for r in by_label["precond_sgd"]
              if r.data_read <= out["avg_read"]]
    out["pre_loss_at_avg_read"] = pre_at[-1]
    return out


def test_criterion_07_regression_comparison_orderings():
    t0 = time.perf_counter()
    checks = []
    kappa_ok = True
    for seed in range(5):
        r = _run_regression_comparison(seed)
        kappa_ok = kappa_ok and r["kappa"] >= 1e4
        reached = r["pre_to_target"] is not None and not r["pre_diverged"]
        half = reached and r["pre_to_target"] <= r["best_sgd_reads"] / 2
        avg_worse = r["avg_final"] > r["pre_loss_at_avg_read"]
        cg = r["cg_diverged"] and r["cg_steps"] <= 20
        checks.append((reached, half, avg_worse, cg))
    elapsed = time.perf_counter() - t0
    ok = kappa_ok and elapsed < 300.0 and all(all(c) for c in checks)
    _report(7, "ill-conditioned regression orderings", ok,
            f"per-seed (reached, half-reads, avg-inv worse, cg flagged) = "
            f"{checks}, kappa ok {kappa_ok}, {elapsed:.0f}s")


def test_criterion_08_construction_cost_accounting():
    pc = REGRESSION.problem_config(0)
    bundle = QuadraticBundle(pc)
    ok, detail = True, []
    for init_samples in (5, 8):
        oracle = bundle.make_oracle(256, seed=0)
        construct_preconditioner(oracle, bundle.init_w(0),
                                 SolverSettings(iterations=16,
                                                init_samples=init_samples, rank=16),
                                 base_lr=1e-4)
        want = 4096 + init_samples * 256
        ok = ok and oracle.data_read == want
        detail.append(f"init={init_samples}: read {oracle.data_read} want {want}")
    _report(8, "construction cost accounting", ok, "; ".join(detail))


# --- scalar-mode step-length robustness on the little network (criterion 9) -

def _run_mlp_lr_sweep(seed):
    runs = MLP_SWEEP.build_runs(seed, MLP_SWEEP.GRID, MLP_SWEEP.EPOCHS)
    with np.errstate(over="ignore", invalid="ignore"):
        comp = compare(runs)
    sgd = [s.final_train_loss for s in comp.summaries if s.label.startswith("sgd")]
    sc = [s.final_train_loss for s in comp.summaries
          if s.label.startswith("precond_sgd")]
    return max(sgd) / min(sgd), max(sc) / min(sc)


def test_criterion_09_scalar_mode_step_length_robustness():
    t0 = time.perf_counter()
    assert ToyNet(sizes=(20, 32, 16, 10)).n_params <= 10_000
    spreads = [_run_mlp_lr_sweep(seed) for seed in range(3)]
    elapsed = time.perf_counter() - t0
    ok = (elapsed < 600.0
          and all(sc <= 1.2 for _, sc in spreads)
          and all(sgd > 2.0 for sgd, _ in spreads))
    _report(9, "scalar mode flattens the learning-rate grid", ok,
            f"(sgd spread, scalar spread) per seed = "
            f"{[(f'{a:.2f}', f'{b:.2f}') for a, b in spreads]}, {elapsed:.0f}s")


def test_criterion_10_byte_identical_reruns(tmp_path, capsys):
    args = ["run",
            "--set", "problem.n_samples=400",
            "--set", "problem.input_dim=4",
            "--set", "problem.n_features=12",
            "--set", "solver.iterations=6",
            "--set", "solver.init_samples=3",
            "--set", "solver.rank=6",
            "--batch-size", "64",
            "--optimizer", "precond_sgd", "--lr", "1e-5", "--steps", "25"]
    outs = []
    for name in ("a.csv", "b.csv"):
        path = tmp_path / name
        rc = cli_main(args + ["--out", str(path)])
        assert rc == 0
        outs.append(path.read_bytes())
    capsys.readouterr()
    _report(10, "repeated runs are byte-identical", outs[0] == outs[1],
            f"{len(outs[0])} bytes each")
