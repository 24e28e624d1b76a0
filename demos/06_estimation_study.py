"""
Estimating a Pickands function from data, three ways, plus a small Monte
Carlo mean-squared-error comparison.

* full  — maximum likelihood over all polynomial Pickands functions,
* sub   — maximum likelihood over the Bernstein-approximation polytope,
* cfg   — rank-based CFG estimator, endpoint-corrected, clamped to [V, 1]
          and convexified by its greatest convex minorant.

All three return genuine Pickands functions on every dataset.
"""
import numpy as np

from pickpoly import (
    OptimConfig,
    StudyConfig,
    SymmetricMixed,
    fit_cfg,
    fit_full,
    fit_sub,
    model_pickands,
    run_study,
    sample_copula,
)

model = SymmetricMixed(0.9)
truth = model_pickands(model)
data = sample_copula(model, n=500, seed=20260810)
print(f"drew n = {data.n} pairs from the symmetric mixed model (psi = 0.9)")

tg = np.linspace(0.0, 1.0, 101)
config = OptimConfig(starts=10, seed=1, maxfev=400)
fits = {
    "full": fit_full(data, 5, config),
    "sub": fit_sub(data, 5, config),
    "cfg": fit_cfg(data),
}
print()
print(f"  {'estimator':>9} {'loglik':>10} {'sup |A_hat - A|':>16}")
for name, fit in fits.items():
    sup = np.max(np.abs(fit.estimate.value(tg) - truth.value(tg)))
    ll = "---" if np.isnan(fit.loglik) else f"{fit.loglik:.2f}"
    print(f"  {name:>9} {ll:>10} {sup:>16.4f}")

print()
print("small Monte Carlo study (n = 100, 40 replicates, m = 5) ...")
study = run_study(
    StudyConfig(
        model=model,
        n=100,
        replicates=40,
        m=5,
        estimators=("full", "sub", "cfg"),
        seed=7,
        grid=21,
        optim=OptimConfig(starts=6, maxfev=250),  # optimizer seeds come from seed
    ),
    threads=1,
)
print(f"finished in {study.runtime_seconds:.1f} s; grid-mean results:")
print(f"  {'estimator':>9} {'mse':>10} {'variance':>10} {'bias^2':>10}")
for est in ("full", "sub", "cfg"):
    print(
        f"  {est:>9} {np.mean(study.mse[est]):>10.2e}"
        f" {np.mean(study.variance[est]):>10.2e}"
        f" {np.mean(study.bias_sq[est]):>10.2e}"
    )
print()
print("per-abscissa curves live in study.mse / study.variance / study.bias_sq;")
print("the CLI `pickpoly study` writes them as CSV for plotting.")
