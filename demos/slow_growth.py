#!/usr/bin/env python3
"""Fields that grow barely fast enough to blow up: b ~ x log(x)^(1+c).

These sit outside the standard integrability condition, so the step law
changes: in 1D the standard adaptive law still works but its cost degrades;
in R^n the solver switches to h = sqrt(eps/(N ||b'||)) with the step count N
resolved by an outer fixed-point loop. The threshold radius is doubly
exponential in 1/eps and leaves float64 range quickly; runs past that point
integrate to a capped radius and say so.
"""
import math

import blowup as bl

print("== 1D: b = x log(x)^2 (c = 1), tau = 1/log(2) ==")
entry = bl.catalog.get("xlog_c", c=1.0)
exact = entry.reference.value
for k in (4, 6, 8):
    eps = 2.0**-k
    res = bl.solve_1d(entry.problem, eps)
    print(f"eps=2^-{k}: r={res.radius_used:.2e} tau={res.tau_hat:.6f} "
          f"err={abs(res.tau_hat - exact):.2e} N={res.steps}")

print("\n== 1D: c = 1/2 needs r = exp((eps/2)^-2); capped beyond ~eps = 0.075 ==")
entry = bl.catalog.get("xlog_c", c=0.5)
res = bl.solve_1d(entry.problem, 2.0**-6)
print(f"eps=2^-6: tau={res.tau_hat:.6f} (exact {entry.reference.value:.6f})")
for w in res.warnings:
    print(f"  warning: {w}")

print("\n== planar slow growth (c = 1/2), implicit-N adaptive law ==")
prob = bl.catalog.get("slowlog_c", c=0.5).problem
print(f"fitted growth constant c_check = {prob.growth.c_check}")
ref = bl.solve_log_nd(prob, 2.0**-10)
print(f"pseudo reference at 2^-10: tau = {ref.tau_hat:.8f} (N = {ref.steps})")
for k in (3, 4, 5, 6):
    eps = 2.0**-k
    res = bl.solve_log_nd(prob, eps)
    print(
        f"eps=2^-{k}: tau={res.tau_hat:.6f} err={abs(res.tau_hat - ref.tau_hat):.2e} "
        f"N={res.steps} (guess {res.meta['n_guess']}, "
        f"{res.meta['outer_iterations']} outer rounds)"
    )
print("\nthe accepted guess always lands in [N, 4N] - the outer loop's contract.")
