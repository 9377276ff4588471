"""Walk through the transducer loss on a lattice small enough to enumerate.

Shows the forward/backward variables, checks the dynamic program against
brute-force path enumeration, and verifies the analytic gradient with
central finite differences.
"""

import numpy as np

from rnnt_lab import (Tape, Tensor, grad_check, logsumexp, rnnt_brute_force,
                      rnnt_lattice, rnnt_loss)

rng = np.random.default_rng(0)
T, U, K = 4, 2, 3  # frames, target tokens, vocab (blank = class K)
targets = [0, 2]
logits = Tensor(rng.normal(size=(T, U + 1, K + 1)))

out = rnnt_loss(logits, targets, blank=K)
brute = rnnt_brute_force(logits, targets, blank=K)
print(f"dynamic program : {out.value:.12f}")
print(f"path enumeration: {brute:.12f}")
print(f"difference      : {abs(out.value - brute):.2e}\n")

lat = rnnt_lattice(logits, targets, blank=K)
print("alpha (log forward mass):")
print(np.round(lat.alpha, 3))
print("beta (log backward mass):")
print(np.round(lat.beta, 3))

print("\nEvery complete path crosses each anti-diagonal t+u=n exactly once,")
print("so the diagonal log-sum of alpha+beta is the total log-likelihood:")
cells = lat.alpha + lat.beta
for n in range(T + U):
    diag = [cells[t, n - t] for t in range(T) if 0 <= n - t <= U]
    print(f"  n={n}: {logsumexp(diag):+.9f}  (target {lat.log_likelihood():+.9f})")

def f():
    with Tape() as tape:
        o = rnnt_loss(logits, targets, blank=K)
        tape.backward(o.node)
    return o.value

print(f"\nmax relative gradient error vs finite differences: "
      f"{grad_check(f, [logits], eps=1e-5):.2e}")
