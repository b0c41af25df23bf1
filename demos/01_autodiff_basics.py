"""Walk through the tensor core: primitives, the tape, backward and
gradient checking.

Run:  python3 demos/01_autodiff_basics.py
"""

import numpy as np

from crossgen import tensor as T
from crossgen.nn import AdamWState, Linear, ParameterSet, adamw_step

# Tensors are plain float64 arrays. Ops record onto a global tape whenever
# an input requires gradients.
x = T.Tensor([2.0, -1.0], requires_grad=True)
loss = T.tsum(T.mul(x, x))
T.backward(loss)
print("d/dx sum(x^2) at [2, -1]:", x.grad)           # -> [4, -2]

# grad_check compares the tape's gradients against central finite
# differences; every registered primitive stays below 1e-5 relative error.
rng = np.random.default_rng(2)
w = T.Tensor(rng.normal(size=(5, 3)))
err = T.grad_check(lambda t: T.tsum(T.silu(T.matmul(t, w))),
                   T.Tensor(rng.normal(size=(4, 5))))
print(f"grad-check relative error: {err:.2e}")

# A two-layer network trained with AdamW on a toy regression.
params = ParameterSet()
l1 = Linear(params, "l1", 3, 16, rng)
l2 = Linear(params, "l2", 16, 1, rng)
state = AdamWState()
inputs = rng.normal(size=(64, 3))
targets = (inputs[:, :1] * 0.5 - inputs[:, 1:2]) ** 2

for step in range(200):
    pred = l2(T.silu(l1(T.Tensor(inputs))))
    diff = T.sub(pred, T.Tensor(targets))
    loss = T.tmean(T.mul(diff, diff))
    params.zero_grad()
    T.backward(loss)
    adamw_step(params, state, lr=1e-2, weight_decay=1e-4)
    T.reset_tape()
    if step % 50 == 0:
        print(f"step {step:3d}  mse {loss.item():.4f}")
print(f"final mse {loss.item():.4f}")
