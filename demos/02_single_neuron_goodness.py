"""One computational neuron learning to tell positive from negative inputs.

The positive and negative batches share the same features and differ only in
the appended label block. The neuron's goodness (sum of squared outputs,
squashed against theta * width) starts far below threshold for both streams;
training pushes the positive goodness above it and holds the negative one
below.
"""

import numpy as np

from cyclicff.neuron import ff_loss_and_grad, goodness, init_neuron, neuron_forward
from cyclicff.numerics import AdamState, adam_step, make_rng

rng = make_rng(0, "weights")
neuron = init_neuron(d_in=10, d_out=16, theta=1.0, rng=rng)
adam = AdamState(lr=1e-2)

feats = rng.standard_normal((32, 8))
pos = np.hstack([feats, np.tile([1.0, 0.0], (32, 1))])
neg = np.hstack([feats, np.tile([0.0, 1.0], (32, 1))])

print("step   loss    p(pos)  p(neg)")
for step in range(501):
    loss, grad = ff_loss_and_grad(neuron, pos, neg)
    if step % 50 == 0:
        p_pos = goodness(neuron_forward(neuron, pos), neuron.theta).mean()
        p_neg = goodness(neuron_forward(neuron, neg), neuron.theta).mean()
        print(f"{step:4d}  {loss:7.3f}  {p_pos:.3f}  {p_neg:.3f}")
    adam_step(neuron.W, grad, adam)
