#!/usr/bin/env python3
"""A tour of the differentiation engine, from one multiply to a conv net.

Everything the trainer does reduces to the pattern shown here: build float32
numpy arrays into a graph of Tensor nodes, call backward() on a scalar loss,
and read .grad off the leaves. There is no tape object and no session; the
graph is whatever the Python expressions built, and each node carries the
closure that knows how to push gradients to its parents.
"""

import numpy as np

from bwrf import tensor as T
from bwrf.tensor import Tensor


def main():
    print("== one node ==")
    a = Tensor([2.0, -3.0], requires_grad=True)
    b = Tensor([4.0, 0.5], requires_grad=True)
    loss = T.mul(a, b).sum()
    loss.backward()
    print(f"loss = sum(a*b) = {loss.item():.1f}")
    print(f"d/da = b = {a.grad}")  # each factor's gradient is the other factor
    print(f"d/db = a = {b.grad}")

    print("\n== a consumer used twice accumulates ==")
    x = Tensor([1.5], requires_grad=True)
    y = T.add(T.mul(x, x), x)  # x^2 + x
    y.sum().backward()
    print(f"d/dx (x^2 + x) at 1.5 = {x.grad[0]:.1f}  (expect 2*1.5 + 1 = 4.0)")

    print("\n== detach stops gradient, values keep flowing ==")
    x = Tensor([3.0], requires_grad=True)
    frozen = T.mul(x, x).detach()
    T.mul(frozen, x).sum().backward()
    print(f"d/dx (stop(x^2) * x) = {x.grad[0]:.1f}  (expect x^2 = 9.0, not 3x^2)")

    print("\n== a real layer stack, checked against finite differences ==")
    rng = np.random.default_rng(0)
    image = Tensor(rng.standard_normal((1, 2, 6, 6)).astype(np.float32))
    weight = Tensor(rng.standard_normal((3, 2, 3, 3)).astype(np.float32) * 0.4,
                    requires_grad=True)
    head = Tensor(rng.standard_normal((5, 3)).astype(np.float32) * 0.4,
                  requires_grad=True)
    head_bias = Tensor(np.zeros(5, np.float32), requires_grad=True)
    labels = np.array([2])

    def forward():
        h = T.relu(T.conv2d(image, weight, stride=1, padding=1))
        return T.cross_entropy(T.linear(T.global_avg_pool(h), head, head_bias), labels)

    loss = forward()
    loss.backward()
    print(f"cross entropy = {loss.item():.4f}")

    # nudge the most influential weight both ways and compare the slope
    i = np.unravel_index(np.abs(weight.grad).argmax(), weight.grad.shape)
    analytic = weight.grad[i]
    h = 1e-3
    orig = weight.data[i]
    weight.data[i] = orig + h
    up = forward().item()
    weight.data[i] = orig - h
    down = forward().item()
    weight.data[i] = orig
    fd = (up - down) / (2 * h)
    idx = ",".join(str(int(j)) for j in i)
    print(f"dloss/dw[{idx}]: graph {analytic:+.6f}  finite difference {fd:+.6f}")
    assert abs(analytic - fd) / max(abs(fd), 1e-8) < 1e-2
    print("agreement within 1%; the test suite holds every op to 0.1%")


if __name__ == "__main__":
    main()
