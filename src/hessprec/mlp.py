"""A small dense network with an exact Hessian-vector product.

The network has tanh hidden layers and a softmax cross-entropy loss on
integer class labels, the one network of the learning-rate sweep.  The
product is computed by the forward-over-reverse trick: a forward
pass carrying directional derivatives of every activation, then a
backward pass carrying directional derivatives of every delta.  No
autodiff framework involved; everything is plain numpy, which keeps the
arithmetic bit-reproducible across runs.

Parameters are flattened layer by layer as (W_1, b_1, W_2, b_2, ...),
with W_l of shape (fan_out, fan_in).  ``MLPOracle`` serves mini-batch
gradients and products on the seeded batches of
:class:`hessprec.solver.HessianOracle`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .solver import HessianOracle


@dataclass(frozen=True)
class ToyNet:
    """Layer sizes and an L2 penalty applied to every parameter."""

    sizes: tuple
    reg: float = 0.0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.sizes)
        if len(sizes) < 2 or any(s < 1 for s in sizes):
            raise ValueError(f"need at least input and output sizes, got {sizes}")
        if not (np.isfinite(self.reg) and self.reg >= 0):
            raise ValueError(f"reg must be non-negative, got {self.reg!r}")
        object.__setattr__(self, "sizes", sizes)

    @property
    def n_layers(self) -> int:
        return len(self.sizes) - 1

    @property
    def n_params(self) -> int:
        return sum((i + 1) * o for i, o in zip(self.sizes[:-1], self.sizes[1:]))

    def layer_slices(self):
        """Flat-vector index ranges, one (W_slice, b_slice) pair per layer."""
        out = []
        pos = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            w_end = pos + fan_out * fan_in
            out.append((slice(pos, w_end), slice(w_end, w_end + fan_out)))
            pos = w_end + fan_out
        return out

    def unpack(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {w.shape}")
        layers = []
        for (ws, bs), (fan_in, fan_out) in zip(self.layer_slices(),
                                               zip(self.sizes[:-1], self.sizes[1:])):
            layers.append((w[ws].reshape(fan_out, fan_in), w[bs]))
        return layers

    def pack(self, layers):
        return np.concatenate([np.concatenate([W.ravel(), b]) for W, b in layers])

    def init_params(self, seed):
        rng = np.random.default_rng(seed)
        layers = []
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            W = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
            layers.append((W, np.zeros(fan_out)))
        return self.pack(layers)

    def _forward(self, layers, X):
        """Return (pre-activations, activations); activations[0] is X."""
        A = [X]
        Z = []
        for idx, (W, b) in enumerate(layers):
            z = A[-1] @ W.T + b
            Z.append(z)
            A.append(np.tanh(z) if idx < len(layers) - 1 else z)
        return Z, A

    def logits(self, w, X):
        _, A = self._forward(self.unpack(w), np.atleast_2d(np.asarray(X, dtype=float)))
        return A[-1]

    def _out_delta(self, zL, targets):
        """Per-sample output delta (not averaged) and the softmax probabilities."""
        z = zL - zL.max(axis=1, keepdims=True)
        e = np.exp(z)
        P = e / e.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(P)
        onehot[np.arange(len(targets)), targets] = 1.0
        return P - onehot, P

    def loss_value(self, w, X, targets):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        layers = self.unpack(w)
        _, A = self._forward(layers, X)
        zL = A[-1]
        z = zL - zL.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        data = float(np.mean(lse - z[np.arange(len(targets)), targets]))
        return data + 0.5 * self.reg * float(w @ w)

    def gradient(self, w, X, targets):
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        layers = self.unpack(w)
        Z, A = self._forward(layers, X)
        delta, _ = self._out_delta(Z[-1], targets)
        grads = [None] * self.n_layers
        for l in range(self.n_layers - 1, -1, -1):
            W, b = layers[l]
            grads[l] = (delta.T @ A[l] / n + self.reg * W,
                        delta.mean(axis=0) + self.reg * b)
            if l > 0:
                delta = (delta @ W) * (1.0 - A[l] * A[l])
        return self.pack(grads)

    def hvp(self, w, v, X, targets):
        """Exact Hessian product with direction ``v`` on the given batch."""
        w = np.asarray(w, dtype=float)
        v = np.asarray(v, dtype=float)
        if v.shape != w.shape:
            raise ValueError(f"direction shape {v.shape} does not match parameters {w.shape}")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        layers = self.unpack(w)
        dirs = self.unpack(v)
        Z, A = self._forward(layers, X)

        # forward directional pass
        RA = [np.zeros_like(X)]
        RZ = []
        for idx, ((W, b), (V, c)) in enumerate(zip(layers, dirs)):
            rz = RA[-1] @ W.T + A[idx] @ V.T + c
            RZ.append(rz)
            RA.append((1.0 - A[idx + 1] * A[idx + 1]) * rz if idx < self.n_layers - 1 else rz)

        delta, P = self._out_delta(Z[-1], targets)
        prz = P * RZ[-1]
        rdelta = prz - P * prz.sum(axis=1, keepdims=True)

        out = [None] * self.n_layers
        for l in range(self.n_layers - 1, -1, -1):
            W, b = layers[l]
            V, c = dirs[l]
            out[l] = ((rdelta.T @ A[l] + delta.T @ RA[l]) / n + self.reg * V,
                      rdelta.mean(axis=0) + self.reg * c)
            if l > 0:
                back = delta @ W
                rback = rdelta @ W + delta @ V
                act_d = 1.0 - A[l] * A[l]
                ract_d = -2.0 * A[l] * RA[l]
                rdelta = rback * act_d + back * ract_d
                delta = back * act_d
        return self.pack(out)

    def accuracy(self, w, X, targets):
        pred = self.logits(w, X).argmax(axis=1)
        return float(np.mean(pred == np.asarray(targets)))


class MLPOracle(HessianOracle):
    """Mini-batch oracle over a :class:`ToyNet` and a fixed dataset."""

    def __init__(self, net: ToyNet, X, targets, batch_size: int, seed: int):
        X = np.asarray(X, dtype=float)
        targets = np.asarray(targets)
        if X.shape[0] != targets.shape[0]:
            raise ValueError("X and targets disagree on sample count")
        super().__init__(batch_size, X.shape[0], seed)
        self.net = net
        self.X = X
        self.targets = targets

    @property
    def dim(self) -> int:
        return self.net.n_params

    def gradient(self, w, batch):
        return self.net.gradient(w, self.X[batch], self.targets[batch])

    def hvp(self, w, s, batch):
        return self.net.hvp(w, s, self.X[batch], self.targets[batch])
