"""A small dense network with an exact Hessian-vector product.

The network has tanh hidden layers and a softmax cross-entropy loss on
integer class labels, the one network of the learning-rate sweep.  The
product is computed by the forward-over-reverse trick: a forward
pass carrying directional derivatives of every activation, then a
backward pass carrying directional derivatives of every delta.  No
autodiff framework involved; everything is plain numpy, which keeps the
arithmetic bit-reproducible across runs.

The passes run in place: a layer's matrix product is its only
allocation, and bias, tanh and softmax overwrite it.  The gradient pass
takes a stack of parameter vectors and writes every gradient into one
preallocated array, so SGD lanes on one batch share one pass; a single
gradient is a stack of one.

Parameters are flattened layer by layer as (W_1, b_1, W_2, b_2, ...),
with W_l of shape (fan_out, fan_in).  ``MLPOracle`` serves mini-batch
gradients and products on the seeded batches of
:class:`hessprec.solver.HessianOracle`.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def _slices(self):
        """Per layer: the flat W and b index ranges and the (fan_out, fan_in) shape."""
        out = []
        pos = 0
        for fan_in, fan_out in zip(self.sizes[:-1], self.sizes[1:]):
            w_end = pos + fan_out * fan_in
            out.append((slice(pos, w_end), slice(w_end, w_end + fan_out), (fan_out, fan_in)))
            pos = w_end + fan_out
        return tuple(out)

    def _layers(self, w):
        """(W, b) views per layer of a flat vector, or of each row of a stack of them."""
        lead = w.shape[:-1]
        return [(w[..., ws].reshape(lead + shape), w[..., bs]) for ws, bs, shape in self._slices]

    def unpack(self, w):
        w = np.asarray(w, dtype=float)
        if w.shape != (self.n_params,):
            raise ValueError(f"expected {self.n_params} parameters, got shape {w.shape}")
        return self._layers(w)

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
        """Activations, X first and the logits last; each layer allocates only its product.

        ``layers`` may hold stacks of parameters (leading lane axis), which
        broadcast against X: every lane gets the products it would alone.
        """
        A = [X]
        for idx, (W, b) in enumerate(layers):
            z = A[-1] @ W.swapaxes(-1, -2)
            z += b[..., None, :]
            if idx < self.n_layers - 1:
                np.tanh(z, out=z)
            A.append(z)
        return A

    def logits(self, w, X):
        return self._forward(self.unpack(w), np.atleast_2d(np.asarray(X, dtype=float)))[-1]

    @staticmethod
    def _softmax(z):
        """Row softmax of ``z``, in place."""
        z -= z.max(axis=-1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=-1, keepdims=True)
        return z

    def _data_loss(self, zL, targets):
        """Mean cross-entropy of logits ``zL`` (overwritten): the data term."""
        zL -= zL.max(axis=1, keepdims=True)
        picked = zL[np.arange(len(targets)), targets]
        np.exp(zL, out=zL)
        lse = zL.sum(axis=1)
        np.log(lse, out=lse)
        lse -= picked
        return float(np.mean(lse))

    def loss_value(self, w, X, targets):
        return self._data_loss(self.logits(w, X), targets) + 0.5 * self.reg * float(w @ w)

    def data_loss_and_accuracy(self, w, X, targets):
        """``(data term, accuracy)`` from one forward pass, with no penalty: the held-out pair."""
        zL = self.logits(w, X)
        acc = float(np.mean(zL.argmax(axis=1) == np.asarray(targets)))
        return self._data_loss(zL, targets), acc

    def gradient(self, w, X, targets):
        return self.gradients(np.asarray(w, dtype=float)[None], X, targets)[0]

    def gradients(self, W, X, targets):
        """Gradients at each row of the L x n_params stack ``W``, in one stacked pass.

        Each lane's products and sums are the ones its own pass would
        make, so a row does not depend on the others, non-finite ones
        included.  The gradients are written into one L x n_params array.
        """
        W = np.asarray(W, dtype=float)
        if W.ndim != 2 or W.shape[1] != self.n_params:
            raise ValueError(f"expected a stack of {self.n_params}-parameter rows, "
                             f"got shape {W.shape}")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        n = X.shape[0]
        layers = self._layers(W)
        A = self._forward(layers, X)
        delta = self._softmax(A[-1])
        delta[..., np.arange(n), targets] -= 1.0
        G = np.empty_like(W)
        for l, (gW, gb) in reversed(list(enumerate(self._layers(G)))):
            np.matmul(delta.swapaxes(-1, -2), A[l], out=gW)
            gW /= n
            np.sum(delta, axis=-2, out=gb)
            gb /= n
            if l > 0:
                a = A[l]  # spent: overwritten with 1 - a^2
                np.multiply(a, a, out=a)
                np.subtract(1.0, a, out=a)
                delta = delta @ layers[l][0]
                delta *= a
        G += self.reg * W
        return G

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
        A = self._forward(layers, X)

        # forward directional pass; act_d[l] = 1 - A[l]^2 for the hidden layers
        RA = [np.zeros_like(X)]
        act_d = [None] * self.n_layers
        for idx, ((W, b), (V, c)) in enumerate(zip(layers, dirs)):
            rz = RA[-1] @ W.T
            rz += A[idx] @ V.T
            rz += c
            if idx < self.n_layers - 1:
                d = A[idx + 1] * A[idx + 1]
                act_d[idx + 1] = np.subtract(1.0, d, out=d)
                np.multiply(d, rz, out=rz)
            RA.append(rz)

        P = self._softmax(A[-1])
        delta = P.copy()
        delta[np.arange(n), targets] -= 1.0
        rdelta = np.multiply(P, RA[-1], out=RA[-1])
        P *= rdelta.sum(axis=1, keepdims=True)
        rdelta -= P

        out = np.empty_like(w)
        for l, (gV, gc) in reversed(list(enumerate(self._layers(out)))):
            W, V = layers[l][0], dirs[l][0]
            np.matmul(rdelta.T, A[l], out=gV)
            gV += delta.T @ RA[l]
            gV /= n
            np.sum(rdelta, axis=0, out=gc)
            gc /= n
            if l > 0:
                back = delta @ W
                rback = rdelta @ W
                rback += delta @ V
                ract_d = np.multiply(-2.0, A[l], out=A[l])
                ract_d *= RA[l]
                rback *= act_d[l]
                np.multiply(back, ract_d, out=ract_d)
                rback += ract_d
                rdelta = rback
                back *= act_d[l]
                delta = back
        out += self.reg * v
        return out


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
        return self.gradients([w], batch)[0]

    def gradients(self, ws, batch):
        # one gather and one stacked pass; the rows of the result are the gradients
        return self.net.gradients(np.stack(ws), self.X[batch], self.targets[batch])

    def hvp(self, w, s, batch):
        return self.net.hvp(w, s, self.X[batch], self.targets[batch])
