import numpy as np
import pytest

from hessprec.mlp import MLPOracle, ToyNet


def fd_gradient(f, w, eps=1e-6):
    g = np.zeros_like(w)
    for i in range(w.size):
        e = np.zeros_like(w)
        e[i] = eps
        g[i] = (f(w + e) - f(w - e)) / (2 * eps)
    return g


def fd_hvp(grad, w, s, eps=1e-6):
    return (grad(w + eps * s) - grad(w - eps * s)) / (2 * eps)


def dense_hessian(net, w, X, targets):
    n = w.size
    H = np.zeros((n, n))
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        H[:, i] = net.hvp(w, e, X, targets)
    return H


class ReferenceNet:
    """The allocating formulas the in-place kernels replaced, kept as their reference."""

    def __init__(self, net):
        self.net = net

    def _forward(self, layers, X):
        A = [X]
        Z = []
        for idx, (W, b) in enumerate(layers):
            z = A[-1] @ W.T + b
            Z.append(z)
            A.append(np.tanh(z) if idx < len(layers) - 1 else z)
        return Z, A

    def _out_delta(self, zL, targets):
        z = zL - zL.max(axis=1, keepdims=True)
        e = np.exp(z)
        P = e / e.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(P)
        onehot[np.arange(len(targets)), targets] = 1.0
        return P - onehot, P

    def logits(self, w, X):
        return self._forward(self.net.unpack(w), X)[1][-1]

    def data_loss(self, w, X, targets):
        zL = self.logits(w, X)
        z = zL - zL.max(axis=1, keepdims=True)
        lse = np.log(np.exp(z).sum(axis=1))
        return float(np.mean(lse - z[np.arange(len(targets)), targets]))

    def loss_value(self, w, X, targets):
        return self.data_loss(w, X, targets) + 0.5 * self.net.reg * float(w @ w)

    def accuracy(self, w, X, targets):
        return float(np.mean(self.logits(w, X).argmax(axis=1) == np.asarray(targets)))

    def gradient(self, w, X, targets):
        net, n = self.net, X.shape[0]
        layers = net.unpack(w)
        Z, A = self._forward(layers, X)
        delta, _ = self._out_delta(Z[-1], targets)
        grads = [None] * net.n_layers
        for l in range(net.n_layers - 1, -1, -1):
            W, b = layers[l]
            grads[l] = (delta.T @ A[l] / n + net.reg * W,
                        delta.mean(axis=0) + net.reg * b)
            if l > 0:
                delta = (delta @ W) * (1.0 - A[l] * A[l])
        return net.pack(grads)

    def hvp(self, w, v, X, targets):
        net, n = self.net, X.shape[0]
        layers = net.unpack(w)
        dirs = net.unpack(v)
        Z, A = self._forward(layers, X)
        RA = [np.zeros_like(X)]
        RZ = []
        for idx, ((W, b), (V, c)) in enumerate(zip(layers, dirs)):
            rz = RA[-1] @ W.T + A[idx] @ V.T + c
            RZ.append(rz)
            RA.append((1.0 - A[idx + 1] * A[idx + 1]) * rz if idx < net.n_layers - 1 else rz)
        delta, P = self._out_delta(Z[-1], targets)
        prz = P * RZ[-1]
        rdelta = prz - P * prz.sum(axis=1, keepdims=True)
        out = [None] * net.n_layers
        for l in range(net.n_layers - 1, -1, -1):
            W, b = layers[l]
            V, c = dirs[l]
            out[l] = ((rdelta.T @ A[l] + delta.T @ RA[l]) / n + net.reg * V,
                      rdelta.mean(axis=0) + net.reg * c)
            if l > 0:
                back = delta @ W
                rback = rdelta @ W + delta @ V
                act_d = 1.0 - A[l] * A[l]
                ract_d = -2.0 * A[l] * RA[l]
                rdelta = rback * act_d + back * ract_d
                delta = back * act_d
        return net.pack(out)


def tiny_net(reg=1e-3, sizes=(3, 4, 3)):
    return ToyNet(sizes=sizes, reg=reg)


def tiny_data(net, n=12, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, net.sizes[0]))
    targets = rng.integers(0, net.sizes[-1], size=n)
    return X, targets


class TestParams:
    def test_pack_unpack_round_trip(self):
        net = tiny_net()
        w = net.init_params(seed=3)
        assert w.shape == (net.n_params,)
        repacked = net.pack(net.unpack(w))
        np.testing.assert_array_equal(repacked, w)

    def test_param_count(self):
        net = tiny_net(sizes=(3, 4, 3))
        assert net.n_params == (3 * 4 + 4) + (4 * 3 + 3)

    def test_init_is_deterministic(self):
        net = tiny_net()
        np.testing.assert_array_equal(net.init_params(seed=7),
                                      net.init_params(seed=7))
        assert not np.array_equal(net.init_params(seed=7), net.init_params(seed=8))

    def test_slices_partition_params(self):
        net = tiny_net(sizes=(2, 5, 4, 3))
        covered = np.zeros(net.n_params, dtype=int)
        for sl_w, sl_b, shape in net._slices:
            covered[sl_w] += 1
            covered[sl_b] += 1
            assert sl_w.stop - sl_w.start == shape[0] * shape[1]
            assert sl_b.stop - sl_b.start == shape[0]
        assert np.all(covered == 1)


class TestGradient:
    def test_matches_fd_of_loss(self):
        net = tiny_net()
        X, targets = tiny_data(net)
        w = net.init_params(seed=1)
        g = net.gradients(w[None], X, targets)[0]
        fd = fd_gradient(lambda v: net.loss_value(v, X, targets), w)
        np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_cross_entropy_matches_manual_logsumexp(self):
        net = tiny_net(reg=0.0)
        X, targets = tiny_data(net)
        w = net.init_params(seed=2)
        Z = net.logits(w, X)
        m = Z.max(axis=1, keepdims=True)
        lse = m[:, 0] + np.log(np.exp(Z - m).sum(axis=1))
        manual = np.mean(lse - Z[np.arange(len(targets)), targets])
        assert net.loss_value(w, X, targets) == pytest.approx(manual, rel=1e-12)

    def test_loss_stable_for_huge_logits(self):
        net = tiny_net(reg=0.0)
        X, targets = tiny_data(net)
        w = net.init_params(seed=3) * 1e3
        assert np.isfinite(net.loss_value(w, X, targets))
        assert np.all(np.isfinite(net.gradients(w[None], X, targets)[0]))

    def test_regularizer_decomposition(self):
        bare = tiny_net(reg=0.0)
        reg = tiny_net(reg=0.7)
        X, targets = tiny_data(bare)
        w = bare.init_params(seed=4)
        np.testing.assert_allclose(
            reg.loss_value(w, X, targets),
            bare.loss_value(w, X, targets) + 0.35 * (w @ w), rtol=1e-12)
        np.testing.assert_allclose(
            reg.gradients(w[None], X, targets)[0],
            bare.gradients(w[None], X, targets)[0] + 0.7 * w, atol=1e-12)


class TestHvp:
    def test_matches_fd_of_gradient(self):
        net = tiny_net()
        X, targets = tiny_data(net)
        w = net.init_params(seed=5)
        rng = np.random.default_rng(6)
        for _ in range(3):
            s = rng.standard_normal(net.n_params)
            hv = net.hvp(w, s, X, targets)
            fd = fd_hvp(lambda v: net.gradients(v[None], X, targets)[0], w, s)
            np.testing.assert_allclose(hv, fd, rtol=1e-5, atol=1e-6)

    def test_linearity(self):
        net = tiny_net()
        X, targets = tiny_data(net)
        w = net.init_params(seed=7)
        rng = np.random.default_rng(8)
        a, b = rng.standard_normal(2)
        u = rng.standard_normal(net.n_params)
        v = rng.standard_normal(net.n_params)
        combo = net.hvp(w, a * u + b * v, X, targets)
        parts = a * net.hvp(w, u, X, targets) + b * net.hvp(w, v, X, targets)
        np.testing.assert_allclose(combo, parts, rtol=1e-10, atol=1e-12)

    def test_dense_assembly_is_symmetric(self):
        net = tiny_net()
        X, targets = tiny_data(net)
        w = net.init_params(seed=9)
        H = dense_hessian(net, w, X, targets)
        np.testing.assert_allclose(H, H.T, atol=1e-10)

    def test_regularizer_shift(self):
        bare = tiny_net(reg=0.0)
        reg = tiny_net(reg=0.7)
        X, targets = tiny_data(bare)
        w = bare.init_params(seed=10)
        s = np.random.default_rng(11).standard_normal(bare.n_params)
        np.testing.assert_allclose(reg.hvp(w, s, X, targets),
                                   bare.hvp(w, s, X, targets) + 0.7 * s,
                                   rtol=1e-10, atol=1e-12)

    def test_linear_single_layer_closed_form(self):
        # one linear layer under softmax cross-entropy is softmax regression:
        # the curvature is the mean over samples of (diag(p) - p p.T) kron xa xa.T
        net = ToyNet(sizes=(3, 2), reg=0.1)
        X, targets = tiny_data(net, n=20, seed=12)
        w = net.init_params(seed=13)
        n = len(X)
        Xa = np.hstack([X, np.ones((n, 1))])  # inputs with bias column
        Z = net.logits(w, X)
        P = np.exp(Z - Z.max(axis=1, keepdims=True))
        P /= P.sum(axis=1, keepdims=True)
        # grouped order (w_k, b_k) per output unit, then permute to the
        # packed layout (all weights row-major, then all biases)
        grouped = sum(np.kron(np.diag(p) - np.outer(p, p), np.outer(xa, xa))
                      for p, xa in zip(P, Xa)) / n
        d = 3
        perm = np.concatenate([
            np.concatenate([np.arange(k * (d + 1), k * (d + 1) + d)
                            for k in range(2)]),
            np.array([k * (d + 1) + d for k in range(2)]),
        ])
        expected = grouped[np.ix_(perm, perm)] + 0.1 * np.eye(net.n_params)
        H = dense_hessian(net, w, X, targets)
        np.testing.assert_allclose(H, expected, atol=1e-10)


class TestAccuracy:
    def test_matches_argmax(self):
        net = tiny_net()
        X, targets = tiny_data(net, n=30)
        w = net.init_params(seed=20)
        Z = net.logits(w, X)
        expected = np.mean(Z.argmax(axis=1) == targets)
        assert net.data_loss_and_accuracy(w, X, targets)[1] == pytest.approx(expected)


class TestMLPOracle:
    def make(self):
        net = tiny_net(sizes=(4, 6, 3))
        rng = np.random.default_rng(21)
        X = rng.standard_normal((50, 4))
        targets = rng.integers(0, 3, size=50)
        return net, X, targets

    def test_batch_consistency_with_net(self):
        net, X, targets = self.make()
        oracle = MLPOracle(net, X, targets, batch_size=10, seed=0)
        w = net.init_params(seed=22)
        batch = oracle.draw_batch()
        np.testing.assert_allclose(
            oracle.gradient(w, batch),
            net.gradients(w[None], X[batch], targets[batch])[0], atol=1e-12)
        s = np.random.default_rng(23).standard_normal(net.n_params)
        np.testing.assert_allclose(
            oracle.hvp(w, s, batch),
            net.hvp(w, s, X[batch], targets[batch]), atol=1e-12)

    def test_determinism_and_charging(self):
        net, X, targets = self.make()
        o1 = MLPOracle(net, X, targets, batch_size=10, seed=5)
        o2 = MLPOracle(net, X, targets, batch_size=10, seed=5)
        np.testing.assert_array_equal(o1.draw_batch(), o2.draw_batch())
        assert o1.data_read == 10
        o1.noisy_gradient(net.init_params(seed=24))
        assert o1.data_read == 20

    def test_dim_matches_net(self):
        net, X, targets = self.make()
        oracle = MLPOracle(net, X, targets, batch_size=10, seed=0)
        assert oracle.dim == net.n_params


class TestAgainstReference:
    """The in-place kernels give the reference formulas' results bit for bit."""

    @pytest.fixture(params=[(3, 4, 3), (20, 32, 16, 10), (5, 8, 8, 8, 4)], ids=str)
    def sizes(self, request):
        return request.param

    @pytest.mark.parametrize("reg", [0.0, 1e-3])
    @pytest.mark.parametrize("batch", [1, 37, 128])
    def test_kernels_equal_reference(self, sizes, batch, reg):
        net = ToyNet(sizes=sizes, reg=reg)
        ref = ReferenceNet(net)
        X, targets = tiny_data(net, n=batch, seed=30)
        rng = np.random.default_rng(31)
        w = net.init_params(seed=32) + 0.1 * rng.standard_normal(net.n_params)
        v = rng.standard_normal(net.n_params)
        inputs = (w, v, X, targets)
        before = [a.copy() for a in inputs]

        np.testing.assert_array_equal(net.logits(w, X), ref.logits(w, X))
        np.testing.assert_array_equal(net.gradients(w[None], X, targets)[0],
                                      ref.gradient(w, X, targets))
        np.testing.assert_array_equal(net.hvp(w, v, X, targets), ref.hvp(w, v, X, targets))
        data, acc = ref.data_loss(w, X, targets), ref.accuracy(w, X, targets)
        assert repr(net.loss_value(w, X, targets)) == repr(ref.loss_value(w, X, targets))
        assert repr(net.data_loss_and_accuracy(w, X, targets)) == repr((data, acc))
        ws = np.stack([w, v, w - v])
        for g, wi in zip(net.gradients(ws, X, targets), ws):
            np.testing.assert_array_equal(g, ref.gradient(wi, X, targets))

        for a, b in zip(inputs, before):
            assert a.tobytes() == b.tobytes()
        assert ws.tobytes() == np.stack([w, v, w - v]).tobytes()

    def test_gradients_rejects_misshapen_stacks(self):
        net = tiny_net()
        X, targets = tiny_data(net)
        for bad in (np.zeros(net.n_params), np.zeros((2, net.n_params + 1))):
            with pytest.raises(ValueError, match="parameter rows"):
                net.gradients(bad, X, targets)
