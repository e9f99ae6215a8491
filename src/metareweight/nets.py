"""Feedforward networks with manual backpropagation over flat parameter vectors.

Two networks drive the whole package:

* ``ClassifierNet`` -- a rectifier MLP with a softmax head.  Besides plain
  forward evaluation it exposes *per-sample* parameter gradients, which the
  bilevel loop needs both for the virtual update and for the inner products
  against the meta-gradient.

* ``WeightNet`` -- the weighting network: one scalar in (a sample's loss),
  one hidden rectifier layer, logistic output in (0, 1).  Its output is the
  sample's importance weight and doubles as a "probably clean" score.

Each net stores its parameters as one flat float64 vector, read and written
only through ``get_flat``/``set_flat``.  Every forward and backward method
takes the parameter vector to evaluate at as its first argument, so a net
can be evaluated anywhere without touching its stored parameters.

Flat parameter layout (both networks): layers in input-to-output order,
each layer contributing W.ravel() (row-major, shape out x in) followed by
its bias (out,).  ``_Mlp._layers`` is the only code that knows this layout.
Rectifier derivative at exactly 0 is defined as 0.
"""

from __future__ import annotations

import numpy as np

from .losses import LossKind, grad_logits_batch, loss_values_batch
from .numkit import Rng, as_vec


def _he_normal(rng: Rng, out_dim: int, in_dim: int) -> np.ndarray:
    std = np.sqrt(2.0 / in_dim)
    return rng.gaussians(out_dim * in_dim, 0.0, std).reshape(out_dim, in_dim)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


class _Mlp:
    """Shared plumbing: the flat parameter vector and its per-layer views."""

    def __init__(self, layer_sizes, rng: Rng):
        self.layer_sizes = [int(s) for s in layer_sizes]
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"bad layer sizes {layer_sizes}")
        self.num_params = sum(fan_out * (fan_in + 1) for fan_in, fan_out
                              in zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self._params = np.zeros(self.num_params)
        for w, _ in self._layers(self._params):
            w[:] = _he_normal(rng, *w.shape)

    def get_flat(self) -> np.ndarray:
        """A copy of the stored parameter vector."""
        return self._params.copy()

    def set_flat(self, flat) -> None:
        v = as_vec(flat, "params")
        if v.size != self.num_params:
            raise ValueError(f"expected {self.num_params} params, got {v.size}")
        self._params = v.copy()

    def _layers(self, params: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(W (out, in), b (out,))`` views into ``params``."""
        params = np.asarray(params, dtype=np.float64)
        if params.shape != (self.num_params,):
            raise ValueError(f"expected {self.num_params} params, got shape {params.shape}")
        views = []
        off = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w = params[off:off + fan_out * fan_in].reshape(fan_out, fan_in)
            off += w.size
            views.append((w, params[off:off + fan_out]))
            off += fan_out
        return views


class ClassifierNet(_Mlp):
    """Rectifier MLP classifier; softmax over the final logits."""

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def _check_batch(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(
                f"expected feature batch of shape (n, {self.input_dim}), got {x.shape}"
            )
        return x

    def _forward_cached(self, layers, x: np.ndarray):
        """Returns (activations per layer incl. input, pre-activations)."""
        acts = [x]
        zs = []
        a = x
        last = len(layers) - 1
        for i, (w, b) in enumerate(layers):
            z = a @ w.T + b
            zs.append(z)
            a = z if i == last else np.maximum(z, 0.0)
            acts.append(a)
        return acts, zs

    def forward_batch(self, params, x) -> np.ndarray:
        """Softmax probabilities at ``params``, one row per sample."""
        _, zs = self._forward_cached(self._layers(params), self._check_batch(x))
        return _softmax_rows(zs[-1])

    def predict_batch(self, params, x) -> np.ndarray:
        return np.argmax(self.forward_batch(params, x), axis=1)

    def losses_batch(self, params, x, labels, kind: LossKind) -> np.ndarray:
        return loss_values_batch(kind, labels, self.forward_batch(params, x))

    def losses_and_grads_batch(self, params, x, labels, kind: LossKind):
        """Per-sample losses and per-sample flat parameter gradients at ``params``.

        Returns ``(losses (n,), grads (n, num_params))``; row i of the
        gradient matrix is the gradient of sample i's loss alone.
        """
        layers = self._layers(params)
        x = self._check_batch(x)
        labels = np.asarray(labels, dtype=np.int64)
        acts, zs = self._forward_cached(layers, x)
        probs = _softmax_rows(zs[-1])
        losses = loss_values_batch(kind, labels, probs)  # checks the labels
        deltas = [grad_logits_batch(kind, labels, probs)]
        for i in range(len(layers) - 1, 0, -1):
            deltas.insert(0, (deltas[0] @ layers[i][0]) * (zs[i - 1] > 0.0))
        n = x.shape[0]
        grads = np.empty((n, self.num_params))
        off = 0
        for a_prev, d in zip(acts[:-1], deltas):
            wsz = d.shape[1] * a_prev.shape[1]
            grads[:, off:off + wsz] = np.einsum("no,ni->noi", d, a_prev).reshape(n, wsz)
            off += wsz
            grads[:, off:off + d.shape[1]] = d
            off += d.shape[1]
        return losses, grads

    def hidden_preactivations(self, params, x) -> np.ndarray:
        """All rectifier pre-activations for a batch, flattened (kink check)."""
        _, zs = self._forward_cached(self._layers(params), self._check_batch(x))
        if len(zs) == 1:
            return np.empty(0)
        return np.concatenate([z.ravel() for z in zs[:-1]])


class WeightNet(_Mlp):
    """Scalar loss -> importance weight in (0, 1).

    Architecture 1 -> hidden -> 1 with rectifier hidden units and a
    logistic output.  The logistic keeps weights bounded and orderable,
    so they serve directly as clean-vs-corrupt scores.
    """

    # Keeps saturated logits from rounding to exactly 0 or 1 in float64.
    _OUTPUT_CLIP = 1e-12

    def __init__(self, rng: Rng, hidden: int = 100):
        super().__init__([1, hidden, 1], rng)
        # Neutral start: a zero output layer makes every weight exactly
        # logistic(0) = 0.5, so training begins as uniformly weighted SGD.
        # A random output layer can start deep in logistic saturation and
        # wreck the classifier before the weighting net can recover.
        _, (w2, _) = self._layers(self._params)
        w2[:] = 0.0

    def _forward(self, theta, loss_values):
        """Inputs, hidden pre-activations and activations, the output
        layer, and the unclipped logistic output at ``theta``."""
        v = as_vec(loss_values, "loss values")
        (w1, b1), (w2, b2) = self._layers(theta)
        zh = np.outer(v, w1[:, 0]) + b1     # (n, H)
        h = np.maximum(zh, 0.0)
        out = 1.0 / (1.0 + np.exp(-(h @ w2[0] + b2[0])))
        return v, zh, h, w2[0], out

    def forward_batch(self, theta, loss_values) -> np.ndarray:
        out = self._forward(theta, loss_values)[-1]
        return np.clip(out, self._OUTPUT_CLIP, 1.0 - self._OUTPUT_CLIP)

    def hidden_preactivations(self, theta, loss_values) -> np.ndarray:
        """Rectifier pre-activations for each input, flattened (kink check)."""
        return self._forward(theta, loss_values)[1].ravel()

    def forward_and_grads_batch(self, theta, loss_values):
        """Weights and per-input flat gradients d weight / d theta.

        Returns ``(weights (n,), grads (n, num_params))``.  The input is
        treated as a constant: these are gradients with respect to the
        weighting network's own parameters only.
        """
        v, zh, h, w2, out = self._forward(theta, loss_values)
        dout = out * (1.0 - out)            # logistic derivative
        out = np.clip(out, self._OUTPUT_CLIP, 1.0 - self._OUTPUT_CLIP)
        dh = dout[:, None] * w2 * (zh > 0.0)  # (n, H)
        grads = np.concatenate([dh * v[:, None], dh, dout[:, None] * h, dout[:, None]],
                               axis=1)
        return out, grads
