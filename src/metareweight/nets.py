"""Feedforward networks with manual backpropagation over flat parameter vectors.

Two networks drive the whole package:

* ``ClassifierNet`` -- a rectifier MLP with a softmax head.  Besides plain
  forward evaluation it gives the per-sample parameter gradients of a
  batch as a ``SampleGrads``: the backward pass's layer inputs and deltas,
  kept factored.  The bilevel step needs those gradients only through a
  weighted sum (virtual and real updates) and through their inner products
  with the meta-gradient, both backprop contractions on that form;
  ``SampleGrads.matrix()`` builds the ``(n, num_params)`` matrix, or the
  ``(T, n, num_params)`` matrices of a stack, for the verification oracles.

* ``WeightNet`` -- the weighting network: one scalar in (a sample's loss),
  one hidden rectifier layer, logistic output in (0, 1).  Its output is the
  sample's importance weight and doubles as a "probably clean" score.

The nets hold no parameters.  A net is its layer sizes; ``init_params``
draws a fresh flat float64 vector (``params_from_normals`` builds it from
normals drawn elsewhere), and every forward and backward method
takes the vector to evaluate at as its first argument.  The training state
(``bilevel.BilevelState``) owns the vectors it trains and passes each new
one through ``set_flat``, which checks its size and finiteness;
``get_flat`` gives a checked copy for callers that write into it.  Both nets
share one forward loop and one backward loop (``_backward``); they differ
only in how the input is read and in the output-layer delta.  The forward
loop rectifies in place; the backward loop masks with ``max(z, 0) > 0``.
Every layer product goes through ``_matmul``: a product whose contraction
length is 1 (the weighting net's fan-in-1 layer, the delta back from its
1-wide output) is an outer product, taken by ``np.einsum``: the bits of
``np.matmul`` without BLAS's slow path for that shape.  (A broadcast
``a * b`` differs from both in the sign of zero: it keeps a -0.0 product
that they return as +0.0.)

Leading parameter axis: every method, and ``set_flat``, also takes a
``(T, num_params)`` stack of parameter vectors and returns ``(T, n, ...)``
in place of ``(n, ...)``.  The classifier's features, labels and the
weighting net's loss values are either shared by every row (features
``(n, d)``, the others ``(n,)``) or paired with the rows (``(T, n, d)``
features, ``(T, n)`` for the others); a loss kind is one ``LossKind`` or
one per row.  ``SampleGrads`` of a stack carries the axis through its
contractions.  Row t equals the call at ``params[t]`` (with row t of the
paired inputs) bit for bit.

Flat parameter layout (both networks): layers in input-to-output order,
each layer contributing W.ravel() (row-major, shape out x in) followed by
its bias (out,).  ``_Mlp._layers`` is the only code that knows this layout.
Rectifier derivative at exactly 0 is defined as 0.
"""

from __future__ import annotations

import numpy as np

from .losses import grad_logits_batch, loss_values_batch
from .numkit import Rng, as_vec


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for stacks of matrices.  With a contraction length of 1 it
    is an outer product, and ``np.einsum`` takes it faster than BLAS or the
    broadcast ``a * b``.  Each entry is one rounded product, and like
    ``np.matmul`` it gives +0.0 where that product is -0.0, as ``a * b``
    does not: the bits of ``np.matmul``."""
    if a.shape[-1] == 1:
        return np.einsum("...ik,...kj->...ij", a, b)
    return np.matmul(a, b)


def _softmax_rows(z: np.ndarray) -> np.ndarray:
    # The row max as an exact fold over the columns: a short-axis reduce is slow.
    top = z[..., 0]
    for k in range(1, z.shape[-1]):
        top = np.maximum(top, z[..., k])
    e = np.exp(z - top[..., None])
    return e / e.sum(axis=-1, keepdims=True)


def _logistic(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))``, without a warning where ``exp`` overflows and it is 0."""
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-z))


class SampleGrads:
    """The per-sample parameter gradients of one batch, kept factored.

    Stands for the ``(n, num_params)`` matrix whose row i is sample i's
    flat gradient.  In layer l that row holds the outer product of the
    layer's delta ``deltas[l][i]`` with its input ``inputs[l][i]`` (the
    weight block), then the delta itself (the bias block).  Both products
    the training step takes of that matrix are backprop contractions,

    * ``c @ grads = sum_i c_i grad_i``, per layer ``(c * delta)^T a`` and
      ``c @ delta``;
    * ``grads @ g = (grad_i . g)_i``, per layer
      ``rowsum((delta @ G) * a) + delta @ g_b`` with ``G, g_b`` the layer's
      blocks of ``g``;

    so the step never builds it.  Gradients of a ``(T, P)`` stack take
    ``(T, n)`` coefficients and ``(T, P)`` vectors, one per row; a 1-D
    ``c`` or ``g`` is shared by the rows.  ``matrix()`` builds the matrix,
    ``(T, n, num_params)`` for a stack, for the verification oracles,
    which keep their own arithmetic on the rows.
    """

    __array_ufunc__ = None  # makes ``ndarray @ grads`` call ``__rmatmul__``

    def __init__(self, net: _Mlp, inputs: list[np.ndarray], deltas: list[np.ndarray]):
        self.net, self.inputs, self.deltas = net, inputs, deltas

    def __len__(self) -> int:
        return self.deltas[0].shape[-2]

    @property
    def nbytes(self) -> int:
        """Bytes of the inputs and deltas held; the matrix is never stored."""
        return sum(a.nbytes + d.nbytes for a, d in zip(self.inputs, self.deltas))

    def matrix(self) -> np.ndarray:
        """The ``(n, num_params)`` per-sample gradient matrix; a stack's
        ``(T, n, num_params)`` matrices, filled as one ``(T n, num_params)``
        matrix."""
        lead = self.deltas[0].shape[:-1]
        grads = np.empty(lead + (self.net.num_params,))
        # ``_layers`` returns views, so each layer's blocks fill in place.
        for (w, b), a, d in zip(self.net._layers(grads.reshape(-1, self.net.num_params)),
                                self.inputs, self.deltas):
            if a.ndim < d.ndim:  # one input batch shared by a stack's rows
                a = np.broadcast_to(a, lead + a.shape[-1:])
            d = d.reshape(-1, d.shape[-1])
            np.einsum("no,ni->noi", d, a.reshape(-1, a.shape[-1]), out=w)
            b[:] = d
        return grads

    def __rmatmul__(self, c) -> np.ndarray:
        c = np.asarray(c, dtype=np.float64)
        if c.shape[-1:] != (len(self),):
            raise ValueError(f"coefficients of shape {c.shape} do not match "
                             f"the {len(self)} per-sample gradients")
        parts = []
        for a, d in zip(self.inputs, self.deltas):
            cd = (d * c[..., None]).swapaxes(-1, -2)  # (..., out, n)
            parts += [_matmul(cd, a), cd.sum(axis=-1)]
        lead = parts[-1].shape[:-1]
        return np.concatenate([p.reshape(*lead, -1) for p in parts], axis=-1)

    def __matmul__(self, g) -> np.ndarray:
        dots = 0.0
        for a, d, (w, b) in zip(self.inputs, self.deltas, self.net._layers(g)):
            dots = dots + (_matmul(d, w) * a).sum(axis=-1) + _matmul(d, b[..., None])[..., 0]
        return dots


class _Mlp:
    """Rectifier MLP with a linear last layer: layout, forward, backward.
    Subclasses define ``_inputs(x, params)``, the validated
    ``(n, layer_sizes[0])`` input matrix of a batch, or
    ``(T, n, layer_sizes[0])`` inputs of a ``(T, num_params)`` stack's
    rows."""

    def __init__(self, layer_sizes):
        self.layer_sizes = [int(s) for s in layer_sizes]
        if len(self.layer_sizes) < 2 or any(s < 1 for s in self.layer_sizes):
            raise ValueError(f"bad layer sizes {layer_sizes}")
        pairs = list(zip(self.layer_sizes[:-1], self.layer_sizes[1:]))
        self.num_weights = sum(fan_out * fan_in for fan_in, fan_out in pairs)
        self.num_params = self.num_weights + sum(fan_out for _, fan_out in pairs)

    def init_params(self, rng: Rng) -> np.ndarray:
        """Fresh parameters from one draw of ``num_weights`` normals."""
        return self.params_from_normals(rng.gaussians(self.num_weights))

    def params_from_normals(self, z: np.ndarray) -> np.ndarray:
        """He-normal parameters from unit normals ``z``, ``(num_weights,)``
        or a ``(T, num_weights)`` stack: the weights take them layer by
        layer from the input, each layer's scaled by sqrt(2 / fan_in); the
        biases are zero.  From ``z`` drawn at once, the parameters of
        drawing each layer's scaled normals in turn, bit for bit."""
        params = np.zeros(z.shape[:-1] + (self.num_params,))
        off = 0
        for w, _ in self._layers(params):
            size = w.shape[-1] * w.shape[-2]
            w[:] = np.sqrt(2.0 / w.shape[-1]) * z[..., off:off + size].reshape(w.shape)
            off += size
        return params

    def set_flat(self, flat, name: str = "params") -> np.ndarray:
        """``flat`` checked as a parameter vector of this net, or a stack of
        them: float64 with ``num_params`` finite entries per row.  The error
        names ``name``."""
        v = as_vec(flat, name)
        if v.shape[-1] != self.num_params:
            raise ValueError(f"{name} must have {self.num_params} entries, got {v.shape[-1]}")
        return v

    def get_flat(self, params, name: str = "params") -> np.ndarray:
        """A checked copy of ``params`` that the caller may write into."""
        return self.set_flat(params, name).copy()

    def _layers(self, params) -> list[tuple[np.ndarray, np.ndarray]]:
        """Per-layer ``(W (out, in), b (out,))`` views into ``params``; a
        ``(T, num_params)`` stack gives ``(T, out, in)`` and ``(T, out)``
        views."""
        params = np.asarray(params, dtype=np.float64)
        if params.ndim not in (1, 2) or params.shape[-1] != self.num_params:
            raise ValueError(f"expected {self.num_params} params, got shape {params.shape}")
        lead = params.shape[:-1]
        views = []
        off = 0
        for fan_in, fan_out in zip(self.layer_sizes[:-1], self.layer_sizes[1:]):
            w = params[..., off:off + fan_out * fan_in].reshape(*lead, fan_out, fan_in)
            off += fan_out * fan_in
            views.append((w, params[..., off:off + fan_out]))
            off += fan_out
        return views

    def _forward(self, layers, x: np.ndarray) -> list[np.ndarray]:
        """Activations per layer from the input to the last pre-activations;
        ``(T, n, width)`` beyond the input for stacked layers."""
        acts = [x]
        for i, (w, b) in enumerate(layers):
            z = _matmul(acts[-1], w.swapaxes(-1, -2))
            z += b[..., None, :]
            if i < len(layers) - 1:
                np.maximum(z, 0.0, out=z)
            acts.append(z)
        return acts

    def _backward(self, layers, acts, out_delta: np.ndarray) -> SampleGrads:
        """Per-sample gradients of a forward pass's batch, given the gradient
        of each sample's objective w.r.t. the last pre-activations: the
        deltas of every layer, paired with the layer inputs."""
        deltas = [out_delta]
        for i in range(len(layers) - 1, 0, -1):
            deltas.insert(0, _matmul(deltas[0], layers[i][0]))
            deltas[0] *= acts[i] > 0.0
        return SampleGrads(self, acts[:-1], deltas)

    def hidden_preactivations(self, params, x) -> np.ndarray:
        """All rectifier pre-activations for a batch, flattened (kink check),
        each rebuilt from its layer's input as ``_forward`` computes it; a
        ``(T, num_params)`` stack gives one flattened row per vector."""
        layers = self._layers(params)
        inputs = self._forward(layers, self._inputs(x, params))[:-2]
        lead = np.shape(params)[:-1]
        return np.concatenate(
            [np.empty(lead + (0,))]
            + [(_matmul(a, w.swapaxes(-1, -2)) + b[..., None, :]).reshape(*lead, -1)
               for a, (w, b) in zip(inputs, layers)], axis=-1)


class ClassifierNet(_Mlp):
    """Rectifier MLP classifier; softmax over the final logits."""

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    def _inputs(self, x, params) -> np.ndarray:
        """Features shared by every parameter vector, ``(n, d)``, or one
        batch per row of a ``(T, num_params)`` stack, ``(T, n, d)``."""
        x = np.asarray(x, dtype=np.float64)
        if x.shape[-1:] == (self.input_dim,) and (
                x.ndim == 2 or (x.ndim == 3 and np.shape(params)[:-1] == x.shape[:1])):
            return x
        raise ValueError(
            f"features must have shape (n, d) or, with a (T, num_params) parameter "
            f"stack, (T, n, d), where d = {self.input_dim} and num_params = "
            f"{self.num_params}; got features {x.shape} and parameters {np.shape(params)}")

    def forward_batch(self, params, x) -> np.ndarray:
        """Softmax probabilities at ``params``, one row per sample:
        ``(n, K)``, or ``(T, n, K)`` for a ``(T, num_params)`` stack."""
        acts = self._forward(self._layers(params), self._inputs(x, params))
        return _softmax_rows(acts[-1])

    def predict_batch(self, params, x) -> np.ndarray:
        return np.argmax(self.forward_batch(params, x), axis=-1)

    def losses_batch(self, params, x, labels, kind) -> np.ndarray:
        """Per-sample losses: ``(n,)``, or ``(T, n)`` for a stack."""
        return loss_values_batch(kind, labels, self.forward_batch(params, x))

    def losses_and_grads_batch(self, params, x, labels, kind):
        """Per-sample losses ``(n,)`` and per-sample parameter gradients
        (``SampleGrads``) at ``params``; row i of the gradients is the
        gradient of sample i's loss alone.  A stack gives ``(T, n)``
        losses."""
        layers = self._layers(params)
        labels = np.asarray(labels, dtype=np.int64)
        acts = self._forward(layers, self._inputs(x, params))
        probs = _softmax_rows(acts[-1])
        losses = loss_values_batch(kind, labels, probs)  # checks the labels
        return losses, self._backward(layers, acts, grad_logits_batch(kind, labels, probs))


class WeightNet(_Mlp):
    """Scalar loss -> importance weight in (0, 1).

    Architecture 1 -> hidden -> 1 with rectifier hidden units and a
    logistic output.  The logistic keeps weights bounded and orderable,
    so they serve directly as clean-vs-corrupt scores.
    """

    # Keeps saturated logits from rounding to exactly 0 or 1 in float64.
    _OUTPUT_CLIP = 1e-12

    def __init__(self, hidden: int = 100):
        super().__init__([1, hidden, 1])

    def params_from_normals(self, z: np.ndarray) -> np.ndarray:
        # Neutral start: a zero output layer makes every weight exactly
        # logistic(0) = 0.5, so training begins as uniformly weighted SGD.
        # A random output layer can start deep in logistic saturation and
        # wreck the classifier before the weighting net can recover.  Its
        # normals are still taken, so the stream moves on as for [1, H, 1].
        theta = super().params_from_normals(z)
        _, (w2, _) = self._layers(theta)
        w2[:] = 0.0
        return theta

    def _inputs(self, loss_values, theta) -> np.ndarray:
        return as_vec(loss_values, "loss values")[..., None]

    def forward_batch(self, theta, loss_values) -> np.ndarray:
        """Weights ``(n,)``, or ``(T, n)`` for a ``(T, num_params)`` stack."""
        acts = self._forward(self._layers(theta), self._inputs(loss_values, theta))
        return np.clip(_logistic(acts[-1][..., 0]), self._OUTPUT_CLIP, 1.0 - self._OUTPUT_CLIP)

    def forward_and_grads_batch(self, theta, loss_values):
        """Weights ``(n,)``, or ``(T, n)`` for a stack, and their gradients
        d weight / d theta (``SampleGrads``).  The input is treated as a
        constant: these are gradients with respect to the weighting
        network's own parameters only."""
        layers = self._layers(theta)
        acts = self._forward(layers, self._inputs(loss_values, theta))
        out = _logistic(acts[-1])
        grads = self._backward(layers, acts, out * (1.0 - out))
        return np.clip(out[..., 0], self._OUTPUT_CLIP, 1.0 - self._OUTPUT_CLIP), grads
