"""Small dense feed-forward models with explicit, batched forward/backward passes.

A model is a chain of affine layers; hidden layers share one activation,
the output layer is always linear.  Parameters live in a single flat
float64 vector with per-layer weight and bias slices, which keeps the
noise mechanisms and regularizers coordinate-aligned.  The loss is the
plain squared error sum((y - t)^2), so a one-layer linear model with
scalar output has per-weight gradient 2*(y - t)*x_i and bias gradient
2*(y - t).

Every pass works on a batch: forward runs params.spec on (B, d) inputs and
returns the batch followed by each layer's (B, .) output, and backward
runs forward and returns one gradient per example as a (B, P) array,
reading each activation's derivative off that activation's output.  A
single input is a batch of one row.  Each example's arithmetic is the
same as on its own: matrix-vector products are stacked,
(W @ a[:, :, None])[..., 0], which runs the same BLAS gemv per row as
W @ a on one vector, and dot products go through np.vecdot, which sums a
row as np.dot does.  A plain (B, d) @ W.T would sum in another order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .numerics import RngStream

ACTIVATIONS = ("identity", "tanh", "relu")


@dataclass(frozen=True)
class LayerSlices:
    weights: slice
    bias: slice | None
    fan_in: int
    fan_out: int

    def weight_matrix(self, flat: np.ndarray) -> np.ndarray:
        """This layer's (fan_out, fan_in) weight view of a flat vector."""
        return flat[self.weights].reshape(self.fan_out, self.fan_in)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture: layer sizes (input first), hidden activation, bias flag.

    `layout` (flat-vector slices for each layer's weight and bias blocks) and
    `n_params` are worked out once, when the spec is made, so the passes
    read them without hashing or comparing the spec.
    """

    layer_sizes: tuple[int, ...]
    activation: str = "identity"
    include_bias: bool = True
    layout: tuple[LayerSlices, ...] = field(init=False, repr=False, compare=False)
    n_params: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if any(isinstance(s, bool) or not isinstance(s, (int, np.integer))
               for s in self.layer_sizes):
            raise ValueError(f"layer sizes must be integers, got {tuple(self.layer_sizes)}")
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        if len(sizes) < 2:
            raise ValueError("need at least one layer transition")
        if any(s < 1 for s in sizes):
            raise ValueError(f"all layer sizes must be >= 1, got {sizes}")
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        slices = []
        offset = 0
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            w = slice(offset, offset + fan_in * fan_out)
            offset = w.stop
            b = None
            if self.include_bias:
                b = slice(offset, offset + fan_out)
                offset = b.stop
            slices.append(LayerSlices(weights=w, bias=b, fan_in=fan_in, fan_out=fan_out))
        object.__setattr__(self, "layout", tuple(slices))
        object.__setattr__(self, "n_params", offset)

    @property
    def n_layers(self) -> int:
        return len(self.layer_sizes) - 1

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def output_dim(self) -> int:
        return self.layer_sizes[-1]

    @property
    def is_linear_unit(self) -> bool:
        """One affine layer to one output: the only model for which the
        paper's penalty identities, the oracle's closed forms and the
        gradient inversions hold.  The activation plays no part, as it
        applies to hidden layers only and the output layer is linear."""
        return self.n_layers == 1 and self.output_dim == 1


def linear_unit_features(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """A linear unit's (B, P) features for a (B, d) batch: each input row,
    then a constant 1 for the bias, so that the output is features @ theta.
    Raises ValueError for any model that is not a linear unit."""
    if not spec.is_linear_unit:
        raise ValueError(f"a single linear output unit is needed, got layer sizes "
                         f"{spec.layer_sizes}")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"input batch has shape {x.shape}, expected (B, {spec.input_dim})")
    if not spec.include_bias:
        return x
    return np.concatenate([x, np.ones((x.shape[0], 1))], axis=1)


class NonFiniteParametersError(ValueError):
    """A parameter vector holds NaN or infinity."""


@dataclass
class ParameterSet:
    """Flat parameter vector tied to the architecture that shapes it."""

    spec: ModelSpec
    flat: np.ndarray

    def __post_init__(self):
        self.flat = np.asarray(self.flat, dtype=np.float64).ravel()
        expected = self.spec.n_params
        if self.flat.size != expected:
            raise ValueError(f"expected {expected} parameters, got {self.flat.size}")
        if not np.isfinite(self.flat).all():
            raise NonFiniteParametersError("parameters must be finite")

    def weights(self, layer: int) -> np.ndarray:
        return self.spec.layout[layer].weight_matrix(self.flat)

    def bias(self, layer: int) -> np.ndarray | None:
        ls = self.spec.layout[layer]
        return None if ls.bias is None else self.flat[ls.bias]

    def copy(self) -> "ParameterSet":
        return ParameterSet(self.spec, self.flat.copy())


@dataclass
class Dataset:
    """Examples as rows: inputs x of shape (n, d), targets t of shape (n, k)."""

    x: np.ndarray
    t: np.ndarray

    def __post_init__(self):
        self.x = np.ascontiguousarray(self.x, dtype=np.float64)
        self.t = np.ascontiguousarray(self.t, dtype=np.float64)
        if self.x.ndim != 2 or self.t.ndim != 2:
            raise ValueError(f"x and t must be 2-D, got shapes {self.x.shape} and {self.t.shape}")
        if self.x.shape[0] != self.t.shape[0]:
            raise ValueError(f"{self.x.shape[0]} inputs but {self.t.shape[0]} targets")

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    def __len__(self) -> int:
        return self.x.shape[0]


def init_params(spec: ModelSpec, rng: RngStream) -> ParameterSet:
    """Seeded uniform init in [-r, r] with r = 1/sqrt(fan_in), per layer.

    Keeps early training near the linear regime and avoids an all-zero
    vector, which would silence parameter-proportional noise entirely.
    """
    flat = np.empty(spec.n_params)
    for ls in spec.layout:
        r = 1.0 / np.sqrt(ls.fan_in)
        width = ls.weights.stop - ls.weights.start
        flat[ls.weights] = rng.uniform(width) * (2.0 * r) - r
        if ls.bias is not None:
            flat[ls.bias] = rng.uniform(ls.fan_out) * (2.0 * r) - r
    return ParameterSet(spec, flat)


def _activate(name: str, z: np.ndarray) -> np.ndarray:
    if name == "identity":
        return z
    if name == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _activate_prime(name: str, a: np.ndarray) -> np.ndarray:
    """The activation's derivative, read off its output a."""
    if name == "identity":
        return np.ones_like(a)
    if name == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)


def _matvec(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """w @ a[i] for every row a[i], each row bit-identical to one gemv."""
    return (w @ a[:, :, None])[..., 0]


def forward(params: ParameterSet, x: np.ndarray) -> list[np.ndarray]:
    """Run params.spec on a (B, d) batch: the batch, then each layer's
    (B, .) output, the model's (B, k) output last."""
    spec = params.spec
    a = np.asarray(x, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != spec.input_dim:
        raise ValueError(f"input batch has shape {a.shape}, expected (B, {spec.input_dim})")
    if a.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    layers = spec.layout
    acts = [a]
    for layer, ls in enumerate(layers):
        z = _matvec(ls.weight_matrix(params.flat), a)
        if ls.bias is not None:
            z = z + params.flat[ls.bias]
        a = _activate(spec.activation if layer < len(layers) - 1 else "identity", z)
        acts.append(a)
    return acts


def quadratic_loss(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance over the last axis: one loss per row of a
    (B, k) batch, or a scalar for one (k,) output."""
    y = np.atleast_1d(np.asarray(y, dtype=np.float64))
    t = np.atleast_1d(np.asarray(t, dtype=np.float64))
    if y.shape != t.shape:
        raise ValueError(f"output shape {y.shape} does not match target shape {t.shape}")
    diff = y - t
    return np.vecdot(diff, diff)


def backward(params: ParameterSet, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Exact per-example gradients of quadratic_loss(output, t) w.r.t. the
    flat parameters, for a (B, d) batch x with (B, k) targets t: row i of
    the (B, P) result belongs to example i, and their mean is the gradient
    of the mean batch loss."""
    acts = forward(params, x)
    spec = params.spec
    layers = spec.layout
    t = np.asarray(t, dtype=np.float64)
    y = acts[-1]
    if y.shape != t.shape:
        raise ValueError(f"target shape {t.shape} does not match output shape {y.shape}")

    batch = y.shape[0]
    grad = np.empty((batch, spec.n_params))
    delta = 2.0 * (y - t)  # output layer is linear
    for layer in range(len(layers) - 1, -1, -1):
        ls = layers[layer]
        a_in = acts[layer]
        grad[:, ls.weights] = (delta[:, :, None] * a_in[:, None, :]).reshape(batch, -1)
        if ls.bias is not None:
            grad[:, ls.bias] = delta
        if layer > 0:
            back = _matvec(ls.weight_matrix(params.flat).T, delta)
            delta = back * _activate_prime(spec.activation, a_in)
    return grad
