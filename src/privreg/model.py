"""Small dense feed-forward models with explicit, batched forward/backward passes.

A model is a chain of affine layers; hidden layers share one activation,
the output layer is always linear.  Parameters live in a single flat
float64 vector with per-layer weight and bias slices, which keeps the
noise mechanisms and regularizers coordinate-aligned.  A ParameterSet
makes each layer's (fan_out, fan_in) weight matrix and bias as views of
its flat vector once, when it is made; the passes read those views, so a
trainer that writes each step into the flat vector in place never slices
or reshapes per call, and never holds a stale view.  The loss is the
plain squared error sum((y - t)^2), so a one-layer linear model with
scalar output has per-weight gradient 2*(y - t)*x_i and bias gradient
2*(y - t).

Every pass works on a batch: forward runs params.spec on (B, d) inputs and
returns the batch followed by each layer's (B, .) output, and backward
runs forward and returns one gradient per example as a (B, P) array,
reading each activation's derivative off that activation's output.  Both
check their inputs, then run an unchecked core (_forward, _backward) that
also takes one example as a (d,) vector and writes into the layer views
(_layer_views) of a caller's buffer, as the trainer's step plan does.
Each example's arithmetic is the same as on its own: matrix-vector
products are stacked, (W @ a[:, :, None])[..., 0], which runs the same
BLAS gemv per row as W @ a on one vector, and dot products go through
np.vecdot, which sums a row as np.dot does.  A plain (B, d) @ W.T would
sum in another order.
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


def _require_linear_unit(spec: ModelSpec) -> None:
    if not spec.is_linear_unit:
        raise ValueError(f"a single linear output unit is needed, got layer sizes "
                         f"{spec.layer_sizes}")


def linear_unit_features(spec: ModelSpec, x: np.ndarray) -> np.ndarray:
    """A linear unit's features for a (B, d) batch or one (d,) example: each
    input, then a constant 1 for the bias, so that the output is features @
    theta.  Raises ValueError for any model that is not a linear unit."""
    _require_linear_unit(spec)
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != spec.input_dim:
        raise ValueError(f"input batch has shape {x.shape}, expected (B, {spec.input_dim})")
    if not spec.include_bias:
        return x
    return np.concatenate([x, np.ones(x.shape[:-1] + (1,))], axis=-1)


class NonFiniteParametersError(ValueError):
    """A parameter vector holds NaN or infinity."""


@dataclass(frozen=True)
class ParameterSet:
    """Flat parameter vector tied to the architecture that shapes it.

    `flat` is never rebound.  `views` holds each layer's (fan_out, fan_in)
    weight matrix and its (fan_out,) bias (None without one), views of
    `flat` made once, when the set is made: the passes, weights() and
    bias() read them, and an in-place write to `flat` shows in all of them.
    """

    spec: ModelSpec
    flat: np.ndarray
    views: tuple[tuple[np.ndarray, np.ndarray | None], ...] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        # ravel copies a strided vector, so flat is contiguous and every
        # reshape below is a view of it
        flat = np.asarray(self.flat, dtype=np.float64).ravel()
        expected = self.spec.n_params
        if flat.size != expected:
            raise ValueError(f"expected {expected} parameters, got {flat.size}")
        if not np.isfinite(flat).all():
            raise NonFiniteParametersError("parameters must be finite")
        object.__setattr__(self, "flat", flat)
        object.__setattr__(self, "views", _layer_views(self.spec, flat))

    def __reduce__(self):
        # copy.deepcopy and pickle copy arrays one by one, which would cut
        # the views loose from flat; rebuild them instead
        return ParameterSet, (self.spec, self.flat)

    def weights(self, layer: int) -> np.ndarray:
        return self.views[layer][0]

    def bias(self, layer: int) -> np.ndarray | None:
        return self.views[layer][1]

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
    """The activation applied to z in place (z is a fresh pre-activation)."""
    if name == "tanh":
        np.tanh(z, out=z)
    elif name == "relu":
        np.maximum(z, 0.0, out=z)
    return z


def _activate_prime(name: str, a: np.ndarray) -> np.ndarray:
    """The activation's derivative, read off its output a."""
    if name == "identity":
        return np.ones_like(a)
    if name == "tanh":
        return 1.0 - a * a
    return (a > 0.0).astype(np.float64)


def _layer_views(spec: ModelSpec, flat: np.ndarray) -> tuple:
    """Each layer's (..., fan_out, fan_in) weights and (..., fan_out) bias
    (or None), as views of a (P,) or (B, P) array."""
    lead = flat.shape[:-1]
    return tuple([(flat[..., ls.weights].reshape(lead + (ls.fan_out, ls.fan_in)),
                   None if ls.bias is None else flat[..., ls.bias]) for ls in spec.layout])


def _matvec(w: np.ndarray, a: np.ndarray) -> np.ndarray:
    """w @ a for one (n,) vector, or for each row of a (B, n) batch as one gemv."""
    return w @ a if a.ndim == 1 else (w @ a[:, :, None])[..., 0]


def _forward(params: ParameterSet, a: np.ndarray) -> list[np.ndarray]:
    """forward's arithmetic, unchecked, on one (d,) example or a (B, d) batch."""
    spec = params.spec
    last = spec.n_layers - 1
    acts = [a]
    for layer, (w, b) in enumerate(params.views):
        a = _matvec(w, a)
        if b is not None:
            a += b
        if layer < last:
            a = _activate(spec.activation, a)
        acts.append(a)
    return acts


def _backward(params: ParameterSet, acts: list[np.ndarray], t: np.ndarray,
              grad_views: tuple) -> None:
    """backward's arithmetic, unchecked, from _forward's activations and the
    targets t, into the layer views (_layer_views) of a (P,) or (B, P) array."""
    activation = params.spec.activation
    delta = 2.0 * (acts[-1] - t)  # output layer is linear
    for layer in range(len(grad_views) - 1, -1, -1):
        weights, bias = grad_views[layer]
        a_in = acts[layer]
        np.multiply(delta[..., :, None], a_in[..., None, :], out=weights)
        if bias is not None:
            bias[...] = delta
        if layer > 0:
            delta = _matvec(params.views[layer][0].T, delta)
            delta *= _activate_prime(activation, a_in)


def _check_batch(spec: ModelSpec, x: np.ndarray, t: np.ndarray | None = None) -> np.ndarray:
    """x as a nonempty float64 (B, d) batch for spec, or ValueError, as also
    for targets t, when given, whose shape is not (B, k)."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"input batch has shape {x.shape}, expected (B, {spec.input_dim})")
    if x.shape[0] == 0:
        raise ValueError("batch must be nonempty")
    if t is not None and np.shape(t) != (len(x), spec.output_dim):
        raise ValueError(f"target shape {np.shape(t)} does not match output shape "
                         f"{(len(x), spec.output_dim)}")
    return x


def forward(params: ParameterSet, x: np.ndarray) -> list[np.ndarray]:
    """Run params.spec on a (B, d) batch: the batch, then each layer's
    (B, .) output, the model's (B, k) output last."""
    return _forward(params, _check_batch(params.spec, x))


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
    spec = params.spec
    x = _check_batch(spec, x, t)
    grad = np.empty((len(x), spec.n_params))
    _backward(params, _forward(params, x), t, _layer_views(spec, grad))
    return grad
