"""Reference solvers that the tests hold the trainer against.

They share no code path with SGD, so a trainer that converges to them is
checked from outside.
"""

import numpy as np

from privreg.model import Dataset, ModelSpec, ParameterSet


def regularized_least_squares_oracle(data: Dataset, kappa: float) -> ParameterSet:
    """Exact minimizer of sum_n (theta.x_n - t_n)^2 + kappa * sum_n sum_i theta_i^2 x_ni^2.

    Solves (X'X + kappa*D) theta = X't with D the diagonal of column-wise
    sums of squares.  Independent of the SGD path: training with the
    matching penalty must converge here.
    """
    if kappa < 0:
        raise ValueError(f"kappa must be nonnegative, got {kappa}")
    if len(data) == 0:
        raise ValueError("dataset must be nonempty")
    x, t = data.x, data.t
    if t.shape[1] != 1:
        raise ValueError("closed form needs scalar targets")
    gram = x.T @ x + kappa * np.diag((x * x).sum(axis=0))
    theta = np.linalg.solve(gram, x.T @ t[:, 0])
    spec = ModelSpec(layer_sizes=(data.dim, 1), activation="identity", include_bias=False)
    return ParameterSet(spec, theta)
