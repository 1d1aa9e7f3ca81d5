"""Noise-based and regularization-based private SGD, verified end to end.

The package trains small dense models four ways (plain SGD, clip-and-noise
SGD, parameter-proportional noise SGD, and penalty-based SGD), checks the
closed-form expected-loss identities behind the noise/penalty equivalence
by Monte Carlo, and measures what each mechanism leaks to gradient
inversion and membership inference.
"""

__version__ = "0.1.0"

from .attack import (LeakageReport, NoLeakageError,
                     cosine_similarity, invert_linear_gradient, leakage_sweep,
                     membership_inference)
from .experiments import (ConfigError, ExperimentConfig, ResultRow,
                          generate_dataset, load_dataset, parse_config,
                          read_result_rows, run, write_result_rows)
from .model import (Dataset, ModelSpec, NonFiniteParametersError, ParameterSet,
                    backward, forward, init_params, quadratic_loss)
from .numerics import RngStream
from .optimizers import (GradientRecord, NoiseSpec, Step, TrainConfig,
                         TrainReport, TrainingDivergedError, clip_gradient,
                         dataset_loss, initial_params_for, mechanism_label,
                         mechanism_step, train)
from .oracle import (IdentityEstimate, ProductDensityReport,
                     analytic_post_update_loss, backprop_grad_check,
                     check_moment_identities, check_noisy_step,
                     check_product_density, equivalence_chain_residuals,
                     finite_difference_gradient, grad_check,
                     random_linear_setups)
from .regularizers import (RegSpec, dp_input_penalty, l2_grad, l2_penalty,
                           pdp_grad, pdp_penalty)
