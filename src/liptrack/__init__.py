"""Training harness and Lipschitz-bound tracker for small ReLU networks.

The package trains zero-bias feed-forward and convolutional nets while
tracking lower, average, and upper estimates of their Lipschitz constant,
runs seed-ensemble bias-variance decompositions with closed-form variance
bounds, and orchestrates the width/depth/sample/noise sweeps that exhibit
double descent in both test loss and the Lipschitz estimates.
"""

__version__ = "0.1.0"

from .linalg import (PowerIterSettings, make_rng, spectral_norm_dense, spectral_norm_operator,
                     vector_norm)
from .models import (CnnNet, FFReluNet, conv2d, conv2d_adjoint, conv_spectral_norm,
                     init_cnn, init_ff, load_checkpoint, param_distance, save_checkpoint)
from .training import (Adam, DivergenceError, EpochRecord, LrSchedule, Sgd, StopRule,
                       TrainTrace, dataset_loss, default_stop, loss_and_grad, make_optimizer,
                       one_hot, param_grad, train, updates_per_epoch)
from .datasets import (DataPair, Dataset, load_cifar10, load_mnist1d, read_cifar_batch,
                       replay_mutations, shuffle_labels, subsample, synthetic_fallback)
from .bounds import (ESTIMATES, ProbeSet, batch_spectral_norms, build_report, estimates,
                     lower_bound, probe_bound, softmax_composed_lower_bound, upper_bound)
from .ensembles import (SeedEnsemble, build_biasvar_report, decompose, lower_estimates,
                        sweep_biasvar, train_ensemble, upper_estimates, variance_bounds,
                        write_biasvar_csv)
from .harness import (ExperimentConfig, apply_overrides, apply_profile, build_data, cell_net,
                      cnn_param_count, emit_plot_data, ff_param_count,
                      interpolation_threshold, run_cell, run_sweep, summarize,
                      train_cell, write_failures, write_run_dir)

__all__ = [name for name in dir() if not name.startswith("_")]
