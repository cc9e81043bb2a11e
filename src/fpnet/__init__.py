"""Feedback-free training of feed-forward networks.

Layers are fitted front to back in closed form: each one regresses onto
randomly projected targets built from its input and the labels, using
streaming Gram statistics, so no gradients ever flow between layers. The
same random projections later invert into per-layer explanations.
"""

from .accounting import CostLedger, track
from .baselines import BASELINES, BaselineKind, fit_baseline_network
from .bench import (METHODS, bottleneck_sweep, fewshot_sweep, fit_method,
                    mlp_specs, run_benchmark)
from .checkpoint import load_network, save_network
from .core import (GramAccumulator, RidgeConfig, TargetGenSpec, fit_weights,
                   generate_targets, iterative_update, ridge_solve)
from .data import (Dataset, few_shot_subsample, load_idx,
                   synthetic_gaussian_task, write_idx)
from .errors import (CheckpointFormatError, ConfigError, DataConsistencyError,
                     DivergenceError, FpnetError, IdxFormatError,
                     NotPositiveDefiniteError, RankDeficientError,
                     UndefinedMetricError, UnsupportedNonlinearityError)
from .explain import (ExplanationMap, SpatialOrigin, explain_layer,
                      reconstruct_input, render_map)
from .layers import (IterativeConfig, LayerSpec, Network, TrainedLayer,
                     activate, extract_windows, fit_layer, fit_network,
                     forward, network_forward, potentials, predict)
from .linalg import (SeededRng, gaussian_matrix, pseudo_inverse_rows,
                     rank_estimate, spd_solve)
from .metrics import (MetricReport, accuracy, average_precision,
                      metric_report, roc_auc)

__version__ = "0.1.0"
