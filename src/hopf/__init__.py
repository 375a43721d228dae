"""Collective classification on graphs with propagation kernels and iterative inference."""

from .data import (DatasetBundle, gen_benchmark_graph, gen_chain, gen_planted_partition,
                   load_dataset, load_edge_list, row_normalize, save_dataset)
from .errors import ArgumentError, ConfigError, HopfError, IngestError, TrainingError
from .graph import (Graph, NormScheme, Subgraph, build_graph, khop_subgraph,
                    normalize_adjacency, sample_neighbors)
from .iterate import HopfConfig, HopfResult, run_hopf, temporal_average
from .kernels import (ITERATIVE_MODELS, REGISTRY, AlphaMode, Combine,
                      ForwardCache, KernelSpec, ModelWeights, Phi, Psi, backward,
                      linear_unroll_coefficient, make_kernel, nim_relative_importance, predict)
from .metrics import (MetricsRecord, Task, average_rank, binarize_predictions, micro_f1,
                      shortfall, wce_weights, weighted_cross_entropy)
from .numerics import (AdamState, adam_step, finite_diff_grad, glorot_init, sigmoid,
                       softmax_rows)
from .training import (EarlyStopState, SplitSpec, TrainConfig, evaluate, infer, make_splits,
                       train)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
