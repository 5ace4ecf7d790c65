"""Continual image classification with dual low-rank adapters on a frozen
miniature vision transformer.

Shared adapters (fixed orthogonal down-projection, cumulatively trained
up-projection) sit on the early blocks; per-task adapters with learnable
block-wise weights sit on the late blocks. Training combines a local
cross-entropy with early-exit distillation (row-rescaled gradients) and a
block-weight overlap penalty; inference matches prototypes by cosine
similarity with a shared-prefix evaluation.
"""

from .adapters import Adapter, init_shared, init_specific
from .autodiff import Parameter, Tensor, backward_per_term, finite_difference_check
from .backbone import Backbone, BackboneConfig, TokenState, init_backbone
from .classifier import PrototypeStore, adapter_pass_count, compute_prototypes, predict
from .harness import gradcheck, run_ablation, run_experiment
from .model import ContinualModel, build_model, param_counts
from .numerics import make_rng, sample_orthogonal_rows, softmax_temperature
from .streams import TaskStream, gen_synthetic, load_dataset, save_dataset, split_tasks
from .trainer import TrainConfig, gr_scale, kd_loss, local_ce_loss, orth_loss, train_task

__version__ = "0.1.0"
