"""maxentlab: entropy-regularized softmax classification over Gaussian-mixture features.

A deterministic numerical laboratory: mixture models with exact moments, the
total-variance diversity statistic, a linear softmax classifier trained under
an entropy-regularized objective, closed-form generalization bounds with
Monte-Carlo verification, and a CLI that reproduces the ablation experiments
on synthetic low/high-diversity regimes.
"""

__version__ = "0.1.0"

from .bounds import (
    empirical_weight_norm_lower_bound,
    entropy_deviation_bound,
    uniform_model_sampler,
    verify_bound,
    weight_norm_lower_bound,
)
from .core import (
    LinearSoftmaxModel,
    entropy,
    expected_entropy_mc,
    maxent_gradient,
    maxent_loss,
    predict_proba,
    predict_proba_batch,
    softmax,
)
from .datasets import LabeledDataset
from .diversity import (
    DiversityReport,
    analytic_diversity,
    empirical_diversity,
    spectrum_tail_mass,
    top_principal_components,
)
from .fixtures import make_regime_fixtures, make_spectrum_fixture
from .mixtures import (
    GaussianMixture,
    expected_sqnorm,
    fourth_moment_and_variance,
    linear_pushforward,
    overall_covariance,
    recenter_zero_mean,
    sample,
    validate,
)
from .training import (
    EvalReport,
    LrSchedule,
    TrainConfig,
    TrainHistory,
    evaluate,
    init_model,
    inject_label_noise,
    train,
)
