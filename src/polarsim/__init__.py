"""polarsim: simulate and infer opinion polarization under mixed media diets.

The package splits into the generative model (`model`), the flat layout of
every random choice with its vectorized judgment pipeline (`trace`),
parallel Metropolis-Hastings over those traces (`inference`), a quadrature
posterior used as ground truth (`oracle`), histogram/metrics/figure
reporting (`report`), and a command line front end (`cli`).
"""

from polarsim.inference import (
    ChainResult,
    InferenceConfig,
    SampleSet,
    derive_chain_seed,
    run_chain,
    sample_posterior,
)
from polarsim.model import (
    AgentParams,
    BUILTIN_ENVIRONMENTS,
    MediaEnvironment,
    ModelParams,
    NewsItem,
    OutletKind,
    OutletSpec,
    builtin_environment,
)
from polarsim.oracle import PosteriorGrid, posterior
from polarsim.report import (
    Histogram,
    PolarizationMetrics,
    bin_samples,
    metrics_from_grid,
    metrics_from_histogram,
    mirror_tv,
    tv_distance,
)

__all__ = [
    "AgentParams",
    "BUILTIN_ENVIRONMENTS",
    "ChainResult",
    "Histogram",
    "InferenceConfig",
    "MediaEnvironment",
    "ModelParams",
    "NewsItem",
    "OutletKind",
    "OutletSpec",
    "PolarizationMetrics",
    "PosteriorGrid",
    "SampleSet",
    "bin_samples",
    "builtin_environment",
    "derive_chain_seed",
    "metrics_from_grid",
    "metrics_from_histogram",
    "mirror_tv",
    "posterior",
    "run_chain",
    "sample_posterior",
    "tv_distance",
]

__version__ = "0.1.0"
