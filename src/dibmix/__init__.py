"""Deterministic Information Bottleneck clustering for mixed-type data.

The pipeline: estimate each observation's conditional density over the
observed points with a product kernel (Gaussian on standardized continuous
variables, Aitchison-Aitken on categorical ones), then find a hard encoder
minimizing H(T) - beta * I(T, Y).  Baselines (PAM on Gower dissimilarity,
K-Prototypes), a calibrated synthetic generator, and a factorial benchmark
harness support method comparisons scored by the Adjusted Rand Index.
"""

__version__ = "0.1.0"

from .bandwidth import (
    choose_bandwidths,
    default_s,
    kernel_factor_variance_categorical,
    kernel_factor_variance_continuous,
    select_lambda,
)
from .baselines import (
    default_gamma,
    gower,
    kprototypes_chain,
    kprototypes_fit,
    pam_fit,
)
from .benchmark import (
    METHOD_NAMES,
    BenchmarkPlan,
    ResultRow,
    factor_means,
    method_medians,
    read_results_csv,
    run_benchmark,
    write_aggregates_csv,
    write_results_csv,
)
from .datagen import (
    BALANCE_EQUAL,
    BALANCE_IMBALANCED,
    GenSpec,
    LabeledDataset,
    categorical_masses,
    continuous_separation,
    generate,
)
from .dataset import (
    CATEGORICAL,
    CONTINUOUS,
    MixedDataset,
    VariableSchema,
    load_labels,
    read_csv,
    read_schema_file,
    standardize,
    write_csv,
)
from .dib import (
    BetaSweepResult,
    DibResult,
    Encoder,
    RestartSummary,
    beta_sweep,
    dib_fit,
    dib_fit_density,
    init_random,
    objective,
)
from .errors import (
    DegenerateSmoothingError,
    DibmixError,
    ParseError,
    SchemaError,
    SizeCapError,
    ZeroVarianceError,
)
from .infotheory import entropy, kl_divergence, mutual_information
from .kernels import (
    Bandwidths,
    ConditionalDensity,
    aitchison_aitken,
    estimate_conditional,
    gaussian_kernel,
)
from .metrics import ari, contingency
from .seeding import derive_seed

import types

# The public API is every name bound by the imports above: each global that
# is neither private nor a module (a submodule, or ``types`` itself).
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, types.ModuleType))
