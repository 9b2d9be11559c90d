"""Optimizers and norm-dynamics diagnostics for multilinear tensor-core models.

The package covers four pieces: a dense labelled-contraction engine
(``tensor``), declarative core models with analytic gradients (``model``),
optimizer steps including the sharpness-aware wrapper and deviation-aware
scaling (``optim``), and a verification harness for the norm-dynamics laws
those optimizers obey (``diagnostics``).  ``cli``/``experiments`` wrap it all
into config-driven, deterministic experiment runs.
"""

from .errors import (
    CoreflowError,
    DegenerateVariance,
    FormatError,
    LabelError,
    LengthMismatch,
    NumericalError,
    ParseError,
    ShapeMismatch,
    ValidationError,
    ZeroCoreNorm,
    ZeroGradient,
)
from .model import (
    LayeredModel,
    ReconstructionSpec,
    cp_spec,
    custom_spec,
    grad_cores,
    random_cores,
    reconstruct,
    tr_spec,
    tt_spec,
    tucker2_spec,
    tucker_spec,
)
from .objective import MaskedMse, NoisyTargetMse, r2_score
from .optim import (
    AdamConfig,
    DasConfig,
    OptimizerState,
    SamConfig,
    SgdConfig,
    das_step,
    gradient_fn,
    plain_step,
    run,
    sam_step,
)
from .tensor import (
    ContractionPlan,
    as_tensor,
    contract,
    frobenius_inner,
    frobenius_norm_sq,
    read_tensor,
    write_dtf1,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
