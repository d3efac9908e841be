"""Lattice-reduction-aided MIMO detection with switched CLLL candidate selection."""

from .errors import (
    BudgetExceededError,
    LrMimoError,
    SingularMatrixError,
    ValidationError,
)
from .linalg import gram_det, pseudoinverse, qr_decompose
from .reduction import (
    ReducedBasis,
    ReducedStack,
    ReductionParams,
    clll_reduce,
    clll_reduce_batch,
    is_clll_reduced,
    is_unimodular,
    odf,
)
from .kz import EnumerationBudget, is_kz_reduced, kz_reduce, shortest_vector
from .switched import (
    KlrResult,
    KlrStack,
    PermutationSet,
    klr_select,
    sample_permutations,
)
from .modem import ConstellationSpec, modulate
from .detectors import lr_detect, ml_detect, sic_detect
from .sim import (
    BerRecord,
    SimConfig,
    gen_channel,
    run_sweep,
    snr_config,
    write_records,
)

__all__ = [
    "BerRecord",
    "BudgetExceededError",
    "ConstellationSpec",
    "EnumerationBudget",
    "KlrResult",
    "KlrStack",
    "LrMimoError",
    "PermutationSet",
    "ReducedBasis",
    "ReducedStack",
    "ReductionParams",
    "SimConfig",
    "SingularMatrixError",
    "ValidationError",
    "clll_reduce",
    "clll_reduce_batch",
    "gen_channel",
    "gram_det",
    "is_clll_reduced",
    "is_kz_reduced",
    "is_unimodular",
    "klr_select",
    "kz_reduce",
    "lr_detect",
    "ml_detect",
    "modulate",
    "odf",
    "pseudoinverse",
    "qr_decompose",
    "run_sweep",
    "sample_permutations",
    "shortest_vector",
    "sic_detect",
    "snr_config",
    "write_records",
]
