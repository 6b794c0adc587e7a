"""streamconv: exact online convolution with future-contribution caching.

The package computes causal convolutions one sample at a time, with
three interchangeable streaming engines spanning the compute/memory
trade-off, generation drivers (from scratch and from a prompt with a
budget-sized prefill cache), a spectral filter bank with a small
multi-channel predictor, and a benchmark CLI.
"""

from .convolution import (
    TOLERANCE_SCALE,
    conv_causal_reference,
    conv_full,
    futurefill,
    split_check,
    transform_calls,
)
from .engines import (
    ENGINE_KINDS,
    ContinuousEngine,
    CostMeter,
    EpochedEngine,
    NaiveEngine,
    OnlineConvEngine,
    k_of_t,
    make_engine,
    optimal_epoch_length,
)
from .errors import (
    ConfigurationError,
    HorizonError,
    SequenceFormatError,
)
from .generate import (
    GenerationResult,
    PrefillCache,
    clamp_token,
    generate_prompted,
    generate_scratch,
    identity_token,
    oracle_prompted,
    prefill,
)
from .signal import Filter, Signal, as_filter, as_signal
from .spectral import (
    SpectralFilterBank,
    StuModel,
    hankel_entry,
    hankel_matrix,
    load_filter_bank,
    ogd_spectral_step,
    save_filter_bank,
    spectral_filters,
)

__version__ = "0.1.0"

__all__ = [
    "TOLERANCE_SCALE",
    "ENGINE_KINDS",
    "ConfigurationError",
    "ContinuousEngine",
    "CostMeter",
    "EpochedEngine",
    "Filter",
    "GenerationResult",
    "HorizonError",
    "NaiveEngine",
    "OnlineConvEngine",
    "PrefillCache",
    "SequenceFormatError",
    "Signal",
    "SpectralFilterBank",
    "StuModel",
    "as_filter",
    "as_signal",
    "clamp_token",
    "conv_causal_reference",
    "conv_full",
    "futurefill",
    "generate_prompted",
    "generate_scratch",
    "hankel_entry",
    "hankel_matrix",
    "identity_token",
    "k_of_t",
    "load_filter_bank",
    "make_engine",
    "ogd_spectral_step",
    "optimal_epoch_length",
    "oracle_prompted",
    "prefill",
    "save_filter_bank",
    "spectral_filters",
    "split_check",
    "transform_calls",
]
