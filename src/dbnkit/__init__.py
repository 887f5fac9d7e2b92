"""Discrete-state temporal models: HMMs, coupled HMMs, and two-slice templates.

Exact inference (filtering, smoothing, prediction, likelihood), Viterbi
decoding, particle filtering, and parameter learning (counting MLE and EM),
with brute-force enumeration oracles for validating every exact algorithm.
"""

from .chmm import (
    ChmmPosterior,
    chmm_backward,
    chmm_em,
    chmm_forward,
    chmm_likelihood,
    chmm_smooth,
)
from .convert import flatten_chmm, flatten_obs, hmm_to_chmm, unroll_tbn
from .decoding import DecodeResult, viterbi
from .errors import (
    DbnError,
    DegenerateWeightsError,
    ImpossibleObservationError,
    ModelFormatError,
    ModelValidationError,
    ObservationError,
    SizeCapError,
)
from .inference import (
    BackwardResult,
    ForwardResult,
    ParticleFilterResult,
    PosteriorResult,
    backward,
    filter,
    forward,
    log_likelihood,
    particle_filter,
    predict_obs,
    predict_state,
    smooth,
)
from .intervals import AllenRelation, Interval, allen_relation
from .io import (
    format_obs,
    load_model,
    load_observations,
    parse_obs_line,
    save_model,
    save_observations,
)
from .learning import EmConfig, EmTrace, baum_welch, mle_complete
from .models import (
    ChmmModel,
    HmmModel,
    Tbn2Model,
    TbnVariable,
    check_distribution,
    nearest_neighbor_parents,
    validate_chmm,
    validate_hmm,
    validate_obs,
    validate_tbn2,
)
from .sampling import random_chmm, random_hmm, sample

__version__ = "0.1.0"

__all__ = [
    "AllenRelation",
    "BackwardResult",
    "ChmmModel",
    "ChmmPosterior",
    "DbnError",
    "DecodeResult",
    "DegenerateWeightsError",
    "EmConfig",
    "EmTrace",
    "ForwardResult",
    "HmmModel",
    "ImpossibleObservationError",
    "Interval",
    "ModelFormatError",
    "ModelValidationError",
    "ObservationError",
    "ParticleFilterResult",
    "PosteriorResult",
    "SizeCapError",
    "Tbn2Model",
    "TbnVariable",
    "allen_relation",
    "backward",
    "baum_welch",
    "check_distribution",
    "chmm_backward",
    "chmm_em",
    "chmm_forward",
    "chmm_likelihood",
    "chmm_smooth",
    "filter",
    "flatten_chmm",
    "flatten_obs",
    "format_obs",
    "forward",
    "hmm_to_chmm",
    "load_model",
    "load_observations",
    "log_likelihood",
    "mle_complete",
    "nearest_neighbor_parents",
    "parse_obs_line",
    "particle_filter",
    "predict_obs",
    "predict_state",
    "random_chmm",
    "random_hmm",
    "sample",
    "save_model",
    "save_observations",
    "smooth",
    "unroll_tbn",
    "validate_chmm",
    "validate_hmm",
    "validate_obs",
    "validate_tbn2",
    "viterbi",
]
