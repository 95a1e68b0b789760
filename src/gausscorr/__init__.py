"""Gaussian-state correlation toolkit.

Covariance-matrix algebra, Gaussian discord with an independent measurement
oracle, Gaussian entanglement of formation, the marginal-entropy correlation
flow, the Gaussian-measurement optimality certificate, Duan-criterion
evaluation, and the entanglement-recovery protocols, plus Monte-Carlo
emulation of the measured-data pipeline.
"""

__version__ = "0.1.0"

from .core import (CovMatrix, StandardForm, SymplecticTransform, apply_symplectic,
                   cm_from_dict, cm_to_dict, partial_transpose, ppt_min_eig,
                   read_cm_file, reduce, seralian, standard_form, symplectic_form,
                   symplectic_spectrum, tensor, two_mode_symplectic_values,
                   validate_physical, williamson, write_cm_file)
from .channels import (InputSpec, attenuate, beamsplitter, db_to_variance, rotation,
                       squeezer, tmsv_cm)
from .correlations import (DiscordReport, GEoFResult, discord, discord_oracle,
                           entropy_f, geof, kw_audit, von_neumann_entropy)
from .optimality import (DecompositionParams, OptimalityCertificate, certify,
                         decomposition_params, vx_threshold)
from .scenarios import (DuanReport, KWFlowPoint, NoiseLoading, ScenarioConfig,
                        ScenarioState, SweepRow, attenuation_sweep,
                        build_split_state, correlation_flow,
                        duan_optimize, duan_value, optimal_demodulation,
                        recover_demodulate, recover_interfere, run_recovery,
                        measurement_optimality_note, MODULATION_SOURCE,
                        PHASE_NOISE_SOURCE)
from .sampling import (CMEstimate, SampleBatch, ScalarSummary,
                       cm_resampling_pipeline, electronic_demodulation,
                       error_monte_carlo, estimate_cm, matched_sample_size,
                       sample, write_batch_csv)
from .errors import (GausscorrError, InvalidInputError, NonPhysicalStateError,
                     NumericalError)
from . import reference
