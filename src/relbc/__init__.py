"""Relativistic quantum bit-commitment simulator.

One-dimensional photon wavepackets, windowed three-outcome POVMs, and the
N-channel parity-bit commitment protocol with honest and adversarial
senders.
"""

__version__ = "0.1.0"

from .spectra import (
    GridBudgetError,
    KGrid,
    SampledState,
    SpectralAmplitude,
    disjoint_pair,
    gauss_legendre_grid,
    grid_for_amplitudes,
    make_amplitude,
    overlap,
    sample,
)
from .window import (
    WindowOperator,
    bilinear_forms,
    build_window,
    detect_prob,
    detect_probs,
)
from .oracle import DenseBudgetError, time_profile, window_spectrum
from .measurement import (
    PERP,
    OutcomeDist,
    Povm,
    effective_angle,
    mixed_density,
    outcome_dist,
    outcome_dists,
    sample_outcomes,
    state_povm,
    support_povm,
)
from .protocol import (
    ACCEPT,
    ABORT,
    INCONCLUSIVE,
    CommitConfig,
    CommitRecord,
    CommitTranscript,
    ProtocolContext,
    RunBudgetError,
    commit,
    guess_success,
    ident_prob_collective,
    ident_prob_individual,
    open_and_verify,
    run_many,
    run_protocol,
    storage_security_curve,
)
from .attacks import (
    HONEST,
    Strategy,
    cheat_detection_prob,
    early_binding_advantages,
    per_channel_flag_probs,
    required_bandwidth,
    transmitted_state,
)
