"""Near-pilotless SC-FDE receiver library and Monte-Carlo BER harness."""

__version__ = "0.1.0"

from .baseline_rx import OfdmPilotConfig, estimate_channel, ofdm_mrc_receive, ofdm_time_signal, ofdm_transmit
from .blind_rx import (
    BlindConfig,
    BlindDecodeResult,
    ReceiverEstimate,
    TimeEstimate,
    alternating_minimization,
    centroids_adjust,
    decode_frame,
    mrc_combine,
    pilot_derotate,
    qq_correct,
    to_time_domain,
)
from .channel import (
    ChannelRealization,
    PowerDelayProfile,
    apply_channel,
    convolve_channel,
    draw_channel,
    snr_db_to_noise_variance,
)
from .constellation import (
    Constellation,
    get_constellation,
    qam_demodulate,
    qam_modulate,
)
from .errors import DegenerateBinError, PilotLossError, ReceiverError
from .frame import Frame, FrameConfig, build_frame, extract_data, random_payload
from .harness import BerPoint, SimulationConfig, residual_trace, run_trial, sweep
from .matrixkit import (
    DftOperator,
    circulant_eigenvalues,
    regularized_ls,
    top_left_singular_vector,
)

__all__ = [
    "OfdmPilotConfig",
    "estimate_channel",
    "ofdm_mrc_receive",
    "ofdm_time_signal",
    "ofdm_transmit",
    "BlindConfig",
    "BlindDecodeResult",
    "ReceiverEstimate",
    "TimeEstimate",
    "alternating_minimization",
    "centroids_adjust",
    "decode_frame",
    "mrc_combine",
    "pilot_derotate",
    "qq_correct",
    "to_time_domain",
    "ChannelRealization",
    "PowerDelayProfile",
    "apply_channel",
    "convolve_channel",
    "draw_channel",
    "snr_db_to_noise_variance",
    "Constellation",
    "get_constellation",
    "qam_demodulate",
    "qam_modulate",
    "DegenerateBinError",
    "PilotLossError",
    "ReceiverError",
    "Frame",
    "FrameConfig",
    "build_frame",
    "extract_data",
    "random_payload",
    "BerPoint",
    "SimulationConfig",
    "residual_trace",
    "run_trial",
    "sweep",
    "DftOperator",
    "circulant_eigenvalues",
    "regularized_ls",
    "top_left_singular_vector",
]
