"""Near-pilotless SC-FDE receiver library and Monte-Carlo BER harness."""

__version__ = "0.1.0"

from .baseline_rx import (
    OfdmPilotConfig,
    estimate_channel,
    mrc_combine,
    ofdm_mrc_receive,
    ofdm_transmit,
)
from .blind_rx import (
    BlindConfig,
    BlindDecodeResult,
    ReceiverEstimate,
    alternating_minimization,
    ca_alpha,
    decode_frame,
    pilot_alpha,
    qq_alpha,
)
from .channel import (
    PowerDelayProfile,
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
from .frame import FrameConfig, build_frame, extract_data, random_payload
from .harness import BerPoint, SimulationConfig, residual_trace, run_trial, sweep
from .matrixkit import (
    circulant_eigenvalues,
    dft,
    idft,
    regularized_ls,
    top_left_singular_vector,
)

__all__ = [
    "OfdmPilotConfig",
    "estimate_channel",
    "mrc_combine",
    "ofdm_mrc_receive",
    "ofdm_transmit",
    "BlindConfig",
    "BlindDecodeResult",
    "ReceiverEstimate",
    "alternating_minimization",
    "ca_alpha",
    "decode_frame",
    "pilot_alpha",
    "qq_alpha",
    "PowerDelayProfile",
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
    "FrameConfig",
    "build_frame",
    "extract_data",
    "random_payload",
    "BerPoint",
    "SimulationConfig",
    "residual_trace",
    "run_trial",
    "sweep",
    "circulant_eigenvalues",
    "dft",
    "idft",
    "regularized_ls",
    "top_left_singular_vector",
]
