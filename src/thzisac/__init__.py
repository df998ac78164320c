"""Terahertz joint sensing/communication simulator.

Dynamic-subarray hybrid precoding with scanning sensing beams, subspace angle
estimation, two-phase delay-Doppler estimation, and an exact received-signal
operator covering inter-symbol and inter-carrier interference.
"""

from .channel import (CommChannel, CommPath, ModelMismatchWarning, SensingScene,
                      SensingTarget, SPEED_OF_LIGHT, awgn, delay_of_range,
                      doppler_of_velocity, sample_comm_channel)
from .geometry import (AngularWindow, SensingCodebook, UpaGeometry, dft_codebook,
                       sensing_window, slot_for_angle, steering_upa)
from .isi_ici import (ExtendedTxPair, apply_channel_operator, cp_limited_range,
                      isi_ici_rx, successive_cancellation, tackled_estimate)
from .precoding import (CombinedReceiver, CommTarget, PrecoderSet, PrecodingTargets,
                        SwitchMatrix, combined_receiver, comm_design,
                        default_switch_pattern, optimal_fully_digital,
                        optimal_sensing_precoder, sca_hybrid_precoding,
                        spectral_efficiency, transmit_beampattern,
                        vec_hybrid_precoding)
from .sensing_rx import (DelayDopplerEstimate, MusicResult, ObservationBlock,
                         ReceiveCombiner, gss_refine, music_spectrum,
                         receive_combiner, sdft_coarse, simulate_rx)
from .waveform import FrameConfig, generate_symbols, ofdm_demodulate, ofdm_modulate

__version__ = "0.1.0"
