"""MIMO OTFS integrated sensing and communication simulator."""

from .allocation import (BinAllocation, diagonal_allocation, make_allocation,
                         rate_accounting, zero_force)
from .channel import complex_noise, radar_receive, tf_channel_grid
from .coarse import (CoarseEstimate, coarse_pipeline, delay_doppler_peaks,
                     estimate_angles, extract_angle_profiles, resolution_report)
from .config import SPEED_OF_LIGHT, SystemConfig, Target, substream
from .comm import (ber_frame, lmmse_equalize_tf, qpsk_demodulate,
                   qpsk_modulate, recover_and_demap, tf_block_channel,
                   transmit_chain)
from .crlb import crlb_closed_form, crlb_curve, crlb_report
from .transforms import ModifiedSfft, build_modified_sfft, isfft, sfft
from .experiments import run_scenario
from .scenario import (EstimatorSettings, Scenario, load_scenario,
                       scenario_from_dict)
from .virtual_array import (AxisSpec, NeighborhoodSpec, VirtualSnapshot,
                            averaged_ssr, build_virtual_snapshot,
                            default_neighborhood)

__version__ = "0.1.0"
