"""hapsim: system-level simulator for HAPS cellular networks.

Compares a bent-pipe (amplify-and-forward repeater) payload against a
regenerative (onboard base station) payload in downlink and uplink
spectral efficiency, and evaluates the power-efficiency case for relaying
through the platform.
"""

from .antenna import BeamSet, ElementPattern, Panel, array_gain, element_gain, hex_array
from .architecture import (
    bp_effective_dl_eirp,
    cascade_noise_figure,
    repeater_noise_at_ue,
    thermal_noise_dbm,
)
from .channel import NtnTables, feeder_loss, fspl
from .config import ScenarioConfig, dump_config, load_config, preset_config, preset_names
from .consumption import (
    RelayAssessment,
    base_station_chain_efficiency,
    haps_relay_assessment,
    power_efficiency_factor,
    relay_advantage,
    repeater_chain_efficiency,
)
from .errors import HapsimError
from .geometry import FlightPattern, Point3, haps_position, link_geometry
from .simulation import (
    AggregateStats,
    CampaignResult,
    Drop,
    Terminal,
    aggregate_se,
    run_campaign,
    sinr_to_se,
)

__version__ = "0.1.0"
