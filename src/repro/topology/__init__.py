"""Topology construction helpers and preset networks.

* :mod:`repro.topology.graph` — validation of element graphs.
* :mod:`repro.topology.presets` — the Figure-2 network and other ready-made
  topologies used by the experiments.
"""

from repro.topology.graph import validate_network
from repro.topology.presets import (
    Figure2Network,
    SingleLinkNetwork,
    figure2_network,
    single_link_network,
)

__all__ = [
    "Figure2Network",
    "SingleLinkNetwork",
    "figure2_network",
    "single_link_network",
    "validate_network",
]
