"""System-level microservice-interaction simulation (uqsim role)."""

from .arrivals import TrafficShape, generate_arrivals
from .faults import FaultConfig, FaultInjector, FaultStats
from .fleet import (
    BALANCERS,
    FleetConfig,
    FleetResult,
    FleetShardTask,
    FleetSimulation,
    fleet_social_graph,
    merge_shards,
    run_fleet,
    run_fleet_shard,
)
from .graph import (
    GraphConfig,
    GraphNode,
    GraphSimulation,
    run_graph,
    social_network_graph,
)
from .queueing import (
    EndToEndConfig,
    EndToEndResult,
    Job,
    Station,
    max_throughput_kqps,
    run_end_to_end,
    saturation_sweep,
)
from .resilience import (
    CircuitBreaker,
    ResilienceConfig,
    ResilientEndToEnd,
    ResilientResult,
    run_resilient,
    system_energy_joules,
)
from .scheduler import SimulationLimitError, Simulator
from .seeding import stream_exp, stream_key, stream_rng, stream_u
from .zones import (
    ZoneConfig,
    zone_brownout_windows,
    zone_domain,
    zone_outage_windows,
)

__all__ = [
    "BALANCERS",
    "CircuitBreaker",
    "EndToEndConfig",
    "FaultConfig",
    "FaultInjector",
    "FaultStats",
    "FleetConfig",
    "FleetResult",
    "FleetShardTask",
    "FleetSimulation",
    "GraphConfig",
    "GraphNode",
    "GraphSimulation",
    "ResilienceConfig",
    "ResilientEndToEnd",
    "ResilientResult",
    "TrafficShape",
    "ZoneConfig",
    "fleet_social_graph",
    "generate_arrivals",
    "merge_shards",
    "run_fleet",
    "run_fleet_shard",
    "run_graph",
    "run_resilient",
    "social_network_graph",
    "stream_exp",
    "stream_key",
    "stream_rng",
    "stream_u",
    "system_energy_joules",
    "zone_brownout_windows",
    "zone_domain",
    "zone_outage_windows",
    "EndToEndResult",
    "Job",
    "SimulationLimitError",
    "Simulator",
    "Station",
    "max_throughput_kqps",
    "run_end_to_end",
    "saturation_sweep",
]
