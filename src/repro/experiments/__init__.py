"""Experiments reproducing every table and figure in the paper."""

from .campus import (
    PAPER_LABS,
    PAPER_SERVERS,
    ServerSpec,
    build_gpunion_campus,
    build_manual_campus,
    campus_demand,
    total_gpus,
)
from .federation import (
    FEDERATION_SITES,
    RELAY_SITES,
    ByzantineResult,
    FederationResult,
    FederationSiteSpec,
    PartitionResult,
    RelayResult,
    build_federation,
    build_relay_federation,
    default_partition_schedule,
    run_byzantine_experiment,
    run_federation,
    run_partition_experiment,
    run_relay_experiment,
    site_demand,
)
from .fig2_utilization import Fig2Result, run_fig2
from .fig3_migration import Fig3Result, run_fig3
from .interactive import InteractiveResult, run_interactive
from .network_traffic import (
    TrafficResult,
    run_network_traffic,
    traffic_table,
)
from .scalability import (
    ScalabilityPoint,
    run_scalability,
    scalability_table,
)
from .training_impact import ImpactRow, impact_table, run_training_impact

__all__ = [
    "PAPER_SERVERS",
    "PAPER_LABS",
    "ServerSpec",
    "build_gpunion_campus",
    "build_manual_campus",
    "campus_demand",
    "total_gpus",
    "FEDERATION_SITES",
    "RELAY_SITES",
    "FederationResult",
    "FederationSiteSpec",
    "ByzantineResult",
    "PartitionResult",
    "RelayResult",
    "build_federation",
    "build_relay_federation",
    "default_partition_schedule",
    "run_federation",
    "run_byzantine_experiment",
    "run_partition_experiment",
    "run_relay_experiment",
    "site_demand",
    "Fig2Result",
    "run_fig2",
    "Fig3Result",
    "run_fig3",
    "InteractiveResult",
    "run_interactive",
    "ImpactRow",
    "run_training_impact",
    "impact_table",
    "TrafficResult",
    "run_network_traffic",
    "traffic_table",
    "ScalabilityPoint",
    "run_scalability",
    "scalability_table",
]
