"""Graph substrate: construction of social-graph DataFrames from action
logs, a collected CSR ``LocalGraph`` for the online engine, and
``fan_out``, which runs a driver kernel on Spark over broadcast data: the
graph for σ_max and the influencer index, the packed log for EM."""

from repro.graphlib.builder import (  # noqa: F401
    LocalGraph,
    degree_stats,
    fan_out,
    graph_from_trials,
    local_graph_from_network,
)
