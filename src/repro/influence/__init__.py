"""Influence-computation substrate: Monte-Carlo live-edge spread, reverse
reachable set (RIS) sampling, CELF lazy greedy, and the PB/NB upper bounds
of the best-effort framework."""

from repro.influence.celf import celf  # noqa: F401
from repro.influence.spread import mc_spread_local  # noqa: F401
from repro.influence.ris import greedy_max_cover, ris_im, rr_sets_local  # noqa: F401
