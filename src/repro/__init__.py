"""Reproduction of OCTOPUS (Fan et al., ICDE 2018): an online topic-aware
influence analysis system, built end-to-end on PySpark DataFrames.

Packages: ``graphlib`` (graph substrate), ``topics`` (keyword model + EM),
``influence`` (spread estimation, CELF, PB/NB bounds), ``core`` (the three
OCTOPUS analysis tools), ``experiments`` (table harnesses).
"""
