"""Topic substrate: keyword/topic distributions, Bayes keyword→topic
inference (paper §II-B), and the EM learner for the topic-aware IC model
parameters (Barbieri et al. [2])."""

from repro.topics.keywords import (  # noqa: F401
    Vocabulary,
    gamma_from_keywords,
)
from repro.topics.em import em_fit_local, em_fit_spark  # noqa: F401
