"""Every representation of topic contributions against a reliable
group, rel_u included: what score and the readers of scores.npz derive
between them, the tests' reference for the (n, 8) xmap columns and the
group profiles they are scored against."""

from __future__ import annotations

import numpy as np

from topicaudit import uncertainty


def represent_all(tc, group_tc, H, cfg) -> np.ndarray:
    """The (..., 8, M) vectors in REPRESENTATIONS order of the rows tc
    (..., M) against a group whose members have topic contributions
    group_tc: topic_representations at the group's evidence scale (1.0
    for an empty group) and rel_u against the group's distributions, NaN
    for an empty group.  cfg gives k_related, temperature and k_nn."""
    s = uncertainty.evidence_scale(group_tc) if len(group_tc) else 1.0
    vectors = uncertainty.topic_representations(tc, s, H, cfg.k_related,
                                                cfg.temperature)
    rel_u = uncertainty.rel_u_vector(uncertainty.original(tc),
                                     uncertainty.original(group_tc),
                                     cfg.k_nn)
    return np.concatenate([vectors, rel_u[..., None, :]], axis=-2)
