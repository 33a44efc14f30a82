"""Every representation of topic contributions against a reliable
group, rel_u included: what score and the readers of scores.npz derive
between them, the tests' reference for the (n, 8) xmap columns and the
group profiles they are scored against."""

from __future__ import annotations

import numpy as np

from topicaudit import uncertainty


def represent_all(tc, group_tc, H, cfg) -> tuple[np.ndarray, np.ndarray]:
    """(vectors, degenerate), (n, 8, M) and (n, 8) in REPRESENTATIONS
    order, of the rows tc against a group whose members have topic
    contributions group_tc: topic_representations at the group's evidence
    scale (1.0 for an empty group) and rel_u against the group's
    distributions, NaN for an empty group."""
    s = uncertainty.evidence_scale(group_tc) if len(group_tc) else 1.0
    vectors, degenerate = uncertainty.topic_representations(
        tc, s, H, cfg.k_related, cfg.temperature)
    rel_u, rel_u_degenerate = uncertainty.rel_u_vector(
        uncertainty.original(tc)[0], uncertainty.original(group_tc)[0],
        cfg.k_nn)
    return (np.concatenate([vectors, rel_u[:, None]], axis=1),
            np.concatenate([degenerate, rel_u_degenerate[:, None]], axis=1))
