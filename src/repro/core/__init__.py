"""Core algorithms of the reproduction.

This subpackage implements the paper's primary contribution: exact
possible-worlds query evaluation over Markov-chain models of uncertain
trajectories, via augmented transition matrices.

Modules:
    state_space:   discrete state spaces (line, grid, graph).
    distribution:  probability distributions over states; Lemma 1 fusion.
    markov:        validated (sparse) Markov chains.
    observation:   (possibly uncertain) observations of an object.
    trajectory:    certain trajectories; exact possible-world enumeration.
    query:         PST query definitions (exists / for-all / k-times).
    matrices:      augmented-state layout; Section VII block matrices.
    object_based:  Section V-A / VI forward processing.
    query_based:   Section V-B backward processing.
    ktimes:        Section VII C(t)-matrix algorithm for PSTkQ.
    montecarlo:    Section VIII-A sampling baseline.
    naive:         temporal-independence competitor (Fig. 9(d)).
    engine:        a facade dispatching the above over a database.
    forecast:      occupancy forecasting (the paper's future-work analysis).
    intervals:     interval chains for cluster-level bounds (Section V-C).
    estimation:    learning chains from trajectory logs (Section IV premise).
    smoothing:     forward-backward posteriors and Viterbi MAP decoding.
    sequence:      Lahar-style regular-pattern queries (Section II).
    temporal:      first-passage distributions and expected visit counts.
    nearest_neighbor: snapshot probabilistic NN queries.
    errors:        exception hierarchy.
"""
