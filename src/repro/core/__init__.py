"""Core algorithms of the reproduction.

This subpackage implements the paper's primary contribution: exact
possible-worlds query evaluation over Markov-chain models of uncertain
trajectories.  Every pass steps the chain's own sparse matrix through
the shared operators of :mod:`repro.exec.operators`; the augmented
state spaces of Sections V-A, VI and VII are layouts over it, never
built at runtime.  docs/ARCHITECTURE.md shows how the modules below
fit between the query service and the operator layer.

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
    batch:         batched multi-object kernels over one chain.
    plan_cache:    cross-query backward vectors and suffix-count blocks.
    planner:       cost-based choice of method and dispatch per group.
    pipeline:      staged filter--refinement execution of a plan.
    streaming:     standing sliding-window queries, ticked incrementally.
    engine:        the facade that plans and runs queries over a database.
    errors:        exception hierarchy.
"""
