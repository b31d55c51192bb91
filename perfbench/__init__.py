"""End-to-end benchmark of the placement system: three seeded closed-loop
workloads (``select``, ``serve``, ``fleet``) with a traced per-layer run.
See ``perfbench/README.md``."""
