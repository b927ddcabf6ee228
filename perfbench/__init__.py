"""The repository benchmark: seeded workloads, end-to-end metrics and a
per-layer ledger measured from outside the program (see README.md)."""
