"""Benchmark of the cubicunits per-member pipeline; see README.md here."""
