"""Fixed inputs and knobs of the benchmark's workloads (see NOTES.md)."""

#: The paper's three scenarios plus the campus network, fixed on purpose.
INPUTS = ("scenario1", "scenario2", "scenario3", "campus")

#: Every workload uses at most this many worker processes.
WORKERS = 2
