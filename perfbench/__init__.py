"""perfbench: the repo's performance benchmark (see perfbench/README.md).

Nothing here is imported by ``src/repro``; the benchmark drives the system
from outside through its public entry points.
"""
