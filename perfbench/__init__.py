"""Benchmark harness for the PARD simulator (see ``perfbench/README.md``).

Run ``python3 perfbench/run.py --workload <name>`` from the repository root.
"""
