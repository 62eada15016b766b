"""Golden determinism gate: see :mod:`repro.bench.harness`.

Timing lives in ``perfbench/``, which imports ``check_goldens`` from
``repro.bench.harness`` for its correctness gate.
"""
