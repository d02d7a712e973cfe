"""Repository benchmark: fig5-instrument, fig6-run and serve-mix.

Entry point: ``python3 perfbench/run.py --workload NAME --seed N
--seconds S --trace 0|1``.  See ``perfbench/README.md``.
"""
