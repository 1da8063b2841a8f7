"""Outside-in benchmark of record for the IMP simulator and its sweep stack.

Run ``python3 perfbench/run.py --help``; see ``perfbench/README.md``.
"""
