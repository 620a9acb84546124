"""The repo's benchmark: five workloads measured from outside the program.

``python perf/run.py`` is the entry point; see ``perf/README.md``.
"""
