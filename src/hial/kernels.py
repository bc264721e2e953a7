"""Name of the coverage backend, kept for the benchmark's job records.

The greedy loop's coverage counting is a boolean sparse product inside
:class:`hial.objective.CoverageState`; nothing here is called by the
program. ``selbench/job.py`` imports this module and records ``BACKEND``
with every job.
"""

BACKEND = "python"
