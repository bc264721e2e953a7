"""Name of the coverage backend, kept for the benchmark's job records.

The greedy loop's coverage counting lives in
:class:`hial.objective.FeatureBalls` (packed bitsets or one boolean sparse
product, whichever form it chose); nothing here is called by the program.
``selbench/job.py`` imports this module and records ``BACKEND`` with every
job.
"""

BACKEND = "python"
