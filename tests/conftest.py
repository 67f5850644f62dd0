"""Load mira before any test module imports numpy, so that the package's BLAS
thread cap (``MIRA_THREADS``, one thread by default) holds for the whole run."""

import mira  # noqa: F401
