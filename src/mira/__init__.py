"""MinRank-based signatures: additive-hypercube and threshold variants.

Library entry points:

    params.parameter_set(variant, level)   registry lookup
    keys.keygen_optimized(ps, entropy)     key pair generation
    ps.scheme.sign / .verify / .decode     the set's variant: sign_additive or sign_threshold
    estimator.report(ps)                   the (key, value) rows `mira estimate` prints

The ``mira`` console script wraps these; see README.
"""

import os as _os

# cap in-process (BLAS) parallelism before numpy is loaded anywhere; BLAS
# threads gain nothing on these GEMMs and stall them when cores are busy
_threads = _os.environ.get("MIRA_THREADS") or "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _os.environ.setdefault(_var, _threads)

from . import estimator, fields, keys, matrices, mpc, params, qpoly, sharing, trees  # noqa: E402
from . import sign_additive, sign_threshold  # noqa: E402
from .params import ADDITIVE, THRESHOLD, parameter_set  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "ADDITIVE", "THRESHOLD", "parameter_set", "estimator", "fields", "keys",
    "matrices", "mpc", "params", "qpoly", "sharing", "sign_additive",
    "sign_threshold", "trees",
]
