"""Parameter sets: one registry row per MIRA set, read by every layer.

A ``ParameterSet`` is the published table row (q, m, n, k, r, N, tau, and
ell for the threshold variant) plus the knobs the cost estimator exposes
(eta, omega).  Keys, both signature schemes and the estimator all read the
same object, and its ``scheme`` is the one place a variant picks its
signature module; nothing checks a row when it is built, so the estimator can
price any override.  Validation happens where a row is used:
``minrank()`` checks the instance shape (1 <= r <= min(m, n),
1 <= k < mn) and ``sign_params()`` additionally checks what the signing
protocols need (eta = 1, additive N a power of two, threshold
ell + 1 <= n_parties, a supported field order q and security level lam).
Both return the set itself.

``n_parties`` is the operational party count.  For the threshold variant
the tabulated N equals q; Shamir sharing over GF(q) only admits q - 1
distinct nonzero evaluation points, so ``n_parties`` is min(N, q - 1)
(250), while size/cost formulas keep the tabulated N.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

from . import sign_additive, sign_threshold
from .fields import base_field, ext_field
from .hashing import HashSuite
from .sharing import ShareDims

ADDITIVE = "additive"
THRESHOLD = "threshold"


@lru_cache(maxsize=None)
def hash_suite(lam):
    return HashSuite(lam)


@dataclass(frozen=True)
class ParameterSet:
    """One registry row plus the knobs the cost estimator exposes."""
    variant: str
    level: int
    q: int
    m: int
    n: int
    k: int
    r: int
    N: int
    tau: int
    eta: int
    lam: int
    ell: int = 0
    omega: float = 2.81

    @property
    def base(self):
        return base_field(self.q)

    @property
    def ext(self):
        return ext_field(self.q, self.m)

    @property
    def seed_bytes(self):
        return self.lam // 8

    @property
    def suite(self):
        return hash_suite(self.lam)

    @property
    def share_dims(self):
        return ShareDims(k=self.k, r=self.r, m=self.m)

    @property
    def scheme(self):
        """The variant's signature module: ``sign``, ``verify``, ``encode``,
        ``decode`` and ``layout``, each taking this set first."""
        return sign_threshold if self.variant == THRESHOLD else sign_additive

    @property
    def n_parties(self):
        if self.variant == THRESHOLD:
            return min(self.N, self.q - 1)
        return self.N

    @property
    def depth(self):
        return (self.N - 1).bit_length()

    @property
    def opened_set(self):
        """Public set S of parties running the protocol: the first ell+1."""
        return tuple(range(1, self.ell + 2))

    def minrank(self):
        """This set, after checking that it describes a MinRank instance."""
        if not 1 <= self.r <= min(self.m, self.n):
            raise ValueError("rank bound out of range")
        if not 1 <= self.k < self.m * self.n:
            raise ValueError("k must be in [1, m*n)")
        return self

    def sign_params(self):
        """This set, after checking that the signing protocols can run it."""
        if self.eta != 1:
            raise NotImplementedError(
                "protocol arithmetic is implemented for eta = 1 (all shipped sets)")
        self.minrank()
        if self.variant == ADDITIVE:
            n = self.N
            if n < 2 or n & (n - 1):
                raise ValueError("additive variant needs N a power of two")
        elif self.ell + 1 > self.n_parties:
            raise ValueError("threshold needs ell + 1 <= N")
        base_field(self.q)      # ValueError for an unsupported field order
        hash_suite(self.lam)    # ValueError for an unsupported security parameter
        return self

    def with_overrides(self, **kw):
        return replace(self, **{k: v for k, v in kw.items() if v is not None})


_REGISTRY = {
    (ADDITIVE, 1): ParameterSet(ADDITIVE, 1, q=16, m=16, n=16, k=120, r=5,
                                N=256, tau=18, eta=1, lam=128),
    (ADDITIVE, 3): ParameterSet(ADDITIVE, 3, q=16, m=19, n=19, k=168, r=6,
                                N=256, tau=26, eta=1, lam=192),
    (ADDITIVE, 5): ParameterSet(ADDITIVE, 5, q=16, m=23, n=22, k=271, r=6,
                                N=256, tau=34, eta=1, lam=256),
    (THRESHOLD, 1): ParameterSet(THRESHOLD, 1, q=251, m=12, n=13, k=55, r=5,
                                 N=251, tau=7, eta=1, lam=128, ell=3),
    (THRESHOLD, 3): ParameterSet(THRESHOLD, 3, q=251, m=16, n=15, k=109, r=5,
                                 N=251, tau=10, eta=1, lam=192, ell=3),
    (THRESHOLD, 5): ParameterSet(THRESHOLD, 5, q=251, m=16, n=17, k=109, r=6,
                                 N=251, tau=14, eta=1, lam=256, ell=3),
}

PARAM_IDS = {
    (ADDITIVE, 1): 0x01, (ADDITIVE, 3): 0x03, (ADDITIVE, 5): 0x05,
    (THRESHOLD, 1): 0x11, (THRESHOLD, 3): 0x13, (THRESHOLD, 5): 0x15,
}
_ID_TO_KEY = {v: k for k, v in PARAM_IDS.items()}


def parameter_set(variant, level):
    try:
        return _REGISTRY[(variant, level)]
    except KeyError:
        raise ValueError(f"no parameter set for variant={variant!r} level={level}") from None


def param_id(variant, level):
    return PARAM_IDS[(variant, level)]


def from_param_id(pid):
    try:
        variant, level = _ID_TO_KEY[pid]
    except KeyError:
        raise ValueError(f"unknown parameter id byte 0x{pid:02x}") from None
    return _REGISTRY[(variant, level)]
