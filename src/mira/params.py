"""Parameter sets: MinRank instance shapes, scheme parameters, registry.

The registry rows mirror the published parameter tables.  For the threshold
variant the tabulated party count N equals q; Shamir sharing over GF(q)
only admits q - 1 distinct nonzero evaluation points, so the operational
party count is capped at q - 1 (250) while size/cost formulas keep the
tabulated N.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

from .fields import base_field, ext_field
from .hashing import HashSuite
from .sharing import ShareDims

ADDITIVE = "additive"
THRESHOLD = "threshold"


@dataclass(frozen=True)
class MinRankParams:
    q: int
    m: int
    n: int
    k: int
    r: int
    lam: int

    def __post_init__(self):
        if not 1 <= self.r <= min(self.m, self.n):
            raise ValueError("rank bound out of range")
        if not 1 <= self.k < self.m * self.n:
            raise ValueError("k must be in [1, m*n)")

    @property
    def base(self):
        return base_field(self.q)

    @property
    def ext(self):
        return ext_field(self.q, self.m)

    @property
    def seed_bytes(self):
        return self.lam // 8


class _SchemeParams:
    """What both signature variants derive from the MinRank instance."""

    @property
    def suite(self):
        return hash_suite(self.mr.lam)

    @property
    def share_dims(self):
        mr = self.mr
        return ShareDims(k=mr.k, r=mr.r, m=mr.m)


@dataclass(frozen=True)
class AdditiveParams(_SchemeParams):
    mr: MinRankParams
    n_parties: int
    tau: int

    def __post_init__(self):
        n = self.n_parties
        if n < 2 or n & (n - 1):
            raise ValueError("additive variant needs N a power of two")

    @property
    def depth(self):
        return (self.n_parties - 1).bit_length()


@dataclass(frozen=True)
class ThresholdParams(_SchemeParams):
    mr: MinRankParams
    n_parties: int
    ell: int
    tau: int

    def __post_init__(self):
        if self.n_parties > self.mr.q - 1:
            raise ValueError("threshold variant needs N <= q - 1")
        if self.ell + 1 > self.n_parties:
            raise ValueError("threshold needs ell + 1 <= N")

    @property
    def opened_set(self):
        """Public set S of parties running the protocol: the first ell+1."""
        return tuple(range(1, self.ell + 2))


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
    def depth(self):
        return (self.N - 1).bit_length()

    def minrank(self):
        return MinRankParams(q=self.q, m=self.m, n=self.n, k=self.k,
                             r=self.r, lam=self.lam)

    def sign_params(self):
        if self.eta != 1:
            raise NotImplementedError(
                "protocol arithmetic is implemented for eta = 1 (all shipped sets)")
        mr = self.minrank()
        if self.variant == ADDITIVE:
            return AdditiveParams(mr=mr, n_parties=self.N, tau=self.tau)
        n_op = min(self.N, self.q - 1)
        return ThresholdParams(mr=mr, n_parties=n_op, ell=self.ell, tau=self.tau)

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


def all_parameter_sets():
    return list(_REGISTRY.values())


def param_id(variant, level):
    return PARAM_IDS[(variant, level)]


def from_param_id(pid):
    try:
        variant, level = _ID_TO_KEY[pid]
    except KeyError:
        raise ValueError(f"unknown parameter id byte 0x{pid:02x}") from None
    return _REGISTRY[(variant, level)]
