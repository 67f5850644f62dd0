"""MinRank instance and key pair generation.

The systematic ("optimized") generator samples the stacked matrix
L = [I_k | L'] row by row from the public seed, forces the first k row-order
entries of M_0 to zero and stores only the (mn - k)-entry tail next to the
seed.  The secret key is two seeds: replaying the derivation from
(seed_sk, seed_pk) recovers the witness x and the low-rank E, so nothing
else needs to be stored; a ``SecretKey`` replays it once and keeps the
result for its public key and every signature.  The signer's other witness
part, the annihilator beta of E's column space, also depends on the key
alone: the first signature builds it and the key keeps it for the rest.
Neither key generation nor ``public_key()`` builds beta.  Reported secret
key size counts the secret seed alone, matching the public tables.

Both keys carry their ``ParameterSet``: ``to_bytes`` writes its one-byte id
in front of the body and ``from_bytes`` reads the set back from that byte.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .hashing import X_KEYPUB, X_KEYSEC, FieldSampler
from .matrices import columns_to_ext, sample_rank_bounded
from .params import ParameterSet, param_id, from_param_id
from .qpoly import annihilator


class KeyFormatError(ValueError):
    pass


@dataclass
class PublicKey:
    params: ParameterSet
    seed_pk: bytes
    m0_entries: np.ndarray          # tail (mn - k); the first k entries are zero
    _cache: dict = dc_field(default_factory=dict, repr=False)

    def matrices(self):
        """(l_rows, m0_flat): L as (k, mn) with M_i = row i row-major reshaped."""
        if "mats" not in self._cache:
            ps = self.params
            m0 = np.zeros(ps.m * ps.n, np.uint8)
            m0[ps.k:] = self.m0_entries
            self._cache["mats"] = (_expand_l(ps, self.seed_pk), m0)
        return self._cache["mats"]

    def body_bytes(self):
        """seed || packed M_0 entries (the size the tables report)."""
        return self.seed_pk + self.params.base.pack(self.m0_entries)

    def to_bytes(self):
        return _id_byte(self.params) + self.body_bytes()

    @classmethod
    def from_bytes(cls, data):
        ps, body = _split_id(data)
        tail_count = ps.m * ps.n - ps.k
        need = ps.seed_bytes + ps.base.packed_size(tail_count)
        if len(body) != need:
            raise KeyFormatError("public key length mismatch")
        seed = body[:ps.seed_bytes]
        try:
            tail = ps.base.unpack(body[ps.seed_bytes:], tail_count)
        except ValueError as exc:
            raise KeyFormatError(str(exc)) from None
        return cls(params=ps, seed_pk=seed, m0_entries=tail)


@dataclass
class SecretKey:
    params: ParameterSet
    seed_sk: bytes
    seed_pk: bytes
    _derived: tuple = dc_field(default=None, repr=False, compare=False)
    _beta: np.ndarray = dc_field(default=None, repr=False, compare=False)

    def _derivation(self):
        # (m0_flat, x, E) from one replay of the key derivation, kept read-only
        if self._derived is None:
            derived = _derive(self.params, self.seed_pk, self.seed_sk)[1:]
            for arr in derived:
                arr.flags.writeable = False
            self._derived = derived
        return self._derived

    def public_key(self):
        """The matching public key, from the replayed key derivation."""
        ps = self.params
        m0_flat = self._derivation()[0]
        return PublicKey(params=ps, seed_pk=self.seed_pk,
                         m0_entries=m0_flat[ps.k:].copy())

    def witness(self):
        """(x, E) from the replayed key derivation."""
        return self._derivation()[1:]

    def sign_inputs(self):
        """(x, beta): the witness and the annihilator of E's column space.

        beta is built on the first call and kept read-only; threads that race
        here may each build it, and one of them keeps it.
        """
        x, e_mat = self.witness()
        if self._beta is None:
            ps = self.params
            beta = annihilator(ps.ext, columns_to_ext(e_mat), ps.r).beta
            beta.flags.writeable = False
            self._beta = beta
        return x, self._beta

    def to_bytes(self):
        return _id_byte(self.params) + self.seed_sk + self.seed_pk

    @classmethod
    def from_bytes(cls, data):
        ps, body = _split_id(data)
        if len(body) != 2 * ps.seed_bytes:
            raise KeyFormatError("secret key length mismatch")
        return cls(params=ps, seed_sk=body[:ps.seed_bytes],
                   seed_pk=body[ps.seed_bytes:])


def _id_byte(ps):
    return bytes([param_id(ps.variant, ps.level)])


def _split_id(data):
    if len(data) < 1:
        raise KeyFormatError("empty key file")
    try:
        ps = from_param_id(data[0])
    except ValueError as exc:
        raise KeyFormatError(str(exc)) from None
    return ps, data[1:]


def _expand_l(ps, seed_pk):
    """Systematic L = [I_k | L'] with L' sampled from the public seed."""
    mn = ps.m * ps.n
    sampler = FieldSampler(ps.base, ps.suite.xof(X_KEYPUB, seed_pk))
    l_rows = np.zeros((ps.k, mn), np.uint8)
    l_rows[:, :ps.k] = np.eye(ps.k, dtype=np.uint8)
    l_rows[:, ps.k:] = sampler.matrix(ps.k, mn - ps.k)
    return l_rows


def _derive(ps, seed_pk, seed_sk):
    """Systematic derivation: returns (L, m0_flat, x, E)."""
    base = ps.base
    l_rows = _expand_l(ps, seed_pk)
    sk_sampler = FieldSampler(base, ps.suite.xof(X_KEYSEC, seed_sk))
    e_mat = sample_rank_bounded(base, ps.m, ps.n, ps.r, sk_sampler)
    beta = sk_sampler.take(ps.k)
    f_flat = base.sub(e_mat.reshape(-1), base.matmul(beta[None, :], l_rows)[0])
    f_head = f_flat[:ps.k]
    m0_flat = base.sub(f_flat, base.matmul(f_head[None, :], l_rows)[0])
    assert not m0_flat[:ps.k].any()
    x = base.add(beta, f_head)
    return l_rows, m0_flat, x, e_mat


def keygen_optimized(ps, entropy):
    """Systematic key pair from an entropy string (deterministic)."""
    seeds = ps.suite.xof(X_KEYSEC, b"keygen", entropy).read(2 * ps.seed_bytes)
    sk = SecretKey(params=ps, seed_sk=seeds[ps.seed_bytes:],
                   seed_pk=seeds[:ps.seed_bytes])
    return sk.public_key(), sk
