"""MinRank instance and key pair generation.

The systematic ("optimized") generator samples the stacked matrix
L = [I_k | L'] row by row from the public seed, forces the first k row-order
entries of M_0 to zero and stores only the (mn - k)-entry tail next to the
seed.  The secret key is two seeds: replaying the derivation from
(seed_sk, seed_pk) recovers the witness x and the low-rank E, so nothing
else needs to be stored.  Reported secret key size counts the secret seed
alone, matching the public tables.
"""

from dataclasses import dataclass, field as dc_field

import numpy as np

from .hashing import X_KEYPUB, X_KEYSEC, FieldSampler
from .matrices import columns_to_ext, rank, sample_rank_bounded
from .params import MinRankParams, param_id, from_param_id
from .qpoly import annihilator


class KeyFormatError(ValueError):
    pass


@dataclass
class PublicKey:
    params: MinRankParams
    seed_pk: bytes
    m0_entries: np.ndarray          # tail (mn - k); the first k entries are zero
    _cache: dict = dc_field(default_factory=dict, repr=False)

    def matrices(self):
        """(l_rows, m0_flat): L as (k, mn) with M_i = row i row-major reshaped."""
        if "mats" not in self._cache:
            mr = self.params
            m0 = np.zeros(mr.m * mr.n, np.uint8)
            m0[mr.k:] = self.m0_entries
            self._cache["mats"] = (_expand_l(mr, self.seed_pk), m0)
        return self._cache["mats"]

    def body_bytes(self):
        """seed || packed M_0 entries (the size the tables report)."""
        return self.seed_pk + self.params.base.pack(self.m0_entries)

    def to_bytes(self, variant, level):
        return bytes([param_id(variant, level)]) + self.body_bytes()

    @classmethod
    def from_bytes(cls, data):
        ps, body = _split_id(data)
        mr = ps.minrank()
        tail_count = mr.m * mr.n - mr.k
        need = mr.seed_bytes + mr.base.packed_size(tail_count)
        if len(body) != need:
            raise KeyFormatError("public key length mismatch")
        seed = body[:mr.seed_bytes]
        tail = mr.base.unpack(body[mr.seed_bytes:], tail_count)
        return cls(params=mr, seed_pk=seed, m0_entries=tail), ps


@dataclass
class SecretKey:
    params: MinRankParams
    seed_sk: bytes
    seed_pk: bytes

    def witness(self):
        """Recompute (x, E) by replaying the key derivation."""
        _, _, x, e_mat = _derive(self.params, self.seed_pk, self.seed_sk)
        return x, e_mat

    def sign_inputs(self):
        """(x, beta): the witness and the annihilator of E's column space."""
        x, e_mat = self.witness()
        mr = self.params
        return x, annihilator(mr.ext, columns_to_ext(e_mat), mr.r).beta

    def to_bytes(self, variant, level):
        return bytes([param_id(variant, level)]) + self.seed_sk + self.seed_pk

    @classmethod
    def from_bytes(cls, data):
        ps, body = _split_id(data)
        mr = ps.minrank()
        if len(body) != 2 * mr.seed_bytes:
            raise KeyFormatError("secret key length mismatch")
        return cls(params=mr, seed_sk=body[:mr.seed_bytes],
                   seed_pk=body[mr.seed_bytes:]), ps


def _split_id(data):
    if len(data) < 1:
        raise KeyFormatError("empty key file")
    try:
        ps = from_param_id(data[0])
    except ValueError as exc:
        raise KeyFormatError(str(exc)) from None
    return ps, data[1:]


def _expand_l(mr, seed_pk):
    """Systematic L = [I_k | L'] with L' sampled from the public seed."""
    mn = mr.m * mr.n
    sampler = FieldSampler(mr.base, _pk_stream(mr, seed_pk))
    l_rows = np.zeros((mr.k, mn), np.uint8)
    l_rows[:, :mr.k] = np.eye(mr.k, dtype=np.uint8)
    l_rows[:, mr.k:] = sampler.matrix(mr.k, mn - mr.k)
    return l_rows


def _pk_stream(mr, seed_pk):
    from .params import hash_suite
    return hash_suite(mr.lam).xof(X_KEYPUB, seed_pk)


def _sk_stream(mr, seed_sk):
    from .params import hash_suite
    return hash_suite(mr.lam).xof(X_KEYSEC, seed_sk)


def _derive(mr, seed_pk, seed_sk):
    """Systematic derivation: returns (L, m0_flat, x, E)."""
    base = mr.base
    l_rows = _expand_l(mr, seed_pk)
    sk_sampler = FieldSampler(base, _sk_stream(mr, seed_sk))
    e_mat = sample_rank_bounded(base, mr.m, mr.n, mr.r, sk_sampler)
    beta = sk_sampler.take(mr.k)
    f_flat = base.sub(e_mat.reshape(-1), base.matmul(beta[None, :], l_rows)[0])
    f_head = f_flat[:mr.k]
    m0_flat = base.sub(f_flat, base.matmul(f_head[None, :], l_rows)[0])
    assert not m0_flat[:mr.k].any()
    x = base.add(beta, f_head)
    return l_rows, m0_flat, x, e_mat


def keygen_optimized(mr, entropy):
    """Systematic key pair from an entropy string (deterministic)."""
    from .params import hash_suite
    seeds = hash_suite(mr.lam).xof(X_KEYSEC, b"keygen", entropy).read(2 * mr.seed_bytes)
    seed_pk, seed_sk = seeds[:mr.seed_bytes], seeds[mr.seed_bytes:]
    _, m0_flat, x, _ = _derive(mr, seed_pk, seed_sk)
    pk = PublicKey(params=mr, seed_pk=seed_pk, m0_entries=m0_flat[mr.k:].copy())
    sk = SecretKey(params=mr, seed_sk=seed_sk, seed_pk=seed_pk)
    return pk, sk


def validate_witness(pk, x):
    """Accept iff rank(M_0 + sum x_i M_i) <= r."""
    mr = pk.params
    x = np.asarray(x, np.uint8)
    if x.shape != (mr.k,):
        raise ValueError("witness length mismatch")
    l_rows, m0_flat = pk.matrices()
    e_flat = mr.base.add(m0_flat, mr.base.matmul(x[None, :], l_rows)[0])
    return rank(mr.base, e_flat.reshape(mr.m, mr.n)) <= mr.r


def witness_matrix(pk, x):
    """E = M_0 + sum x_i M_i as an (m, n) matrix."""
    mr = pk.params
    l_rows, m0_flat = pk.matrices()
    e_flat = mr.base.add(m0_flat, mr.base.matmul(np.asarray(x, np.uint8)[None, :], l_rows)[0])
    return e_flat.reshape(mr.m, mr.n)
