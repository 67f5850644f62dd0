"""MinRank instance and key pair generation.

The systematic ("optimized") generator samples the stacked matrix
L = [I_k | L'] row by row from the public seed and the rank-r matrix E from
the secret seed.  The witness x is E's first k row-order entries, so
M_0 = E - x L has those entries zero.  Keys hold the tails alone, L'
(k, mn - k) and M_0' (mn - k,), E's tail minus x L' from one product, so
E = [x | x L' + M_0']; only M_0' is stored next to the seed.
The secret key is two seeds: replaying the derivation from
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


class KeyMismatchError(ValueError):
    """A parameter set or public key passed to ``sign`` is not the secret key's own."""


@dataclass(eq=False)
class PublicKey:
    params: ParameterSet
    seed_pk: bytes
    m0_entries: np.ndarray          # M_0', the (mn - k)-entry tail of M_0
    _l_prime: np.ndarray = dc_field(default=None, repr=False)
    _operand: object = dc_field(default=None, repr=False)    # mpc.PkOperand.of fills it

    def __eq__(self, other):
        """Same parameter set and body bytes; the prepared state is not compared."""
        return isinstance(other, PublicKey) and (
            (self.params, self.body_bytes()) == (other.params, other.body_bytes()))

    def matrices(self):
        """(L', M_0'): the (k, mn - k) and (mn - k,) tails of L and M_0."""
        if self._l_prime is None:
            self._l_prime = _expand_l(self.params, self.seed_pk)
        return self._l_prime, self.m0_entries

    def body_bytes(self):
        """seed || packed M_0' (the size the tables report)."""
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
        # (L', M_0', x, E) from one replay of the key derivation, kept read-only
        if self._derived is None:
            derived = _derive(self.params, self.seed_pk, self.seed_sk)
            for arr in derived:
                arr.flags.writeable = False
            self._derived = derived
        return self._derived

    def public_key(self):
        """The matching public key, from the replayed key derivation.

        Its ``matrices()`` are the derivation's own read-only L' and M_0',
        so the key does not expand L' from the seed a second time.
        """
        l_prime, m0_tail = self._derivation()[:2]
        return PublicKey(params=self.params, seed_pk=self.seed_pk, m0_entries=m0_tail,
                         _l_prime=l_prime)

    def check_pair(self, ps, pk):
        """Raise ``KeyMismatchError`` unless ``ps`` and ``pk`` are this key's own.

        The set and the public seed are compared before the derivation is
        replayed, so those mismatches raise before any hashing.  A foreign
        M_0 under the key's own seed can only be found after the replay,
        which hashes.  A mismatched key would otherwise sign with a witness
        that fails the rank check.
        """
        if ps != self.params or pk.params != ps or pk.seed_pk != self.seed_pk or not (
                np.array_equal(pk.m0_entries, self._derivation()[1])):
            raise KeyMismatchError("parameter set or public key is not the secret key's own")

    def witness(self):
        """(x, E) from the replayed key derivation."""
        return self._derivation()[2:]

    def sign_inputs(self):
        """(x, beta): the witness and the annihilator of E's column space.

        beta is built on the first call and kept read-only; threads that race
        here may each build it, and one of them keeps it.
        """
        x, e_mat = self.witness()
        if self._beta is None:
            ps = self.params
            beta = annihilator(ps.ext, columns_to_ext(e_mat), ps.r)
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
    """L', the (k, mn - k) tail of the systematic L = [I_k | L'], from the public seed."""
    sampler = FieldSampler(ps.base, ps.suite.xof(X_KEYPUB, seed_pk))
    return sampler.matrix(ps.k, ps.m * ps.n - ps.k)


def _derive(ps, seed_pk, seed_sk):
    """Systematic derivation: returns (L', M_0', x, E), with x the first k
    entries of E and M_0' = E's tail - x L' from one (1, k) @ (k, mn - k) product."""
    base = ps.base
    l_prime = _expand_l(ps, seed_pk)
    sk_sampler = FieldSampler(base, ps.suite.xof(X_KEYSEC, seed_sk))
    e_mat = sample_rank_bounded(base, ps.m, ps.n, ps.r, sk_sampler)
    e_flat = e_mat.reshape(-1)
    x = e_flat[:ps.k].copy()
    m0_tail = base.sub(e_flat[ps.k:], base.matmul(x[None, :], l_prime)[0])
    return l_prime, m0_tail, x, e_mat


def keygen_optimized(ps, entropy):
    """Systematic key pair from an entropy string (deterministic)."""
    seeds = ps.suite.xof(X_KEYSEC, b"keygen", entropy).read(2 * ps.seed_bytes)
    sk = SecretKey(params=ps, seed_sk=seeds[ps.seed_bytes:],
                   seed_pk=seeds[:ps.seed_bytes])
    return sk.public_key(), sk
