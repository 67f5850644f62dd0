"""The batched rank-check computation run by every simulated party.

Each party holds shares of (x, beta, a, c), as one state row in the layout
of ``sharing.ShareDims``, and, given the public matrices and a challenge
(gamma_1..gamma_n, eps), computes its share of the broadcast values:

    E   = M_0 + sum_i x_i M_i          (M_0 added by offset parties only)
    e_j = extension element of column j of E
    w_i = sum_j gamma_j e_j^(q^i)      (i = 0..r-1),   z = -sum_j gamma_j e_j^(q^r)
    alpha = eps * w + a                (opened)
    v     = eps * z - <alpha, beta> - c

The public key is systematic and gives its matrices as (L', M_0'), the
tails of L (row i is M_i, row-major) and of M_0 (``keys``), so a share of E
is the x share followed by one product [x | o] @ [L'; M_0'], o the party's
0/1 offset and M_0' one more row: the same prepared GEMM in every base
field (``PkOperand``).  eps enters through gamma:
eps * w_i = sum_j (eps gamma_j) e_j^(q^i), so the challenge is prepared
once as eps * gamma and the rank check yields eps * w and eps * z without
a product of their own.
Everything from E to (eps w, eps z) is GF(q)-linear in the share and splits
into two GF(q) products: P = E @ G with the coefficient matrix G of
eps * gamma (a per-signature left-hand factor), then P against one fixed
map of the field that applies X^u * (X^v)^(q^i) for every coefficient
pair.  Parties differ only in their state rows, and rows of any origin
(plaintext runs, additive leaves, hypercube main parties, Shamir parties)
take the same products.  ``ChallengeBatch`` stacks all rounds so a whole
signature's party computations run as a handful of batched GEMMs: it takes
the challenges as ``hashing.derive_challenge1`` draws them, gamma of every
round as one (tau, n, m) array and eps as one (tau, m) array, and the
parties' state rows as (tau, B, T) arrays.
"""

import numpy as np

from .fields import Gf2Table
from .sharing import ShareDims


class PkOperand:
    """[L'; M_0'] of a public key's ``matrices()``, prepared once per key.

    The (mn - k)-entry M_0' is one more row under the (k, mn - k) L'.  The
    stack is the base field's ``matmul3_prepare`` operand: bit-sliced lane
    words over GF(2^d), float32 over GF(p).
    """

    def __init__(self, base, l_prime, m0_tail):
        self.base = base
        self.k = len(l_prime)
        self._l_m0 = base.matmul3_prepare(np.vstack([l_prime, m0_tail]))

    @classmethod
    def of(cls, pk):
        """The key's operand, built on first use and kept on the key."""
        if pk._operand is None:
            pk._operand = cls(pk.params.base, *pk.matrices())
        return pk._operand

    @staticmethod
    def _gf2_table(base, mat):
        """x @ mat over GF(2^d) as a ``Gf2Table`` on bit planes.

        Not on the signing path, where x @ L' is a ``matmul3``; perfbench's
        tracer still wraps this method by name, and it goes when that
        target table drops it.  Input bit (s, i) contributes y^s * mat[i, :],
        whose planes fill the matching rows.
        """
        d = base.d
        k, cols = mat.shape
        mbits = np.empty((d * k, d * cols), np.uint8)
        for s in range(d):
            scaled = base.mul(np.uint8(1 << s), mat)
            for t in range(d):
                mbits[s * k:(s + 1) * k, t * cols:(t + 1) * cols] = (scaled >> t) & 1
        return Gf2Table(mbits)

    def e_shares(self, x_shares, offsets):
        """(B, k) share rows and (B,) offsets -> (B, mn) shares of E, flattened row-major.

        E is x followed by [x | o] @ [L'; M_0'], the offsets o as a 0/1 column.
        """
        x_shares = np.atleast_2d(np.asarray(x_shares, np.uint8))
        xo = np.empty((len(x_shares), self.k + 1), np.uint8)
        xo[:, :self.k] = x_shares
        xo[:, self.k] = np.asarray(offsets, bool)
        return np.concatenate([x_shares, self.base.matmul3(xo, self._l_m0)], axis=1)


_RANK_MAPS = {}     # ``_rank_map``'s prepared maps, by (ext, r)


def _rank_map(ext, r):
    """The fixed (m^2, (r+1)m) map P -> (w_0..w_r), GEMM-prepared, cached per (ext, r).

    Row (v, u), column (i, t) holds coefficient t of X^u * (X^v)^(q^i).
    """
    # threads racing here may each build the map; setdefault keeps one
    key = (ext, r)
    if key not in _RANK_MAPS:
        m = ext.m
        frobs = np.concatenate([ext.frob_matrix(i).T for i in range(r + 1)])
        mm = ext.mul_matrices(frobs).reshape(r + 1, m, m, m)    # [i, v, t, u]
        cmap = np.ascontiguousarray(mm.transpose(1, 3, 0, 2)).reshape(m * m, (r + 1) * m)
        _RANK_MAPS.setdefault(key, ext.base.matmul3_prepare(cmap))
    return _RANK_MAPS[key]


class ChallengeBatch:
    """All-round challenges, applied as a few stacked GEMMs.

    With eps * gamma_j = sum_u G[j, u] X^u and e_j = sum_v E[v, j] X^v,
    Frobenius fixes GF(q), so eps * w_i = sum_{v,u} P[v, u] X^u (X^v)^(q^i)
    with P = E @ G over GF(q).  Per signature only G (n, m per round) is
    prepared, from one stacked product of gamma with the eps multiplication
    matrices; every party's P takes one stacked GEMM, and one product with
    the fixed map of ``_rank_map`` gives all of eps * (w_0..w_{r-1}, -z).
    ``gamma`` (tau, n, m) and ``eps`` (tau, m) hold every round's challenge,
    as ``derive_challenge1`` returns them.
    """

    def __init__(self, ext, r, gamma, eps):
        self.ext = ext
        self.r = r
        self.tau = len(eps)
        base = ext.base
        # row j of gamma times M(eps)^T is eps * gamma_j
        meps_t = np.ascontiguousarray(ext.mul_matrices(eps).transpose(0, 2, 1))
        self._gamma = base.matmul3_prepare(base.matmul3(gamma, base.matmul3_prepare(meps_t)))
        self._map = _rank_map(ext, r)

    def _split(self, rows):
        """(x, beta, a, c) views of (tau, B, T) state rows, k from the width."""
        m = self.ext.m
        return ShareDims(rows.shape[-1] - (2 * self.r + 1) * m, self.r, m).split(rows)

    def broadcast_alpha(self, pk_op, rows, offsets):
        """Phase 1 for all rounds: (tau, B, T) state rows -> alpha, eps * z shares.

        offsets is (tau, B) or (B,) broadcast over rounds.  Returns
        (alpha (tau, B, r, m), eps * z (tau, B, m)).
        """
        ext = self.ext
        base = ext.base
        m, r, tau = ext.m, self.r, self.tau
        rows = np.asarray(rows, np.uint8)
        b = rows.shape[1]
        x_shares, _, a_shares, _ = self._split(rows)
        offsets = np.broadcast_to(np.asarray(offsets, bool), (tau, b))
        e_flat = pk_op.e_shares(x_shares.reshape(tau * b, -1), offsets.reshape(-1))
        p = base.matmul3(e_flat.reshape(tau, b * m, -1), self._gamma)
        ewz = base.matmul3(p.reshape(tau * b, m * m), self._map).reshape(tau, b, r + 1, m)
        return ext.add(ewz[:, :, :r], a_shares), ext.neg(ewz[:, :, r])

    def broadcast_v(self, ez_shares, rows, alphas):
        """Phase 2 for all rounds: eps * z shares, (tau, B, T) state rows and opened alphas.

        alphas is (tau, B, r, m) or (tau, 1, r, m) when every party of a
        round uses the same opened value.  <alpha, beta> is one stacked GEMM
        of alpha's multiplication matrices against the beta blocks, which
        are the smaller operand to prepare.
        """
        ext = self.ext
        base = ext.base
        tau, b, m = np.asarray(ez_shares).shape
        _, beta_shares, _, c_shares = self._split(np.asarray(rows, np.uint8))
        alphas = np.asarray(alphas, np.uint8)
        ba, r = alphas.shape[1:3]
        # row v, column (i, t): coefficient v of alpha_i * X^t
        amat = ext.mul_matrices(alphas.reshape(-1, m)).reshape(tau * ba, r, m, m)
        left = np.ascontiguousarray(amat.transpose(0, 2, 1, 3)).reshape(tau * ba, m, r * m)
        beta_cols = beta_shares.reshape(tau * ba, -1, r * m)
        ip = base.matmul3(left, base.matmul3_prepare(beta_cols.transpose(0, 2, 1)))
        ip = ip.transpose(0, 2, 1).reshape(tau, b, m)
        return ext.sub(ext.sub(ez_shares, ip), c_shares)
