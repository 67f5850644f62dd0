"""The batched rank-check computation run by every simulated party.

Each party holds shares of (x, beta, a, c), as one state row in the layout
of ``sharing.ShareDims``, and, given the public matrices and a challenge
(gamma_1..gamma_n, eps), computes its share of the broadcast values:

    E   = M_0 + sum_i x_i M_i          (M_0 added by offset parties only)
    e_j = extension element of column j of E
    w_i = sum_j gamma_j e_j^(q^i)      (i = 0..r-1),   z = -sum_j gamma_j e_j^(q^r)
    alpha = eps * w + a                (opened)
    v     = eps * z - <alpha, beta> - c

Everything from E to (w, z) is GF(q)-linear in the share and splits into
two GF(q) products: P = E @ G with the challenge's coefficient matrix G
(a per-signature left-hand factor), then P against one fixed map of the
field that applies X^u * (X^v)^(q^i) for every coefficient pair.  Parties
differ only in their state rows, and rows of any origin (plaintext runs,
additive leaves, hypercube main parties, Shamir parties) take the same
products.  ``ChallengeBatch`` stacks all rounds so a whole signature's
party computations run as a handful of batched GEMMs.
"""

import numpy as np

from .fields import Char2Field, Gf2Table
from .sharing import ShareDims


class PkOperand:
    """Public matrices prepared for fast share-of-E computation."""

    def __init__(self, base, l_rows, m0_flat):
        self.base = base
        self.l_rows = l_rows
        self.m0_flat = m0_flat
        self._gf2 = None

    @classmethod
    def of(cls, pk):
        cache = pk._cache
        if "operand" not in cache:
            l_rows, m0 = pk.matrices()
            cache["operand"] = cls(pk.params.base, l_rows, m0)
        return cache["operand"]

    def _gf2_table(self):
        # x @ L over GF(2^d) as a GF(2) map on bit planes: input bit (s, i)
        # contributes y^s * L[i, :], whose planes fill the matching rows
        if self._gf2 is None:
            base = self.base
            d = base.d
            k, mn = self.l_rows.shape
            mbits = np.empty((d * k, d * mn), np.uint8)
            for s in range(d):
                scaled = base.mul(np.uint8(1 << s), self.l_rows)
                for t in range(d):
                    mbits[s * k:(s + 1) * k, t * mn:(t + 1) * mn] = (scaled >> t) & 1
            self._gf2 = Gf2Table(mbits)
        return self._gf2

    def e_shares(self, x_shares, offsets):
        """(B, k) share rows -> (B, mn) shares of E, flattened row-major."""
        x_shares = np.atleast_2d(np.asarray(x_shares, np.uint8))
        if isinstance(self.base, Char2Field):
            d = self.base.d
            mn = self.l_rows.shape[1]
            op = self._gf2_table()
            xbits = np.concatenate([(x_shares >> s) & 1 for s in range(d)], axis=1)
            xbytes = np.packbits(xbits, axis=1)
            ybits = np.unpackbits(op.apply_packed(xbytes), axis=1)[:, :d * mn]
            e_flat = np.zeros((x_shares.shape[0], mn), np.uint8)
            for t in range(d):
                e_flat |= ybits[:, t * mn:(t + 1) * mn] << t
        else:
            e_flat = self.base.matmul(x_shares, self.l_rows)
        offsets = np.asarray(offsets, bool)
        if offsets.any():
            e_flat[offsets] = self.base.add(e_flat[offsets], self.m0_flat)
        return e_flat


def _rank_map(ext, r):
    """The fixed (m^2, (r+1)m) map P -> (w_0..w_r), GEMM-prepared, cached per r.

    Row (v, u), column (i, t) holds coefficient t of X^u * (X^v)^(q^i).
    """
    # threads racing here may each build the map; setdefault keeps one
    cache = ext.__dict__.setdefault("_rank_maps", {})
    if r not in cache:
        m = ext.m
        frobs = np.concatenate([ext.frob_matrix(i).T for i in range(r + 1)])
        mm = ext.mul_matrices(frobs).reshape(r + 1, m, m, m)    # [i, v, t, u]
        cmap = np.ascontiguousarray(mm.transpose(1, 3, 0, 2)).reshape(m * m, (r + 1) * m)
        cache.setdefault(r, ext.base.matmul3_prepare(cmap))
    return cache[r]


class ChallengeBatch:
    """All-round challenges, applied as a few stacked GEMMs.

    With gamma_j = sum_u G[j, u] X^u and e_j = sum_v E[v, j] X^v, Frobenius
    fixes GF(q), so w_i = sum_{v,u} P[v, u] X^u (X^v)^(q^i) with P = E @ G
    over GF(q).  Per signature only G (n, m per round) and the eps
    multiplication matrices are prepared; every party's P takes one stacked
    GEMM, and one product with the fixed map of ``_rank_map`` gives all of
    (w_0..w_{r-1}, -z).
    """

    def __init__(self, ext, r, challenges):
        self.ext = ext
        self.r = r
        self.tau = len(challenges)
        base = ext.base
        gam = np.stack([g for g, _ in challenges])            # (tau, n, m)
        eps = np.stack([e for _, e in challenges])            # (tau, m)
        self._gamma = base.matmul3_prepare(gam)
        meps = ext.mul_matrices(eps)                           # (tau, m, m)
        self._meps_t = base.matmul3_prepare(np.ascontiguousarray(meps.transpose(0, 2, 1)))
        self._map = _rank_map(ext, r)

    def _split(self, rows):
        """(x, beta, a, c) views of (tau, B, T) state rows, k from the width."""
        m = self.ext.m
        return ShareDims(rows.shape[-1] - (2 * self.r + 1) * m, self.r, m).split(rows)

    def broadcast_alpha(self, pk_op, rows, offsets):
        """Phase 1 for all rounds: (tau, B, T) state rows -> alpha, z shares.

        offsets is (tau, B) or (B,) broadcast over rounds.  Returns
        (alpha (tau, B, r, m), z (tau, B, m)).
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
        wz = base.matmul3(p.reshape(tau * b, m * m), self._map).reshape(tau, b, r + 1, m)
        z = ext.neg(wz[:, :, r])
        ew = base.matmul3(wz[:, :, :r].reshape(tau, b * r, m), self._meps_t)
        alpha = ext.add(ew.reshape(tau, b, r, m), a_shares)
        return alpha, z

    def broadcast_v(self, z_shares, rows, alphas):
        """Phase 2 for all rounds: z shares, (tau, B, T) state rows and opened alphas.

        alphas is (tau, B, r, m) or (tau, 1, r, m) when every party of a
        round uses the same opened value.  <alpha, beta> is one stacked GEMM
        of alpha's multiplication matrices against the beta blocks, which
        are the smaller operand to prepare.
        """
        ext = self.ext
        base = ext.base
        tau, b, m = np.asarray(z_shares).shape
        _, beta_shares, _, c_shares = self._split(np.asarray(rows, np.uint8))
        ez = base.matmul3(np.asarray(z_shares, np.uint8), self._meps_t)
        alphas = np.asarray(alphas, np.uint8)
        ba, r = alphas.shape[1:3]
        # row v, column (i, t): coefficient v of alpha_i * X^t
        amat = ext.mul_matrices(alphas.reshape(-1, m)).reshape(tau * ba, r, m, m)
        left = np.ascontiguousarray(amat.transpose(0, 2, 1, 3)).reshape(tau * ba, m, r * m)
        beta_cols = beta_shares.reshape(tau * ba, -1, r * m)
        ip = base.matmul3(left, base.matmul3_prepare(beta_cols.transpose(0, 2, 1)))
        ip = ip.transpose(0, 2, 1).reshape(tau, b, m)
        return ext.sub(ext.sub(ez, ip), c_shares)
