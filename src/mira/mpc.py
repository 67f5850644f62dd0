"""The batched rank-check computation run by every simulated party.

Each party holds shares of (x, beta, a, c) and, given the public matrices
and a challenge (gamma_1..gamma_n, eps), computes its share of the
broadcast values:

    E   = M_0 + sum_i x_i M_i          (M_0 added by offset parties only)
    e_j = extension element of column j of E
    w_i = sum_j gamma_j e_j^(q^i)      (i = 0..r-1),   z = -sum_j gamma_j e_j^(q^r)
    alpha = eps * w + a                (opened)
    v     = eps * z - <alpha, beta> - c

Everything from E to (w, z) is GF(q)-linear in the share, so the chain
collapses into one matrix W per challenge: stacking Mul(gamma_j) @ Frob^i
blocks gives W with W @ vec(columns) = (w_0..w_{r-1}, -z).  Parties then
differ only in their input rows, and share batches of any origin (additive
leaves, hypercube main parties, Shamir parties) take the same two matrix
products.  ``ChallengeBatch`` stacks the W matrices of all rounds so a
whole signature's party computations run as a handful of batched GEMMs.
"""

import numpy as np

from .fields import Char2Field, Gf2Table


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
                scaled = base.mul(np.uint8(base.pow(2, s) if s else 1), self.l_rows)
                for t in range(d):
                    mbits[s * k:(s + 1) * k, t * mn:(t + 1) * mn] = (scaled >> t) & 1
            self._gf2 = Gf2Table(mbits)
        return self._gf2

    def e_shares(self, x_shares, offsets):
        """(B, k) share rows -> (B, mn) shares of E, flattened row-major."""
        x_shares = np.atleast_2d(np.asarray(x_shares, np.uint8))
        if isinstance(self.base, Char2Field):
            d = self.base.d
            k, mn = self.l_rows.shape
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


def _frob_ops(ext, r):
    """Stacked (r+1, m, m) transposed Frobenius matrices, GEMM-prepared."""
    cache = ext.__dict__.setdefault("_frob_ops_cache", {})
    if r not in cache:
        f3 = np.stack([np.ascontiguousarray(ext.frob_matrix(i).T)
                       for i in range(r + 1)])
        cache[r] = ext.base.matmul3_prepare(f3)
    return cache[r]


class ChallengeBatch:
    """All-round challenge operands, applied as a few stacked GEMMs.

    gamma_j * e_j^(q^i) equals (gamma_j^(q^(m-i)) * e_j)^(q^i), so the
    Frobenius powers move onto the challenge coefficients: parties contract
    their raw E columns with the multiplication matrices of the twisted
    gammas (one GEMM over all rounds and parties) and apply the r+1 fixed
    Frobenius maps to the short results afterwards.
    """

    def __init__(self, ext, r, challenges):
        self.ext = ext
        self.r = r
        self.tau = len(challenges)
        base = ext.base
        m = ext.m
        n = challenges[0][0].shape[0]
        self.n = n
        gam = np.stack([g for g, _ in challenges])            # (tau, n, m)
        eps = np.stack([e for _, e in challenges])            # (tau, m)
        twisted = np.empty((self.tau, r + 1, n, m), np.uint8)
        flat_gam = gam.reshape(self.tau * n, m)
        for i in range(r + 1):
            tw = ext.frob(flat_gam, (m - i) % m)
            twisted[:, i] = tw.reshape(self.tau, n, m)
        mg = ext.mul_matrices(twisted.transpose(0, 2, 1, 3).reshape(-1, m))
        # operand[(e), (j, v), (i, t)] = coeffs(twisted_gamma * X^v)[t]
        op = (mg.reshape(self.tau, n, r + 1, m, m)
                .transpose(0, 1, 4, 2, 3)
                .reshape(self.tau, n * m, (r + 1) * m))
        self._contract = base.matmul3_prepare(np.ascontiguousarray(op))
        meps = ext.mul_matrices(eps)                           # (tau, m, m)
        self._meps_t = base.matmul3_prepare(np.ascontiguousarray(meps.transpose(0, 2, 1)))

    def broadcast_alpha(self, pk_op, x_shares, a_shares, offsets):
        """Phase 1 for all rounds: (tau, B, k) inputs -> alpha, z shares.

        offsets is (tau, B) or (B,) broadcast over rounds.  Returns
        (alpha (tau, B, r, m), z (tau, B, m)).
        """
        ext = self.ext
        base = ext.base
        m, r, tau = ext.m, self.r, self.tau
        x_shares = np.asarray(x_shares, np.uint8)
        b = x_shares.shape[1]
        offsets = np.broadcast_to(np.asarray(offsets, bool), (tau, b))
        e_flat = pk_op.e_shares(x_shares.reshape(tau * b, -1), offsets.reshape(-1))
        n = e_flat.shape[1] // m
        cols = np.ascontiguousarray(
            e_flat.reshape(tau, b, m, n).transpose(0, 1, 3, 2)).reshape(tau, b, n * m)
        sums = base.matmul3(cols, self._contract)              # (tau, B, (r+1)m)
        sums = np.ascontiguousarray(
            sums.reshape(tau, b, r + 1, m).transpose(2, 0, 1, 3)).reshape(r + 1, tau * b, m)
        pows = base.matmul3(sums, _frob_ops(ext, r))           # (r+1, tau*B, m)
        wz = pows.reshape(r + 1, tau, b, m)
        w = np.ascontiguousarray(wz[:r].transpose(1, 2, 0, 3))
        z = ext.neg(wz[r])
        ew = base.matmul3(w.reshape(tau, b * r, m), self._meps_t).reshape(tau, b, r, m)
        alpha = ext.add(ew, np.asarray(a_shares, np.uint8).reshape(tau, b, r, m))
        return alpha, z

    def broadcast_v(self, z_shares, beta_shares, c_shares, alphas):
        """Phase 2 for all rounds given opened alphas.

        alphas is (tau, B, r, m) or broadcastable to it (e.g. (tau, 1, r, m)
        when every party of a round uses the same opened value).
        """
        ext = self.ext
        base = ext.base
        tau, b, m = np.asarray(z_shares).shape
        ez = base.matmul3(np.asarray(z_shares, np.uint8), self._meps_t)
        ip = ext.dot(np.asarray(alphas, np.uint8),
                     np.asarray(beta_shares, np.uint8), axis=-2)
        return ext.sub(ext.sub(ez, ip), np.asarray(c_shares, np.uint8))
