"""Sizes, soundness and attack costs for parameter sets.

Size formulas (bits):

  additive:   6L + tau*((k + r*m + (r+1)*m*eta)*log2(q) + 2L + D*L)
  threshold:  6L + tau*((l*(k + r*m + (r+1)*m*eta) + r*m*eta)*log2(q)
                        + 2L * auth)

where L is the security parameter and auth is the number of Merkle digests
opening an l-subset: the tabulated threshold sizes use the exact expected
path length over random subsets, the worst-case bound uses l*log2(N/l).
Additive signatures are fixed-size and the formula is exact in bits.

Attack costs are log2 of: the two-challenge split forgery (exact binomial
tail sums over rationals), the kernel-guessing attack q^(r*ceil(k/m))*k^w,
and the support-minors system solver N_b*M_b^(w-1) combined with the
column-guessing hybrid q^(a*r) over shrunken instances.
"""

from fractions import Fraction
import math

from .params import THRESHOLD

SM_MAX_B = 10     # the largest support-minors degree b searched


def flog2(x):
    if isinstance(x, Fraction):
        return math.log2(x.numerator) - math.log2(x.denominator)
    return math.log2(x)


def false_positive(ps):
    big = ps.q ** (ps.m * ps.eta)
    return Fraction(2 * big - 1, big * big)


def expected_merkle_auth_nodes(n_leaves, ell):
    """Exact expected digest count opening a random ell-subset of n_leaves."""
    if ell >= n_leaves:
        return Fraction(0)
    pad = 1 << max(0, (n_leaves - 1).bit_length())
    depth = pad.bit_length() - 1
    total_subsets = math.comb(n_leaves, ell)

    def level_expectation(d):
        span = pad >> d
        acc = Fraction(0)
        for idx in range(1 << d):
            n_v = min(max(n_leaves - idx * span, 0), span)
            if n_v:
                acc += 1 - Fraction(math.comb(n_leaves - n_v, ell), total_subsets)
        return acc

    # auth nodes per level d are 2*X_{d-1} - X_d for the path-node counts X
    exp = 2 - Fraction(ell)
    for d in range(1, depth):
        exp += level_expectation(d)
    return exp


def sig_size_bits(ps):
    """Exact bit size (additive) or expected size with exact log2 (threshold)."""
    lam = ps.lam
    field_elems = ps.k + ps.r * ps.m + (ps.r + 1) * ps.m * ps.eta
    if ps.variant == THRESHOLD:
        elems = ps.ell * field_elems + ps.r * ps.m * ps.eta
        auth = expected_merkle_auth_nodes(ps.N, ps.ell)
        per_round = elems * math.log2(ps.q) + 2 * lam * float(auth)
        return 6 * lam + ps.tau * per_round
    return 6 * lam + ps.tau * (field_elems * round(math.log2(ps.q))
                               + 2 * lam + ps.depth * lam)


def sig_size_bound_bits(ps):
    """The worst-case threshold formula (additive sizes are already exact)."""
    lam = ps.lam
    field_elems = ps.k + ps.r * ps.m + (ps.r + 1) * ps.m * ps.eta
    if ps.variant == THRESHOLD:
        elems = ps.ell * field_elems + ps.r * ps.m * ps.eta
        per_round = (elems * math.log2(ps.q)
                     + 2 * lam * ps.ell * math.log2(ps.N / ps.ell))
        return 6 * lam + ps.tau * per_round
    return sig_size_bits(ps)


def pk_size_bits(ps):
    return ps.lam + (ps.m * ps.n - ps.k) * math.log2(ps.q)


def pk_size_bytes(ps):
    return math.ceil(pk_size_bits(ps) / 8)


def sk_size_bits(ps):
    return ps.lam


def soundness_epsilon(ps):
    """Per-repetition cheating probability of the underlying identification."""
    p = false_positive(ps)
    if ps.variant == THRESHOLD:
        lead = Fraction(1, math.comb(ps.N, ps.ell))
        return lead + p * Fraction(ps.ell * (ps.N - ps.ell), ps.ell + 1)
    return Fraction(1, ps.N) + p * (1 - Fraction(1, ps.N))


def kz_cost(ps):
    """Cost of guessing the two challenges separately: (log2, best split)."""
    p = false_positive(ps)
    if ps.variant == THRESHOLD:
        p = p * math.comb(ps.N, ps.ell + 1)
        if p > 1:
            p = Fraction(1)
        space2 = math.comb(ps.N, ps.ell)
    else:
        space2 = ps.N
    tau = ps.tau
    best = None
    best_split = 0
    for split in range(tau + 1):
        tail = sum(math.comb(tau, i) * p ** i * (1 - p) ** (tau - i)
                   for i in range(split, tau + 1))
        cost = Fraction(space2) ** (tau - split)
        cost = cost + (1 / tail if tail else Fraction(0))
        if best is None or cost < best:
            best, best_split = cost, split
    return flog2(best), best_split


def kernel_cost(ps):
    """Guess ceil(k/m) kernel vectors, then linear algebra: log2 cost."""
    guesses = ps.r * math.ceil(ps.k / ps.m)
    return guesses * math.log2(ps.q) + ps.omega * math.log2(ps.k)


def support_minors_cost(ps):
    """Minimum log2 cost over the hybrid parameter a and system degree b.

    For the (n - a)-column instance with k - a*m unknowns, degree b is
    admissible when the equation count N_b reaches M_b - 1; the cost is
    q^(a*r) * N_b * M_b^(omega - 1).  Returns (log2 or inf, details).

    b is searched only up to ``SM_MAX_B`` = 10.  Two shipped minima sit on that
    cap: threshold level 1 (a = 0, b = 10) and level 3 (a = 1, b = 10);
    whether a larger b is admissible is open (ROADMAP item 8).
    """
    q, m, r, omega = ps.q, ps.m, ps.r, ps.omega
    best = math.inf
    best_ab = None
    a = 0
    while ps.k - a * m > 0 and ps.n - a > r:
        n_a = ps.n - a
        k_a = ps.k - a * m
        for b in range(1, SM_MAX_B + 1):
            nb = sum((-1) ** (i + 1) * math.comb(n_a, r + i)
                     * math.comb(k_a + b - 1 - i, b - i)
                     * math.comb(m + i - 1, i)
                     for i in range(1, b + 1))
            mb = math.comb(k_a + b - 1, b) * math.comb(n_a, r)
            if nb <= 0 or mb <= 0 or nb < mb - 1:
                continue
            cost = a * r * math.log2(q) + math.log2(nb) + (omega - 1) * math.log2(mb)
            if cost < best:
                best, best_ab = cost, (a, b)
        a += 1
    if best_ab is None:
        return math.inf, {"reason": "no admissible (a, b) in search range",
                          "max_b": SM_MAX_B}
    return best, {"a": best_ab[0], "b": best_ab[1]}


def report(ps):
    """The 13 (key, value) rows ``mira estimate`` prints, both strings.

    Bit sizes carry one decimal and log2 figures two; the support-minors
    cost reads ``inf`` when no (a, b) in its search is admissible.
    """
    bits = sig_size_bits(ps)
    kz, split = kz_cost(ps)
    return [
        ("variant", ps.variant),
        ("level", str(ps.level)),
        ("sig_bits", f"{bits:.1f}"),
        ("sig_bytes", str(round(bits / 8))),
        ("sig_bound_bits", f"{sig_size_bound_bits(ps):.1f}"),
        ("pk_bytes", str(pk_size_bytes(ps))),
        ("sk_bytes", str(sk_size_bits(ps) // 8)),
        ("log2_false_positive", f"{flog2(false_positive(ps)):.2f}"),
        ("log2_soundness", f"{flog2(soundness_epsilon(ps)):.2f}"),
        ("log2_forgery_cost", f"{kz:.2f}"),
        ("forgery_split", str(split)),
        ("log2_kernel_attack", f"{kernel_cost(ps):.2f}"),
        ("log2_support_minors", f"{support_minors_cost(ps)[0]:.2f}"),
    ]
