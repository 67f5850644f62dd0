import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from mira import estimator as est, params
from mira.params import ParameterSet

from helpers import all_parameter_sets, gaussian_binomial

ADD_TABLE = {1: 5640, 3: 11779, 5: 20762}
THR_TABLE = {1: 8318, 3: 17797, 5: 30381}
PK_TABLE = {("additive", 1): 84, ("additive", 3): 121, ("additive", 5): 150,
            ("threshold", 1): 117, ("threshold", 3): 155, ("threshold", 5): 195}


@pytest.mark.parametrize("level", [1, 3, 5])
def test_additive_sizes_exact(level):
    ps = params.parameter_set("additive", level)
    bits = est.sig_size_bits(ps)
    assert bits == ADD_TABLE[level] * 8
    assert dict(est.report(ps))["sig_bytes"] == str(ADD_TABLE[level])


@pytest.mark.parametrize("level", [1, 3, 5])
def test_threshold_sizes_close_to_table(level):
    ps = params.parameter_set("threshold", level)
    got = est.sig_size_bits(ps) / 8
    want = THR_TABLE[level]
    assert abs(got - want) / want < 0.02
    assert est.sig_size_bound_bits(ps) > est.sig_size_bits(ps)


@pytest.mark.parametrize("variant,level", list(PK_TABLE))
def test_key_sizes(variant, level):
    ps = params.parameter_set(variant, level)
    assert est.pk_size_bytes(ps) == PK_TABLE[(variant, level)]
    assert est.sk_size_bits(ps) == ps.lam


def test_kz_cost_examples():
    ps = params.parameter_set("additive", 1)
    log2c, split = est.kz_cost(ps)
    assert split == 2
    assert 127.9 < log2c < 128.2
    ps = params.parameter_set("threshold", 1)
    log2c, split = est.kz_cost(ps)
    assert split == 1
    assert 127.5 < log2c < 128.5


def test_kz_cost_floor_all_sets():
    for ps in all_parameter_sets():
        log2c, _ = est.kz_cost(ps)
        assert log2c >= ps.lam - 0.5  # design floor of 2^lambda (rounding slack)


# log2 cost of the two-challenge attack with one repetition fewer than shipped
KZ_ONE_ROUND_FEWER = {("additive", 1): 120.56, ("additive", 3): 184.00,
                      ("additive", 5): 248.00, ("threshold", 1): 106.56,
                      ("threshold", 3): 170.50, ("threshold", 5): 234.44}


def test_tau_is_minimal_for_every_set():
    # the shipped tau meets the 2^lambda floor (with its rounding slack) and
    # tau - 1 does not
    for ps in all_parameter_sets():
        floor = ps.lam - 0.5
        assert est.kz_cost(ps)[0] >= floor
        fewer, _ = est.kz_cost(ps.with_overrides(tau=ps.tau - 1))
        assert fewer < floor
        assert fewer == pytest.approx(KZ_ONE_ROUND_FEWER[(ps.variant, ps.level)], abs=0.005)


def test_kz_degenerate_false_positive():
    # tiny fields push the first-challenge pass probability to one; the
    # optimum then sits at split = tau with cost 1 + 1 = 2
    ps = ParameterSet("threshold", 1, q=7, m=1, n=2, k=1, r=1, N=6, tau=3,
                      eta=1, lam=128, ell=2)
    log2c, split = est.kz_cost(ps)
    assert split == 3
    assert log2c == 1.0


def test_kernel_cost_examples():
    ps = params.parameter_set("additive", 1)
    assert abs(est.kernel_cost(ps) - 179.41) < 0.05
    ps = params.parameter_set("threshold", 1)
    assert abs(est.kernel_cost(ps) - 215.53) < 0.05
    zero_r = ParameterSet("additive", 1, q=16, m=16, n=16, k=120, r=0, N=256,
                          tau=18, eta=1, lam=128)
    assert abs(est.kernel_cost(zero_r) - 2.81 * math.log2(120)) < 1e-9


def test_support_minors_single_term_and_identities():
    # b = 1: N_1 = C(n, r+1)*C(m, 1), M_1 = k*C(n, r)
    n, k, m, r, b = 16, 120, 16, 5, 1
    n1 = sum((-1) ** (i + 1) * math.comb(n, r + i) * math.comb(k + b - 1 - i, b - i)
             * math.comb(m + i - 1, i) for i in range(1, b + 1))
    assert n1 == math.comb(n, r + 1) * m
    assert math.comb(k + 1 - 1, 1) * math.comb(n, r) == k * math.comb(n, r)


def test_support_minors_shipped_values():
    ps = params.parameter_set("additive", 1)
    cost, detail = est.support_minors_cost(ps)
    assert cost >= 143  # above the claimed security margin
    assert math.isfinite(cost) and "a" in detail
    for ps in all_parameter_sets():
        cost, _ = est.support_minors_cost(ps)
        assert math.isfinite(cost)


def test_support_minors_infeasible_reports_diagnostic():
    ps = ParameterSet("additive", 1, q=2, m=2, n=3, k=100, r=2, N=4, tau=1,
                      eta=1, lam=128)
    cost, detail = est.support_minors_cost(ps)
    assert cost == math.inf
    assert "reason" in detail
    assert est.report(ps)[-1] == ("log2_support_minors", "inf")


def test_soundness_examples():
    ps = params.parameter_set("additive", 1)
    eps = est.soundness_epsilon(ps)
    assert abs(est.flog2(eps) - (-8.0)) < 0.01
    ps = params.parameter_set("threshold", 1)
    eps = est.soundness_epsilon(ps)
    lead = Fraction(1, math.comb(251, 3))
    assert eps > lead
    assert abs(est.flog2(lead) - (-21.31)) < 0.01
    one_party = ParameterSet("additive", 1, q=16, m=16, n=16, k=120, r=5, N=1,
                             tau=1, eta=1, lam=128)
    assert est.soundness_epsilon(one_party) == 1


def test_gaussian_binomial():
    assert gaussian_binomial(5, 0, 16) == 1
    assert gaussian_binomial(7, 7, 251) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    # enumeration oracle: distinct one-dimensional subspaces of GF(2)^2
    vecs = [(0, 1), (1, 0), (1, 1)]
    spans = {frozenset([(0, 0), v]) for v in vecs}
    assert len(spans) == 3
    # magnitude check against q^(r(m-r))
    val = gaussian_binomial(16, 5, 16)
    assert abs(math.log2(val) - 5 * 11 * 4) < 8


def test_expected_auth_nodes_exhaustive_oracle():
    from mira.hashing import HashSuite
    from mira.trees import MerkleTree, merkle_auth
    suite = HashSuite(128)
    for n, ell in [(4, 1), (4, 2), (8, 2), (8, 3), (6, 2)]:
        leaves = [bytes([i]) * 32 for i in range(n)]
        total = Fraction(0)
        count = 0
        for subset in itertools.combinations(range(1, n + 1), ell):
            total += len(merkle_auth(MerkleTree(suite, leaves), list(subset)))
            count += 1
        assert est.expected_merkle_auth_nodes(n, ell) == total / count


def test_expected_auth_matches_table_scale():
    assert abs(float(est.expected_merkle_auth_nodes(251, 3)) - 17.416) < 0.01


def test_false_positive_values():
    assert est.false_positive(params.parameter_set("additive", 1)) == \
        Fraction(2 * 16 ** 16 - 1, 16 ** 32)


def test_report_runtime_under_a_second():
    t0 = time.perf_counter()
    for ps in all_parameter_sets():
        est.report(ps)
    assert time.perf_counter() - t0 < 1.0


def test_report_lines_machine_readable():
    rows = est.report(params.parameter_set("additive", 1))
    keys = [k for k, _ in rows]
    assert "sig_bytes" in keys and "log2_forgery_cost" in keys
    as_dict = dict(rows)
    assert as_dict["sig_bytes"] == "5640"
    assert as_dict["pk_bytes"] == "84"


REPORT_KEYS = ("variant", "level", "sig_bits", "sig_bytes", "sig_bound_bits", "pk_bytes",
               "sk_bytes", "log2_false_positive", "log2_soundness", "log2_forgery_cost",
               "forgery_split", "log2_kernel_attack", "log2_support_minors")
# every row ``mira estimate`` prints for the shipped sets, in REPORT_KEYS order
REPORT_ROWS = {
    ("additive", 1): ("additive", "1", "45120.0", "5640", "45120.0", "84", "16",
                      "-63.00", "-8.00", "128.00", "2", "179.41", "168.45"),
    ("additive", 3): ("additive", "3", "94232.0", "11779", "94232.0", "121", "24",
                      "-75.00", "-8.00", "192.00", "2", "236.77", "236.92"),
    ("additive", 5): ("additive", "5", "166096.0", "20762", "166096.0", "150", "32",
                      "-91.00", "-8.00", "256.00", "2", "310.71", "309.92"),
    ("threshold", 1): ("threshold", "1", "66629.4", "8329", "69754.6", "117", "16",
                       "-94.66", "-21.31", "127.87", "1", "215.53", "133.40"),
    ("threshold", 3): ("threshold", "3", "142562.5", "17820", "149259.3", "155", "24",
                       "-126.54", "-21.31", "191.81", "1", "298.02", "195.09"),
    ("threshold", 5): ("threshold", "5", "243219.2", "30402", "255719.9", "195", "32",
                       "-126.54", "-21.31", "255.75", "2", "353.82", "276.33"),
}


@pytest.mark.parametrize("variant, level", list(REPORT_ROWS))
def test_report_rows_of_shipped_sets(variant, level):
    rows = est.report(params.parameter_set(variant, level))
    assert rows == list(zip(REPORT_KEYS, REPORT_ROWS[(variant, level)]))


def test_omega_override():
    ps = params.parameter_set("additive", 1).with_overrides(omega=2.0)
    assert est.kernel_cost(ps) < est.kernel_cost(params.parameter_set("additive", 1))


def test_sign_params_reject_eta_other_than_one():
    ps = params.parameter_set("additive", 1).with_overrides(eta=2)
    assert est.sig_size_bits(ps) > est.sig_size_bits(params.parameter_set("additive", 1))
    with pytest.raises(NotImplementedError):
        ps.sign_params()


@pytest.mark.parametrize("variant", ["additive", "threshold"])
@pytest.mark.parametrize("override,reason", [
    ({"q": 9}, "unsupported field order 9"),
    ({"q": 512}, r"supported GF\(2\^d\) range"),
    ({"lam": 100}, "unsupported security parameter 100")])
def test_sign_params_reject_an_unsupported_field_or_security_level(variant, override, reason):
    # every other check passes: the set must fail here, not at key generation
    ps = params.parameter_set(variant, 1).with_overrides(**override)
    with pytest.raises(ValueError, match=reason):
        ps.sign_params()
