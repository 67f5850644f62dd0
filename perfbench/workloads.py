"""Workloads: seeded inputs, the operations each step runs, output checks.

All three workloads are closed loops with one client and no think time.

* ``additive`` - round robin over additive L1/L3/L5 through the library
  API, one long-lived key per set.  Seed trees, leaf expansion, 256
  commitments per round, hypercube aggregation, GF(16) bit-sliced GEMMs and
  the challenge-operand build; never Merkle, Shamir/Lagrange or GF(251).
* ``threshold`` - the same loop over threshold L1/L3/L5.  Merkle building
  and commitments in sign, Lagrange (``shamir_expand``) in verify; never
  seed trees, the hypercube or bit slicing.
* ``fresh-keys`` - ``mira keygen``/``sign``/``verify`` through
  ``mira.cli.main`` over all six sets, every key used once, so per-key work
  (key derivation, witness replay, annihilator, public-key operand) is paid
  on every operation instead of being amortised.

Every library step also generates and discards one key pair, so keygen is
timed on every workload.  Messages, entropies and tamper positions come
from the workload seed; the program receives only the generated bytes.
"""

import contextlib
import hashlib
import io
import os
import random

SETS = {
    "a1": ("additive", 1), "a3": ("additive", 3), "a5": ("additive", 5),
    "t1": ("threshold", 1), "t3": ("threshold", 3), "t5": ("threshold", 5),
}

# name -> (interface driven, sets in round-robin order)
WORKLOADS = {
    "additive": ("library", ("a1", "a3", "a5")),
    "threshold": ("library", ("t1", "t3", "t5")),
    "fresh-keys": ("cli", ("a1", "t1", "a3", "t3", "a5", "t5")),
}

# library steps verify a tampered copy every TAMPER_EVERY-th step per set;
# fresh-keys steps do so every time
TAMPER_EVERY = 3

# Published sizes: public key body (seed || packed M_0 tail) and the fixed
# additive signature length.  Threshold signatures vary in length and are
# checked against the estimator's worst-case bound instead.
PK_BYTES = {"a1": 84, "a3": 121, "a5": 150, "t1": 117, "t3": 155, "t5": 195}
ADDITIVE_SIG_BYTES = {"a1": 5640, "a3": 11779, "a5": 20762}

# SHA3-256 of the signature each set makes from ``canonical_inputs``, taken
# from the code this benchmark was written against.  A mismatch means the
# wire format or the signing randomness changed.
PINNED_SHA3 = {
    "a1": "90a184e52498e6b1a243dfd9d9f0e87ad108ccb3cc8c9fbcebf365985517ed48",
    "a3": "36d1f710342b82a26f2a03430de033dcf09b3d2d3129788b91a926e423edfee2",
    "a5": "6a7cc4d55a9e6e7c7e693d5e28f147e4b40c7ffea1322bf1d12b182b13563722",
    "t1": "c5c020e93ab9715df0e9e811528044f4a13e24c06a131a6c76fdd3862f6deede",
    "t3": "5824b04dff0e62cc97d11c4d718c754e176c94e625f8403ef46dab59225859de",
    "t5": "c95d6c369158a1798a22920d4d5c1035933e320e8516973eee22923996eb5be5",
}


class Step:
    __slots__ = ("set_name", "keygen_entropy", "message", "sign_entropy",
                 "tamper", "tamper_u")

    def __init__(self, set_name, keygen_entropy, message, sign_entropy, tamper, tamper_u):
        self.set_name = set_name
        self.keygen_entropy = keygen_entropy
        self.message = message
        self.sign_entropy = sign_entropy
        self.tamper = tamper
        self.tamper_u = tamper_u

    def tampered(self, sig):
        """``sig`` with the bit at the seeded position flipped."""
        bit = int(self.tamper_u * 8 * len(sig))
        bad = bytearray(sig)
        bad[bit >> 3] ^= 1 << (bit & 7)
        return bytes(bad)


class Inputs:
    """Seeded input stream: the k-th draw depends only on (workload, seed, k)."""

    def __init__(self, workload, seed):
        self._rng = random.Random(f"perfbench:{workload}:{seed}")
        self._every = 1 if WORKLOADS[workload][0] == "cli" else TAMPER_EVERY
        self._count = {}

    def entropy(self):
        return self._rng.randbytes(48)

    def message(self):
        return self._rng.randbytes(self._rng.randint(32, 4096))

    def step(self, set_name):
        k = self._count.get(set_name, 0)
        self._count[set_name] = k + 1
        return Step(set_name, self.entropy(), self.message(), self.entropy(),
                    k % self._every == self._every - 1, self._rng.random())


def canonical_inputs(set_name):
    """Fixed (keygen entropy, message, sign entropy), independent of the seed."""
    label = f"perfbench canonical {set_name} ".encode()
    return (hashlib.shake_256(label + b"keygen").digest(48),
            hashlib.shake_256(label + b"message").digest(100),
            hashlib.shake_256(label + b"sign").digest(48))


def sig_digest(sig):
    return hashlib.sha3_256(sig).hexdigest()


class _Set:
    """Parameters and size checks of one parameter set."""

    def __init__(self, mira, set_name):
        variant, level = SETS[set_name]
        self._mira = mira
        self.ignored_slot_accepts = 0
        self.name = set_name
        self.variant = variant
        self.level = level
        self.ps = mira.params.parameter_set(variant, level)
        self.sp = self.ps.sign_params()
        self.mr = self.ps.minrank()
        if set_name in ADDITIVE_SIG_BYTES:
            self._sig_max = self._sig_min = ADDITIVE_SIG_BYTES[set_name]
        else:
            self._sig_max = -(-int(mira.estimator.sig_size_bound_bits(self.ps)) // 8)
            self._sig_min = 1

    def check_sig_size(self, n):
        if not self._sig_min <= n <= self._sig_max:
            return f"signature is {n} bytes, expected {self._sig_min}..{self._sig_max}"
        return None

    def check_tampered(self, good, bad, accepted):
        """A tampered copy must reject, unless the flip hit an ignored slot.

        The additive layout keeps the aux slot (x_N, beta_N, c_N) in every
        round, zeroed when the hidden leaf is N, and the verifier ignores it
        there (see ``mira.sign_additive``), so a flip inside such a slot
        still verifies.  Those accepts are counted in
        ``ignored_slot_accepts`` and reported; any other accept fails.
        """
        if not accepted:
            return None
        if self.variant == "additive" and self._flip_in_ignored_slot(good, bad):
            self.ignored_slot_accepts += 1
            return None
        return "tampered signature accepted"

    def _flip_in_ignored_slot(self, good, bad):
        sa = self._mira.sign_additive
        try:
            g, b = sa.decode(self.sp, good), sa.decode(self.sp, bad)
        except sa.SignatureFormatError:
            return False
        if (g.salt, g.h1, g.h2) != (b.salt, b.h1, b.h2):
            return False
        hidden = self._mira.hashing.derive_challenge2_additive(
            self.sp.suite, g.h2, self.sp.n_parties, self.sp.tau)
        for istar, rg, rb in zip(hidden, g.rounds, b.rounds):
            if (rg.path, rg.cmt_hidden) != (rb.path, rb.cmt_hidden) or \
                    not _same(rg.alpha_hidden, rb.alpha_hidden):
                return False
            aux_same = all(_same(getattr(rg, f), getattr(rb, f))
                           for f in ("aux_x", "aux_beta", "aux_c"))
            if not aux_same and istar != self.sp.n_parties:
                return False
        return True

    def check_pinned(self, sig):
        reason = self.check_sig_size(len(sig))
        if reason is None and sig_digest(sig) != PINNED_SHA3[self.name]:
            reason = "canonical signature digest differs from the pinned one"
        return reason


class LibraryRunner(_Set):
    """Drives ``keys``, ``sign_additive`` and ``sign_threshold`` directly."""

    def __init__(self, mira, set_name):
        super().__init__(mira, set_name)
        self.pk = self.sk = None

    @property
    def scheme(self):
        m = self._mira
        return m.sign_additive if self.variant == "additive" else m.sign_threshold

    def keygen(self, entropy):
        return self._mira.keys.keygen_optimized(self.mr, entropy)

    def check_keypair(self, pair):
        n = len(pair[0].body_bytes())
        return None if n == PK_BYTES[self.name] else f"public key is {n} bytes"

    def sign(self, message, entropy, pair=None):
        pk, sk = pair or (self.pk, self.sk)
        return self.scheme.sign(self.sp, pk, sk, message, entropy)

    def verify(self, message, sig, pk=None):
        return self.scheme.verify(self.sp, pk or self.pk, message, sig)

    def setup(self, inputs):
        """Long-lived key pair plus one warm-up signature."""
        self.pk, self.sk = self.keygen(inputs.entropy())
        self.sign(inputs.message(), inputs.entropy())

    def step(self, rec, step):
        name = self.name
        rec.op("keygen", name, lambda: self.keygen(step.keygen_entropy), self.check_keypair)
        sig = rec.op("sign", name, lambda: self.sign(step.message, step.sign_entropy),
                     lambda s: self.check_sig_size(len(s)))
        if sig is None:
            return
        rec.op("verify", name, lambda: self.verify(step.message, sig), _expect(True))
        if step.tamper:
            bad = step.tampered(sig)
            rec.op("tamper", name, lambda: self.verify(step.message, bad),
                   lambda ok: self.check_tampered(sig, bad, ok), probed=False)

    def canonical(self, rec, tracer=None):
        """Sign fixed inputs and compare with the pinned digest.

        With a tracer, a second keygen/sign/verify runs under it after the
        untraced one has warmed the key, as a long-lived key would be.
        """
        name = self.name
        kg, msg, ent = canonical_inputs(name)
        pair = rec.op("keygen", name, lambda: self.keygen(kg), self.check_keypair,
                      canonical=True)
        if pair is None:
            return None
        sig = rec.op("sign", name, lambda: self.sign(msg, ent, pair), self.check_pinned,
                     canonical=True)
        if sig is None:
            return None
        rec.op("verify", name, lambda: self.verify(msg, sig, pair[0]), _expect(True),
               canonical=True)
        if tracer is None:
            return sig
        with rec.tracing(tracer):
            rec.op("keygen", name, lambda: self.keygen(kg), self.check_keypair,
                   canonical=True)
            sig = rec.op("sign", name, lambda: self.sign(msg, ent, pair), self.check_pinned,
                         canonical=True)
            if sig is not None:
                rec.op("verify", name, lambda: self.verify(msg, sig, pair[0]), _expect(True),
                       canonical=True)
        return sig


class CliRunner(_Set):
    """Drives ``mira.cli.main`` with key, message and signature files."""

    def __init__(self, mira, set_name, workdir):
        super().__init__(mira, set_name)
        self._sink = io.StringIO()
        self._paths = {k: os.path.join(workdir, f"{set_name}-{k}.bin")
                       for k in ("pk", "sk", "msg", "sig", "bad")}

    def _main(self, argv):
        sink = self._sink
        sink.seek(0)
        sink.truncate()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return self._mira.cli.main(argv)

    def _write(self, key, data):
        with open(self._paths[key], "wb") as fh:
            fh.write(data)

    def _size(self, key):
        return os.path.getsize(self._paths[key])

    def keygen(self, entropy):
        p = self._paths
        return self._main(["keygen", "--variant", self.variant, "--level", str(self.level),
                           "--seed", entropy.hex(), "--pk", p["pk"], "--sk", p["sk"]])

    def check_keygen(self, rc):
        if rc != 0:
            return f"mira keygen exited {rc}"
        n = self._size("pk")
        return None if n == 1 + PK_BYTES[self.name] else f"public key file is {n} bytes"

    def sign(self, entropy):
        p = self._paths
        return self._main(["sign", "--key", p["sk"], "--in", p["msg"], "--out", p["sig"],
                           "--seed", entropy.hex()])

    def check_sign(self, rc):
        return f"mira sign exited {rc}" if rc != 0 else self.check_sig_size(self._size("sig"))

    def check_pinned_file(self, rc):
        if rc != 0:
            return f"mira sign exited {rc}"
        with open(self._paths["sig"], "rb") as fh:
            return self.check_pinned(fh.read())

    def check_tampered_rc(self, rc):
        if rc in (1, 2):
            return None
        if rc != 0:
            return f"mira verify exited {rc} on a tampered signature"
        with open(self._paths["sig"], "rb") as good, open(self._paths["bad"], "rb") as bad:
            return self.check_tampered(good.read(), bad.read(), True)

    def verify(self, sig_key="sig"):
        p = self._paths
        return self._main(["verify", "--key", p["pk"], "--in", p["msg"], "--sig", p[sig_key]])

    def _round_trip(self, rec, kg, msg, ent, check_sig, canonical):
        name = self.name
        self._write("msg", msg)
        if rec.op("keygen", name, lambda: self.keygen(kg), self.check_keygen,
                  canonical=canonical) is None:
            return False
        if rec.op("sign", name, lambda: self.sign(ent), check_sig,
                  canonical=canonical) is None:
            return False
        rec.op("verify", name, self.verify, _expect_rc(0), canonical=canonical)
        return True

    def setup(self, inputs):
        """One warm-up keygen and sign."""
        self._write("msg", inputs.message())
        self.keygen(inputs.entropy())
        self.sign(inputs.entropy())

    def step(self, rec, step):
        if not self._round_trip(rec, step.keygen_entropy, step.message, step.sign_entropy,
                                self.check_sign, False):
            return
        if step.tamper:
            with open(self._paths["sig"], "rb") as fh:
                self._write("bad", step.tampered(fh.read()))
            rec.op("tamper", self.name, lambda: self.verify("bad"), self.check_tampered_rc,
                   probed=False)

    def canonical(self, rec, tracer=None):
        kg, msg, ent = canonical_inputs(self.name)
        self._round_trip(rec, kg, msg, ent, self.check_pinned_file, True)
        if tracer is not None:
            with rec.tracing(tracer):
                self._round_trip(rec, kg, msg, ent, self.check_pinned_file, True)


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _expect(verdict):
    def check(ok):
        if ok is not verdict:
            return f"verify returned {ok!r}, expected {verdict!r}"
        return None
    return check


def _expect_rc(*codes):
    def check(rc):
        return None if rc in codes else f"mira verify exited {rc}, expected {codes}"
    return check


def runners(mira, workload, workdir):
    interface, sets = WORKLOADS[workload]
    if interface == "library":
        return [LibraryRunner(mira, s) for s in sets]
    return [CliRunner(mira, s, workdir) for s in sets]
