"""Command line interface: keygen, sign, verify, estimate, kat.

Exit codes: 0 success/accept, 1 verification reject or KAT mismatch,
2 usage errors and malformed inputs, including files that cannot be read
and KAT files without complete records.
"""

import argparse
import os
import sys

from . import estimator, keys, params
from . import sign_additive, sign_threshold
from .hashing import X_KAT, encode_u32
from .keys import KeyFormatError

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_USAGE = 2


def _entropy_from(args):
    if args.seed is None:
        return os.urandom(48)
    try:
        return bytes.fromhex(args.seed)
    except ValueError:
        raise ValueError("--seed must be a hex string") from None


def _read(path, mode="rb"):
    with open(path, mode) as f:
        return f.read()


def _scheme(variant):
    return sign_threshold if variant == params.THRESHOLD else sign_additive


def cmd_keygen(args):
    ps = params.parameter_set(args.variant, args.level)
    pk, sk = keys.keygen_optimized(ps, _entropy_from(args))
    with open(args.pk, "wb") as f:
        f.write(pk.to_bytes())
    with open(args.sk, "wb") as f:
        f.write(sk.to_bytes())
    print(f"wrote {args.pk}: public key body {len(pk.body_bytes())} bytes")
    print(f"wrote {args.sk}: secret seed {len(sk.seed_sk)} bytes"
          f" (file stores both seeds, {2 * len(sk.seed_sk)} bytes)")
    return EXIT_OK


def _load_keypair_params(args, expect_ps):
    if args.variant is not None or args.level is not None:
        want = (args.variant or expect_ps.variant, args.level or expect_ps.level)
        if want != (expect_ps.variant, expect_ps.level):
            print("key file parameter id does not match --variant/--level",
                  file=sys.stderr)
            raise SystemExit(EXIT_USAGE)


def cmd_sign(args):
    try:
        sk = keys.SecretKey.from_bytes(_read(args.key))
    except (OSError, KeyFormatError) as exc:
        print(f"cannot load secret key: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ps = sk.params
    _load_keypair_params(args, ps)
    message = _read(args.infile)
    sig = _scheme(ps.variant).sign(ps, sk.public_key(), sk, message, _entropy_from(args))
    with open(args.out, "wb") as f:
        f.write(sig)
    print(f"wrote {args.out}: {len(sig)} bytes")
    return EXIT_OK


def cmd_verify(args):
    try:
        pk = keys.PublicKey.from_bytes(_read(args.key))
    except (OSError, KeyFormatError) as exc:
        print(f"cannot load public key: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ps = pk.params
    _load_keypair_params(args, ps)
    message = _read(args.infile)
    data = _read(args.sig)
    scheme = _scheme(ps.variant)
    try:
        sig = scheme.decode(ps, data)
    except scheme.SignatureFormatError as exc:
        print(f"malformed signature: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ok, _ = scheme.verify_decoded(ps, pk, message, sig)
    print("accept" if ok else "reject")
    return EXIT_OK if ok else EXIT_REJECT


def cmd_estimate(args):
    ps = params.parameter_set(args.variant, args.level)
    ps = ps.with_overrides(q=args.q, m=args.m, n=args.n, k=args.k, r=args.r,
                           N=args.N, ell=args.ell, tau=args.tau, eta=args.eta,
                           omega=args.omega)
    rep = estimator.report(ps)
    rows = rep.lines()
    width = max(len(k) for k, _ in rows)
    for key, val in rows:
        print(f"{key:<{width}}  {val}")
    print()
    for key, val in rows:
        print(f"{key}={val}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# known-answer test files

_KAT_FIELDS = ("count", "seed", "msg", "pk", "sk", "sig")


def _kat_records(variant, level, count, master):
    ps = params.parameter_set(variant, level)
    scheme = _scheme(variant)
    suite = ps.suite
    for i in range(count):
        seed = suite.xof(X_KAT, master, encode_u32(i)).read(48)
        keygen_entropy = suite.xof(X_KAT, b"keys", seed).read(48)
        sign_entropy = suite.xof(X_KAT, b"sign", seed).read(48)
        msg = suite.xof(X_KAT, b"msg", seed).read(33 * (i + 1))
        pk, sk = keys.keygen_optimized(ps, keygen_entropy)
        sig = scheme.sign(ps, pk, sk, msg, sign_entropy)
        yield {
            "count": str(i),
            "seed": seed.hex(),
            "msg": msg.hex(),
            "pk": pk.to_bytes().hex(),
            "sk": sk.to_bytes().hex(),
            "sig": sig.hex(),
        }


def _write_kat(fh, variant, level, count, master):
    fh.write(f"# variant = {variant}, level = {level}\n\n")
    for rec in _kat_records(variant, level, count, master):
        for key in _KAT_FIELDS:
            fh.write(f"{key} = {rec[key]}\n")
        fh.write("\n")


def _parse_kat(text):
    records = []
    cur = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            if cur:
                records.append(cur)
                cur = {}
            continue
        key, _, val = line.partition("=")
        cur[key.strip()] = val.strip()
    if cur:
        records.append(cur)
    return records


def cmd_kat(args):
    master = bytes.fromhex(args.seed) if args.seed else b"\x00" * 48
    if args.check:
        records = _parse_kat(_read(args.check, "r"))
        if not records or any(rec.keys() != set(_KAT_FIELDS) for rec in records):
            print(f"{args.check} is not a KAT file: it needs records of the fields "
                  f"{', '.join(_KAT_FIELDS)}", file=sys.stderr)
            return EXIT_USAGE
        fresh = _kat_records(args.variant, args.level, len(records), master)
        for have, want in zip(records, fresh):
            for field in _KAT_FIELDS:
                if have.get(field) != want[field]:
                    print(f"KAT mismatch at count={want['count']}: field {field}",
                          file=sys.stderr)
                    return EXIT_REJECT
            # independently re-verify the recorded signature
            pk = keys.PublicKey.from_bytes(bytes.fromhex(have["pk"]))
            if not _scheme(pk.params.variant).verify(pk.params, pk,
                                                     bytes.fromhex(have["msg"]),
                                                     bytes.fromhex(have["sig"])):
                print(f"KAT signature rejects at count={have['count']}",
                      file=sys.stderr)
                return EXIT_REJECT
        print(f"checked {len(records)} records: ok")
        return EXIT_OK
    with open(args.out, "w") as fh:
        _write_kat(fh, args.variant, args.level, args.count, master)
    print(f"wrote {args.out}: {args.count} records")
    return EXIT_OK


def build_parser():
    p = argparse.ArgumentParser(prog="mira", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, need_level=True):
        sp.add_argument("--variant", choices=[params.ADDITIVE, params.THRESHOLD],
                        required=need_level)
        sp.add_argument("--level", type=int, choices=[1, 3, 5], required=need_level)
        sp.add_argument("--seed", help="hex entropy for deterministic output")

    kg = sub.add_parser("keygen", help="generate a key pair")
    common(kg)
    kg.add_argument("--pk", default="pk.bin")
    kg.add_argument("--sk", default="sk.bin")
    kg.set_defaults(func=cmd_keygen)

    sg = sub.add_parser("sign", help="sign a message file")
    sg.add_argument("--variant", choices=[params.ADDITIVE, params.THRESHOLD])
    sg.add_argument("--level", type=int, choices=[1, 3, 5])
    sg.add_argument("--seed", help="hex entropy for deterministic signing")
    sg.add_argument("--key", required=True, help="secret key file")
    sg.add_argument("--in", dest="infile", required=True, help="message file")
    sg.add_argument("--out", required=True, help="signature output file")
    sg.set_defaults(func=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signature file")
    vf.add_argument("--variant", choices=[params.ADDITIVE, params.THRESHOLD])
    vf.add_argument("--level", type=int, choices=[1, 3, 5])
    vf.add_argument("--key", required=True, help="public key file")
    vf.add_argument("--in", dest="infile", required=True, help="message file")
    vf.add_argument("--sig", required=True, help="signature file")
    vf.set_defaults(func=cmd_verify)

    es = sub.add_parser("estimate", help="print size/security estimates")
    common(es)
    for flag in ("q", "m", "n", "k", "r", "N", "ell", "tau", "eta"):
        es.add_argument(f"--{flag}", type=int)
    es.add_argument("--omega", type=float)
    es.set_defaults(func=cmd_estimate)

    ka = sub.add_parser("kat", help="generate or check known-answer records")
    common(ka)
    ka.add_argument("--count", type=int, default=5)
    ka.add_argument("--out", default="kat.txt")
    ka.add_argument("--check", help="existing KAT file to re-derive and compare")
    ka.set_defaults(func=cmd_kat)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
