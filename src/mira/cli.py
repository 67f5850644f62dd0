"""Command line interface: keygen, sign, verify, estimate, kat.

Exit codes: 0 success/accept, 1 verification reject or KAT mismatch,
2 usage errors and malformed inputs, including files that cannot be read
or written and KAT files without complete records.
"""

import argparse
import functools
import os
import sys

from . import estimator, keys, params
from .bitio import SignatureFormatError
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


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, not {text!r}")
    return int(text)


def _read(path, mode="rb"):
    with open(path, mode) as f:
        return f.read()


def _write(path, data, mode=0o666):
    """Write ``data`` to ``path`` in place, creating it with ``mode & ~umask``.

    An existing file keeps its inode, mode and links, and a symlink is
    followed, as with ``open(path, "wb")``.  The file is cut to the new
    length after the write instead of being truncated to zero first: on ext4
    (``auto_da_alloc``), closing a file that was truncated to zero and
    rewritten waits for its data to be flushed, tens of ms per file.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, mode)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def cmd_keygen(args):
    ps = params.parameter_set(args.variant, args.level)
    pk, sk = keys.keygen_optimized(ps, _entropy_from(args))
    _write(args.pk, pk.to_bytes())
    _write(args.sk, sk.to_bytes(), 0o600)
    print(f"wrote {args.pk}: public key body {len(pk.body_bytes())} bytes")
    print(f"wrote {args.sk}: secret seed {len(sk.seed_sk)} bytes"
          f" (file stores both seeds, {2 * len(sk.seed_sk)} bytes)")
    return EXIT_OK


def cmd_sign(args):
    try:
        sk = keys.SecretKey.from_bytes(_read(args.key))
    except (OSError, KeyFormatError) as exc:
        print(f"cannot load secret key: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ps = sk.params
    message = _read(args.infile)
    sig = ps.scheme.sign(ps, sk.public_key(), sk, message, _entropy_from(args))
    _write(args.out, sig)
    print(f"wrote {args.out}: {len(sig)} bytes")
    return EXIT_OK


def cmd_verify(args):
    try:
        pk = keys.PublicKey.from_bytes(_read(args.key))
    except (OSError, KeyFormatError) as exc:
        print(f"cannot load public key: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ps = pk.params
    message = _read(args.infile)
    data = _read(args.sig)
    try:
        sig = ps.scheme.decode(ps, data)
    except SignatureFormatError as exc:
        print(f"malformed signature: {exc}", file=sys.stderr)
        return EXIT_USAGE
    ok = ps.scheme.verify_decoded(ps, pk, message, sig)
    print("accept" if ok else "reject")
    return EXIT_OK if ok else EXIT_REJECT


def cmd_estimate(args):
    ps = params.parameter_set(args.variant, args.level)
    ps = ps.with_overrides(q=args.q, m=args.m, n=args.n, k=args.k, r=args.r,
                           N=args.N, ell=args.ell, tau=args.tau, eta=args.eta,
                           omega=args.omega)
    ps.minrank()
    if ps.q < 2:
        raise ValueError("q must be at least 2")
    if not 2 <= ps.omega <= 3:
        raise ValueError(f"--omega must be a number in [2, 3], not {ps.omega}")
    rows = estimator.report(ps)
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
    suite = ps.suite
    for i in range(count):
        seed = suite.xof(X_KAT, master, encode_u32(i)).read(48)
        keygen_entropy = suite.xof(X_KAT, b"keys", seed).read(48)
        sign_entropy = suite.xof(X_KAT, b"sign", seed).read(48)
        msg = suite.xof(X_KAT, b"msg", seed).read(33 * (i + 1))
        pk, sk = keys.keygen_optimized(ps, keygen_entropy)
        sig = ps.scheme.sign(ps, pk, sk, msg, sign_entropy)
        yield {
            "count": str(i),
            "seed": seed.hex(),
            "msg": msg.hex(),
            "pk": pk.to_bytes().hex(),
            "sk": sk.to_bytes().hex(),
            "sig": sig.hex(),
        }


def _kat_text(variant, level, count, master):
    text = f"# variant = {variant}, level = {level}\n\n"
    for rec in _kat_records(variant, level, count, master):
        text += "".join(f"{key} = {rec[key]}\n" for key in _KAT_FIELDS) + "\n"
    return text


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
    master = b"\x00" * 48 if args.seed is None else _entropy_from(args)
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
            ps = pk.params
            if not ps.scheme.verify(ps, pk, bytes.fromhex(have["msg"]),
                                    bytes.fromhex(have["sig"])):
                print(f"KAT signature rejects at count={have['count']}",
                      file=sys.stderr)
                return EXIT_REJECT
        print(f"checked {len(records)} records: ok")
        return EXIT_OK
    _write(args.out, _kat_text(args.variant, args.level, args.count, master).encode())
    print(f"wrote {args.out}: {args.count} records")
    return EXIT_OK


@functools.cache
def build_parser():
    """The argument parser, built once per process: building it takes far
    longer than one ``parse_args``, which leaves it unchanged."""
    p = argparse.ArgumentParser(prog="mira", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--variant", choices=[params.ADDITIVE, params.THRESHOLD],
                        required=True)
        sp.add_argument("--level", type=int, choices=[1, 3, 5], required=True)

    kg = sub.add_parser("keygen", help="generate a key pair")
    common(kg)
    kg.add_argument("--seed", help="hex entropy for deterministic output")
    kg.add_argument("--pk", default="pk.bin",
                    help="public key file; a new file gets mode 0o666 & ~umask")
    kg.add_argument("--sk", default="sk.bin",
                    help="secret key file; a new file gets mode 0o600 (owner only). "
                         "An existing file keeps its mode and is rewritten in place")
    kg.set_defaults(func=cmd_keygen)

    sg = sub.add_parser("sign", help="sign a message file")
    sg.add_argument("--seed", help="hex entropy for deterministic signing")
    sg.add_argument("--key", required=True, help="secret key file")
    sg.add_argument("--in", dest="infile", required=True, help="message file")
    sg.add_argument("--out", required=True, help="signature output file")
    sg.set_defaults(func=cmd_sign)

    vf = sub.add_parser("verify", help="verify a signature file")
    vf.add_argument("--key", required=True, help="public key file")
    vf.add_argument("--in", dest="infile", required=True, help="message file")
    vf.add_argument("--sig", required=True, help="signature file")
    vf.set_defaults(func=cmd_verify)

    es = sub.add_parser("estimate", help="print size/security estimates")
    common(es)
    for flag in ("q", "m", "n", "k", "r", "N", "ell", "tau", "eta"):
        es.add_argument(f"--{flag}", type=_positive_int)
    es.add_argument("--omega", type=float)
    es.set_defaults(func=cmd_estimate)

    ka = sub.add_parser("kat", help="generate or check known-answer records")
    common(ka)
    ka.add_argument("--seed", help="hex master seed of the records (default 48 zero bytes)")
    ka.add_argument("--count", type=_positive_int, default=5)
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
