import argparse
import gc
import os
import re
import stat
import sys
import warnings
from pathlib import Path

import pytest

from mira import cli, params, sign_threshold

README = Path(__file__).resolve().parents[1] / "README.md"


def run(argv):
    return cli.main(argv)


@pytest.fixture
def keypair(tmp_path):
    pk = tmp_path / "pk.bin"
    sk = tmp_path / "sk.bin"
    assert run(["keygen", "--variant", "threshold", "--level", "1",
                "--seed", "00112233", "--pk", str(pk), "--sk", str(sk)]) == 0
    return pk, sk


def test_keygen_deterministic(tmp_path):
    files = []
    for tag in ("a", "b"):
        pk = tmp_path / f"pk{tag}.bin"
        sk = tmp_path / f"sk{tag}.bin"
        assert run(["keygen", "--variant", "additive", "--level", "1",
                    "--seed", "aabbcc", "--pk", str(pk), "--sk", str(sk)]) == 0
        files.append((pk.read_bytes(), sk.read_bytes()))
    assert files[0] == files[1]
    # table sizes: id byte + body
    assert len(files[0][0]) == 1 + 84
    assert len(files[0][1]) == 1 + 32


def test_unknown_level_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run(["keygen", "--variant", "additive", "--level", "2"])
    assert exc.value.code == 2


def test_sign_verify_round_trip(tmp_path, keypair):
    pk, sk = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"message to sign")
    sig = tmp_path / "out.sig"
    assert run(["sign", "--key", str(sk), "--in", str(msg),
                "--out", str(sig), "--seed", "0102"]) == 0
    assert run(["verify", "--key", str(pk), "--in", str(msg),
                "--sig", str(sig)]) == 0
    # deterministic signing
    sig2 = tmp_path / "out2.sig"
    assert run(["sign", "--key", str(sk), "--in", str(msg),
                "--out", str(sig2), "--seed", "0102"]) == 0
    assert sig.read_bytes() == sig2.read_bytes()


def test_verify_exit_codes(tmp_path, keypair):
    pk, sk = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"payload")
    sig = tmp_path / "out.sig"
    run(["sign", "--key", str(sk), "--in", str(msg), "--out", str(sig),
         "--seed", "03"])
    blob = bytearray(sig.read_bytes())
    # corrupt one byte inside an opened share -> reject (exit 1)
    blob[-1] ^= 1
    sig.write_bytes(bytes(blob))
    assert run(["verify", "--key", str(pk), "--in", str(msg),
                "--sig", str(sig)]) == 1
    # truncate -> malformed (exit 2)
    sig.write_bytes(bytes(blob[:50]))
    assert run(["verify", "--key", str(pk), "--in", str(msg),
                "--sig", str(sig)]) == 2


def test_verify_auth_path_past_the_layout_limit_exits_2(tmp_path, keypair, capsys):
    # 20 digests parse at no round of a t1 signature: three of 250 leaves
    # never need more than 19
    pk, sk = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"payload")
    sig = tmp_path / "out.sig"
    run(["sign", "--key", str(sk), "--in", str(msg), "--out", str(sig), "--seed", "04"])
    ps = params.parameter_set("threshold", 1)
    decoded = sign_threshold.decode(ps, sig.read_bytes())
    auth = decoded.columns["auth"][0]
    auth += [bytes(ps.suite.digest_bytes)] * (20 - len(auth))
    sig.write_bytes(sign_threshold.encode(ps, decoded))
    assert run(["verify", "--key", str(pk), "--in", str(msg), "--sig", str(sig)]) == 2
    assert "authentication path too long" in capsys.readouterr().err


def test_cli_closes_every_file_it_reads(tmp_path, keypair, monkeypatch):
    pk, sk = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"payload")
    sig = tmp_path / "out.sig"
    sig.write_bytes(b"x" * 20000)
    kat = tmp_path / "kat.txt"
    assert run(["kat", "--variant", "threshold", "--level", "1",
                "--count", "1", "--out", str(kat)]) == 0
    keygen = ["keygen", "--variant", "threshold", "--level", "1", "--seed", "00112233"]
    # an unclosed file warns when it is freed, where an error is unraisable
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error", ResourceWarning)
        codes = [run(keygen + ["--pk", str(pk), "--sk", str(sk)]),
                 run(["sign", "--key", str(sk), "--in", str(msg), "--out", str(sig),
                      "--seed", "04"]),
                 run(["verify", "--key", str(pk), "--in", str(msg), "--sig", str(sig)]),
                 run(["verify", "--key", str(pk), "--in", str(sig), "--sig", str(sig)]),
                 run(["kat", "--variant", "threshold", "--level", "1",
                      "--check", str(kat)]),
                 # outputs naming a directory: the write fails with exit 2
                 run(["sign", "--key", str(sk), "--in", str(msg), "--out", str(tmp_path)]),
                 run(keygen + ["--pk", str(tmp_path), "--sk", str(sk)])]
        gc.collect()
    assert codes == [0, 0, 0, 1, 0, 2, 2]
    assert [str(w.message) for w in caught] == []
    assert [repr(u.exc_value) for u in unraisable] == []


def test_sign_over_longer_file_leaves_no_stale_tail(tmp_path, keypair):
    pk, sk = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"payload")
    fresh, sig = tmp_path / "fresh.sig", tmp_path / "out.sig"
    sign = ["sign", "--key", str(sk), "--in", str(msg), "--seed", "05", "--out"]
    assert run(sign + [str(fresh)]) == 0
    sig.write_bytes(b"\xa5" * (3 * fresh.stat().st_size))
    assert run(sign + [str(sig)]) == 0
    assert sig.read_bytes() == fresh.read_bytes()
    assert run(["verify", "--key", str(pk), "--in", str(msg), "--sig", str(sig)]) == 0


def test_keygen_rewrites_existing_files_in_place(tmp_path, keypair):
    pk, sk = keypair
    inodes = (pk.stat().st_ino, sk.stat().st_ino)
    link = tmp_path / "sk-link.bin"
    os.link(sk, link)
    assert run(["keygen", "--variant", "additive", "--level", "1", "--seed", "aabbcc",
                "--pk", str(pk), "--sk", str(sk)]) == 0
    assert (pk.stat().st_ino, sk.stat().st_ino) == inodes
    assert link.read_bytes() == sk.read_bytes()
    assert len(pk.read_bytes()) == 1 + 84 and len(sk.read_bytes()) == 1 + 32


@pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
def test_new_secret_key_is_owner_only(tmp_path):
    pk, sk = tmp_path / "pk.bin", tmp_path / "sk.bin"
    old = os.umask(0o022)
    try:
        assert run(["keygen", "--variant", "threshold", "--level", "1",
                    "--pk", str(pk), "--sk", str(sk)]) == 0
    finally:
        os.umask(old)
    assert stat.S_IMODE(sk.stat().st_mode) == 0o600
    assert stat.S_IMODE(pk.stat().st_mode) == 0o644
    # an existing file keeps its mode
    sk.chmod(0o640)
    assert run(["keygen", "--variant", "threshold", "--level", "1",
                "--pk", str(pk), "--sk", str(sk)]) == 0
    assert stat.S_IMODE(sk.stat().st_mode) == 0o640


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that "
                    "accepts opens and fails writes")
def test_failed_write_closes_its_descriptor(tmp_path, keypair, monkeypatch, capsys):
    pk, sk = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"payload")
    # through a link, so that a writer which replaced its target could not
    # replace the device
    out = tmp_path / "full.sig"
    out.symlink_to("/dev/full")
    opened, closed = [], []
    real_open, real_close = os.open, os.close
    monkeypatch.setattr(os, "open", lambda *a: opened.append(real_open(*a)) or opened[-1])
    monkeypatch.setattr(os, "close", lambda fd: closed.append(fd) or real_close(fd))
    code = run(["sign", "--key", str(sk), "--in", str(msg), "--out", str(out)])
    monkeypatch.undo()
    assert code == 2
    assert len(opened) == 1 and closed == opened
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sign", "verify"])
def test_variant_mismatch_is_usage_error(tmp_path, keypair, command):
    # sign and verify read the parameter set from the key file's id byte and
    # take no --variant or --level, not even one that matches the key
    pk, sk = keypair
    msg = tmp_path / "m"
    msg.write_bytes(b"x")
    rest = {"sign": ["--key", str(sk), "--in", str(msg), "--out", str(tmp_path / "s")],
            "verify": ["--key", str(pk), "--in", str(msg), "--sig", str(tmp_path / "s")]}
    for variant, level in [("additive", "1"), ("threshold", "1")]:
        with pytest.raises(SystemExit) as exc:
            run([command, "--variant", variant, "--level", level, *rest[command]])
        assert exc.value.code == 2
    assert not (tmp_path / "s").exists()


def test_estimate_seed_is_usage_error(capsys):
    # estimate draws nothing; a --seed once went unread, and exited 0 on "zz"
    with pytest.raises(SystemExit) as exc:
        run(["estimate", "--variant", "threshold", "--level", "1", "--seed", "zz"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_readme_cli_lines_list_every_option():
    # each ``mira <cmd>`` line of README's CLI block names exactly the
    # options of that subcommand's parser, help aside
    block = README.read_text().split("## CLI", 1)[1].split("```\n", 2)[1]
    lines = [line.split() for line in block.splitlines() if line.startswith("mira ")]
    documented = {words[1]: set(re.findall(r"--[\w-]+", " ".join(words))) for words in lines}
    subparsers, = (a for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
    options = {cmd: {flag for action in sp._actions for flag in action.option_strings}
               - {"-h", "--help"} for cmd, sp in subparsers.choices.items()}
    assert documented == options
    assert len(lines) == len(options)          # one line per subcommand


def test_estimate_output(capsys):
    assert run(["estimate", "--variant", "additive", "--level", "1"]) == 0
    out = capsys.readouterr().out
    assert "sig_bytes=5640" in out
    assert "pk_bytes=84" in out
    assert "log2_forgery_cost=128.00" in out


def test_estimate_overrides(capsys):
    assert run(["estimate", "--variant", "threshold", "--level", "1",
                "--tau", "9"]) == 0
    out = capsys.readouterr().out
    line = [ln for ln in out.splitlines() if ln.startswith("log2_forgery_cost=")][0]
    assert float(line.split("=")[1]) > 128


def test_kat_generate_check_and_mutation(tmp_path, capsys):
    kat = tmp_path / "kat.txt"
    assert run(["kat", "--variant", "threshold", "--level", "1",
                "--count", "2", "--out", str(kat)]) == 0
    assert run(["kat", "--variant", "threshold", "--level", "1",
                "--check", str(kat)]) == 0
    # regeneration is identical
    kat2 = tmp_path / "kat2.txt"
    run(["kat", "--variant", "threshold", "--level", "1", "--count", "2",
         "--out", str(kat2)])
    assert kat.read_text() == kat2.read_text()
    # flip one hex digit of the pk field: the check names the field
    text = kat.read_text()
    lines = text.splitlines()
    for i, ln in enumerate(lines):
        if ln.startswith("pk = "):
            digit = ln[5]
            lines[i] = "pk = " + ("0" if digit != "0" else "1") + ln[6:]
            break
    kat.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run(["kat", "--variant", "threshold", "--level", "1",
                "--check", str(kat)]) == 1
    assert "field pk" in capsys.readouterr().err


def test_sign_missing_message_file_exits_2(tmp_path, keypair, capsys):
    pk, sk = keypair
    assert run(["sign", "--key", str(sk), "--in", str(tmp_path / "absent"),
                "--out", str(tmp_path / "s")]) == 2
    assert "absent" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_verify_missing_message_file_exits_2(tmp_path, keypair, capsys):
    pk, sk = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"payload")
    sig = tmp_path / "out.sig"
    assert run(["sign", "--key", str(sk), "--in", str(msg), "--out", str(sig)]) == 0
    capsys.readouterr()
    assert run(["verify", "--key", str(pk), "--in", str(tmp_path / "absent"),
                "--sig", str(sig)]) == 2
    assert "absent" in capsys.readouterr().err


def test_verify_noncanonical_public_key_exits_2(tmp_path, capsys):
    pk, sk = tmp_path / "pk.bin", tmp_path / "sk.bin"
    msg, sig = tmp_path / "msg.bin", tmp_path / "out.sig"
    msg.write_bytes(b"payload")
    assert run(["keygen", "--variant", "additive", "--level", "3",
                "--seed", "0a", "--pk", str(pk), "--sk", str(sk)]) == 0
    assert run(["sign", "--key", str(sk), "--in", str(msg), "--out", str(sig)]) == 0
    verify = ["verify", "--key", str(pk), "--in", str(msg), "--sig", str(sig)]
    assert run(verify) == 0
    blob = pk.read_bytes()
    pk.write_bytes(blob[:-1] + bytes([blob[-1] ^ 0x10]))   # padding nibble
    capsys.readouterr()
    assert run(verify) == 2
    assert "padding" in capsys.readouterr().err


def test_kat_check_missing_file_exits_2(tmp_path, capsys):
    assert run(["kat", "--variant", "threshold", "--level", "1",
                "--check", str(tmp_path / "absent.txt")]) == 2
    assert "absent.txt" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["", "# variant = threshold, level = 1\n\n",
                                  "hello\n", "count = 0\nseed = 00\n"],
                         ids=["empty", "no-records", "junk", "missing-fields"])
def test_kat_check_without_complete_records_exits_2(tmp_path, capsys, text):
    kat = tmp_path / "kat.txt"
    kat.write_text(text)
    assert run(["kat", "--variant", "threshold", "--level", "1",
                "--check", str(kat)]) == 2
    captured = capsys.readouterr()
    assert "not a KAT file" in captured.err
    assert "ok" not in captured.out


def test_keygen_bad_seed_exits_2(tmp_path, capsys):
    pk, sk = tmp_path / "pk.bin", tmp_path / "sk.bin"
    assert run(["keygen", "--variant", "additive", "--level", "1", "--seed", "zz",
                "--pk", str(pk), "--sk", str(sk)]) == 2
    assert "--seed must be a hex string" in capsys.readouterr().err
    assert not pk.exists() and not sk.exists()


def test_sign_bad_seed_exits_2(tmp_path, keypair, capsys):
    pk, sk = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"payload")
    assert run(["sign", "--key", str(sk), "--in", str(msg),
                "--out", str(tmp_path / "s"), "--seed", "xyz"]) == 2
    assert "--seed must be a hex string" in capsys.readouterr().err
    assert not (tmp_path / "s").exists()


def test_kat_seed_is_parsed_as_hex(tmp_path, capsys):
    kat = ["kat", "--variant", "threshold", "--level", "1", "--count", "1", "--out"]
    assert run(kat + [str(tmp_path / "bad"), "--seed", "zz"]) == 2
    assert "--seed must be a hex string" in capsys.readouterr().err
    assert not (tmp_path / "bad").exists()
    # an empty seed is an empty master seed, not the default's 48 zero bytes
    assert run(kat + [str(tmp_path / "default")]) == 0
    assert run(kat + [str(tmp_path / "empty"), "--seed", ""]) == 0
    assert (tmp_path / "empty").read_text() != (tmp_path / "default").read_text()


@pytest.mark.parametrize("argv", [
    *(["estimate", "--variant", "threshold", "--level", "1", f"--{flag}", value]
      for flag in ("q", "m", "n", "k", "r", "N", "ell", "tau", "eta") for value in ("0", "-1")),
    ["kat", "--variant", "additive", "--level", "1", "--count", "0"],
    ["kat", "--variant", "additive", "--level", "1", "--count", "-2"],
    ["estimate", "--variant", "threshold", "--level", "1", "--N", "x"],
], ids=lambda argv: " ".join(argv[-2:]))
def test_non_positive_integer_option_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    # zero once divided in the estimator (exit 1) or gave a nonsense estimate
    # (exit 0), and --count -2 wrote a KAT file that its own --check rejects
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert "must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "kat.txt").exists()


@pytest.mark.parametrize("override, message", [
    pytest.param(override, message, id=" ".join(override)) for override, message in [
        (["--q", "1"], "q must be at least 2"),
        (["--k", "1000"], "k must be in [1, m*n)"),
        (["--r", "40"], "rank bound out of range"),
        (["--omega", "nan"], "--omega must be a number in [2, 3]"),
        (["--omega", "-3"], "--omega must be a number in [2, 3]"),
        (["--omega", "inf"], "--omega must be a number in [2, 3]"),
    ]])
def test_estimate_rejects_sets_that_are_no_minrank_instance(override, message, capsys):
    # each once printed an estimate and exited 0
    assert run(["estimate", "--variant", "threshold", "--level", "1", *override]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_estimate_accepts_omega_in_range(capsys):
    for omega in ("2", "2.37", "3"):
        assert run(["estimate", "--variant", "threshold", "--level", "1",
                    "--omega", omega]) == 0


def test_parser_is_built_once_and_reused_unchanged(tmp_path, capsys):
    estimate = ["estimate", "--variant", "threshold", "--level", "1"]
    cli.build_parser.cache_clear()
    assert run(estimate) == 0
    plain = capsys.readouterr().out
    assert run(estimate + ["--tau", "9", "--omega", "2.5"]) == 0
    assert capsys.readouterr().out != plain
    with pytest.raises(SystemExit) as exc:
        run(["keygen", "--variant", "additive", "--level", "2"])
    assert exc.value.code == 2
    assert run(["estimate", "--variant", "threshold", "--level", "1", "--r", "40"]) == 2
    capsys.readouterr()
    # neither the overrides nor the usage errors carry over to the next call
    assert run(estimate) == 0
    assert capsys.readouterr().out == plain
    pk, sk = tmp_path / "pk.bin", tmp_path / "sk.bin"
    assert run(["keygen", "--variant", "additive", "--level", "1", "--seed", "aabbcc",
                "--pk", str(pk), "--sk", str(sk)]) == 0
    assert len(pk.read_bytes()) == 1 + 84
    assert cli.build_parser.cache_info().misses == 1


def test_estimate_accepts_eta_override():
    # eta is an estimator knob only; the signing code rejects eta != 1
    assert run(["estimate", "--variant", "additive", "--level", "1", "--eta", "2"]) == 0


def test_estimate_accepts_overrides_signing_rejects():
    # building a set never validates it: the estimator prices any override,
    # and only sign_params() insists on an additive N that is a power of two
    assert run(["estimate", "--variant", "additive", "--level", "1", "--N", "100"]) == 0
    with pytest.raises(ValueError):
        params.parameter_set("additive", 1).with_overrides(N=100).sign_params()
