import gc
import sys
import warnings

import pytest

from mira import cli, params


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


def test_cli_closes_every_file_it_reads(tmp_path, keypair, monkeypatch):
    pk, sk = keypair
    msg = tmp_path / "msg.bin"
    msg.write_bytes(b"payload")
    sig = tmp_path / "out.sig"
    kat = tmp_path / "kat.txt"
    assert run(["kat", "--variant", "threshold", "--level", "1",
                "--count", "1", "--out", str(kat)]) == 0
    # an unclosed file warns when it is freed, where an error is unraisable
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("error", ResourceWarning)
        codes = [run(["sign", "--key", str(sk), "--in", str(msg), "--out", str(sig),
                      "--seed", "04"]),
                 run(["verify", "--key", str(pk), "--in", str(msg), "--sig", str(sig)]),
                 run(["verify", "--key", str(pk), "--in", str(sig), "--sig", str(sig)]),
                 run(["kat", "--variant", "threshold", "--level", "1",
                      "--check", str(kat)])]
        gc.collect()
    assert codes == [0, 0, 1, 0]
    assert [str(w.message) for w in caught] == []
    assert [repr(u.exc_value) for u in unraisable] == []


def test_variant_mismatch_is_usage_error(tmp_path, keypair):
    pk, sk = keypair
    msg = tmp_path / "m"
    msg.write_bytes(b"x")
    with pytest.raises(SystemExit):
        run(["sign", "--variant", "additive", "--level", "1", "--key", str(sk),
             "--in", str(msg), "--out", str(tmp_path / "s")])


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


def test_estimate_accepts_eta_override():
    # eta is an estimator knob only; the signing code rejects eta != 1
    assert run(["estimate", "--variant", "additive", "--level", "1", "--eta", "2"]) == 0


def test_estimate_accepts_overrides_signing_rejects():
    # building a set never validates it: the estimator prices any override,
    # and only sign_params() insists on an additive N that is a power of two
    assert run(["estimate", "--variant", "additive", "--level", "1", "--N", "100"]) == 0
    with pytest.raises(ValueError):
        params.parameter_set("additive", 1).with_overrides(N=100).sign_params()
