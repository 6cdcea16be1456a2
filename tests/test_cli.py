import json
import os

import pytest

from z4negacyclic.cli import main

REFERENCE_WORD = "313023221010030"
DATA_DIR = os.path.join(os.path.dirname(__file__), "data")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_code_info(capsys):
    code, out, _ = run(capsys, "code-info", "-n", "15", "-t", "2")
    assert code == 0
    assert "k=7" in out and "designed distance 5" in out

    code, out, _ = run(capsys, "code-info", "-n", "15", "-t", "1")
    assert code == 0
    assert "k=11" in out and "designed distance 3" in out

    code, out, _ = run(capsys, "--json", "code-info", "-n", "9", "-t", "1")
    info = json.loads(out)
    assert info["m"] == 6
    assert info["k"] == 9 - (len(info["generator"]) - 1)


def test_encode_decode_round_trip(capsys):
    code, out, _ = run(capsys, "encode", "-n", "15", "-t", "2", "--msg", "1032012")
    assert code == 0
    word = out.strip()
    code, out, _ = run(capsys, "decode", "-n", "15", "-t", "2", "--word", word)
    assert code == 0
    assert "error:    " + "0" * 15 in out


def test_encode_rejects_a_message_of_the_wrong_length(capsys):
    # the message must have k = 7 symbols; n = 15 is the codeword length
    code, out, err = run(capsys, "encode", "-n", "15", "-t", "2", "--msg", "12")
    assert code == 2 and out == ""
    assert err == "error: message length 2 != rank k=7\n"


def test_decode_reference_word(capsys):
    code, out, _ = run(capsys, "--json", "decode", "-n", "15", "-t", "2",
                       "--word", REFERENCE_WORD)
    assert code == 0
    payload = json.loads(out)
    assert payload["error"] == "000010000000030"


def test_decode_json_trace_pinned(capsys):
    code, out, _ = run(capsys, "--json", "decode", "-n", "15", "-t", "2",
                       "--word", REFERENCE_WORD, "--trace")
    assert code == 0
    with open(os.path.join(DATA_DIR, "decode_trace.json")) as fh:
        assert json.loads(out) == json.load(fh)


def test_decode_malformed_word(capsys):
    code, _, err = run(capsys, "decode", "-n", "15", "-t", "2",
                       "--word", "01234" + "0" * 10)
    assert code == 2
    assert "position 4" in err


def test_decode_overweight_corruption(capsys):
    # weight-3 corruption of a codeword on the t=2 code: failure or a
    # success within distance t (here: distance 10 code, so failure)
    code, out, _ = run(capsys, "--json", "encode", "-n", "15", "-t", "2",
                       "--msg", "1000000")
    word = list(json.loads(out)["word"])
    for pos in (0, 5, 9):
        word[pos] = str((int(word[pos]) + 1) % 4)
    code, out, _ = run(capsys, "--json", "decode", "-n", "15", "-t", "2",
                       "--word", "".join(word))
    payload = json.loads(out)
    if payload["success"]:
        from z4negacyclic.negacyclic import lee_distance, word_from_str
        got = word_from_str(payload["codeword"], 15)
        assert lee_distance(got, [int(c) for c in word]) <= 2
    else:
        assert code == 1


def test_min_distance(capsys):
    code, out, _ = run(capsys, "min-distance", "-n", "15", "-t", "3")
    assert code == 0
    assert out.strip() == "10"


def test_simulate_guaranteed_weights(capsys):
    code, out, _ = run(capsys, "simulate", "-n", "15", "-t", "2",
                       "--weight", "2", "--trials", "1000", "--seed", "1")
    assert code == 0
    assert "1000/1000" in out

    code, out, _ = run(capsys, "simulate", "-n", "15", "-t", "2",
                       "--weight", "0", "--trials", "50", "--seed", "3")
    assert "50/50" in out


def test_simulate_deterministic(capsys):
    args = ("--json", "simulate", "-n", "15", "-t", "3",
            "--weight", "3", "--trials", "40", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_reproduce_paper_quick(capsys):
    code, out, _ = run(capsys, "reproduce-paper", "--quick")
    assert code == 0
    assert "FAIL" not in out


def test_reproduce_paper_fault_injection(tmp_path, monkeypatch, capsys):
    # a valid but different m=4 modulus must be flagged by the decode example
    override = tmp_path / "moduli.json"
    override.write_text(json.dumps({"4": [1, 0, 2, 3, 1]}))
    monkeypatch.setenv("Z4NEGACYCLIC_MODULI", str(override))
    code, out, _ = run(capsys, "reproduce-paper", "--quick")
    assert code == 1
    assert "FAIL decode-example" in out


def test_reproduce_paper_quick_json(capsys):
    code, out, _ = run(capsys, "--json", "reproduce-paper", "--quick")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"checks", "passed", "total"}
    assert payload["passed"] == payload["total"] == len(payload["checks"]) > 0
    for check in payload["checks"]:
        assert set(check) == {"name", "ok", "expected", "got"}
        assert check["ok"] is True
        assert "RingElement(" not in json.dumps([check["expected"], check["got"]])
    synd = next(c for c in payload["checks"] if c["name"] == "decode-example syndromes")
    assert synd["expected"] == ["2,3,1,3", "1,2,1,2"]
    _, text, _ = run(capsys, "reproduce-paper", "--quick")
    assert [f"PASS {c['name']}" for c in payload["checks"]] == text.splitlines()[:-1]


def test_reproduce_paper_fault_injection_json(tmp_path, monkeypatch, capsys):
    override = tmp_path / "moduli.json"
    override.write_text(json.dumps({"4": [1, 0, 2, 3, 1]}))
    monkeypatch.setenv("Z4NEGACYCLIC_MODULI", str(override))
    code, out, _ = run(capsys, "--json", "reproduce-paper", "--quick")
    assert code == 1
    payload = json.loads(out)
    failed = [c for c in payload["checks"] if not c["ok"]]
    assert "decode-example error" in [c["name"] for c in failed]
    assert payload["passed"] == payload["total"] - len(failed) < payload["total"]
    assert all(c["expected"] != c["got"] for c in failed)


def test_modulus_override_is_validated(tmp_path, monkeypatch, capsys):
    override = tmp_path / "moduli.json"
    override.write_text(json.dumps({"4": [1, 0, 1, 0, 1]}))  # reducible mod 2
    monkeypatch.setenv("Z4NEGACYCLIC_MODULI", str(override))
    code, _, err = run(capsys, "code-info", "-n", "15", "-t", "2")
    assert code == 2
    assert "irreducible" in err


@pytest.mark.parametrize("content,message", [
    (None, "cannot read"),
    ("{\"4\": [1, 3,", "invalid JSON"),
    ("[1, 3, 2, 0, 1]", "JSON object"),
    ("{\"4\": 7}", "list of digits"),
    ("{\"4\": \"11001\"}", "list of digits"),
    ("{\"4\": [1.9, 1, 0, 0, 1]}", "list of digits"),
    ("{\"4\": [5, 1, 0, 0, 1]}", "list of digits"),
    ("{\"4\": [true, true, false, false, true]}", "list of digits"),
])
def test_modulus_override_bad_file(tmp_path, monkeypatch, capsys, content, message):
    override = tmp_path / "moduli.json"
    if content is not None:
        override.write_text(content)
    monkeypatch.setenv("Z4NEGACYCLIC_MODULI", str(override))
    code, _, err = run(capsys, "code-info", "-n", "15", "-t", "2")
    assert code == 2
    assert "Traceback" not in err
    assert message in err
    assert "Z4NEGACYCLIC_MODULI" in err and str(override) in err


@pytest.mark.parametrize("flag,value", [
    ("--trials", "-5"), ("--weight", "-1"), ("--weight", "16"),
])
def test_simulate_rejects_bad_arguments(capsys, flag, value):
    args = {"--trials": "10", "--weight": "1", flag: value}
    code, out, err = run(capsys, "simulate", "-n", "15", "-t", "2",
                         "--weight", args["--weight"], "--trials", args["--trials"])
    assert code == 2
    assert out == ""
    assert flag in err and value in err


def test_simulate_accepts_the_full_weight_range(capsys):
    code, out, _ = run(capsys, "simulate", "-n", "15", "-t", "2",
                       "--weight", "15", "--trials", "0")
    assert code == 0
    assert "0/0 decoded exactly" in out
