import json
import os

import pytest

from oracles import use_modulus
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


def test_code_info_refuses_a_large_order_of_two(capsys):
    # the order of 2 mod n is only looked for up to 10, not searched for
    n = "1000000000000000001"
    code, out, err = run(capsys, "code-info", "-n", n, "-t", "1")
    assert code == 2 and out == ""
    assert err == f"error: order of 2 mod {n} exceeds 10; supported rings stop at m=10\n"


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


def test_min_distance_refuses_a_rank_past_the_scan_bound(capsys):
    # (63,1) has rank 57: a 4^57 scan is refused at once, not started
    code, out, err = run(capsys, "min-distance", "-n", "63", "-t", "1")
    assert code == 2
    assert out == ""
    assert "rank 57 exceeds the enumeration bound 12" in err
    assert "Traceback" not in err


def test_min_distance_has_no_rank_option(capsys):
    # a bound raised past 12 used to start that scan
    with pytest.raises(SystemExit) as exc:
        main(["min-distance", "-n", "63", "-t", "1", "--max-rank", "100"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments: --max-rank 100" in err
    assert "Traceback" not in err


def test_simulate_counts_failures_and_miscorrections(capsys):
    code, out, _ = run(capsys, "--json", "simulate", "-n", "15", "-t", "2",
                       "--weight", "2", "--trials", "200", "--seed", "1")
    result = json.loads(out)
    assert code == 0
    assert (result["successes"], result["failures"], result["miscorrections"]) == (200, 0, 0)

    # past the radius a decode fails or, now and then, lands on another codeword
    code, out, _ = run(capsys, "--json", "simulate", "-n", "15", "-t", "2",
                       "--weight", "3", "--trials", "400", "--seed", "1")
    result = json.loads(out)
    assert code == 0
    assert result["successes"] + result["failures"] + result["miscorrections"] == 400
    assert result["miscorrections"] > 0

    code, out, _ = run(capsys, "simulate", "-n", "15", "-t", "2",
                       "--weight", "3", "--trials", "400", "--seed", "1")
    assert out.startswith(f"{result['successes']}/400 decoded exactly, "
                          f"{result['failures']} failed, "
                          f"{result['miscorrections']} miscorrected")


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


# x^4 + x^3 + 1, a primitive residue other than the built-in x^4 + x + 1:
# its Graeffe lift is a valid m = 4 modulus other than x^4 + 2x^2 + 3x + 1
FAULT_M4 = [1, 0, 0, 1, 1]


def test_reproduce_paper_fault_injection(monkeypatch, capsys):
    # a different presentation of GR(4,4) must be flagged by the decode example
    use_modulus(monkeypatch, FAULT_M4)
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


def test_reproduce_paper_fault_injection_json(monkeypatch, capsys):
    use_modulus(monkeypatch, FAULT_M4)
    code, out, _ = run(capsys, "--json", "reproduce-paper", "--quick")
    assert code == 1
    payload = json.loads(out)
    failed = [c for c in payload["checks"] if not c["ok"]]
    assert "decode-example error" in [c["name"] for c in failed]
    assert payload["passed"] == payload["total"] - len(failed) < payload["total"]
    assert all(c["expected"] != c["got"] for c in failed)


@pytest.mark.parametrize("argv,message", [
    (("code-info", "-n", "14", "-t", "1"), "length n=14 must be odd and at least 3"),
    (("code-info", "-n", "1", "-t", "1"), "length n=1 must be odd and at least 3"),
    (("code-info", "-n", "15", "-t", "0"), "need 1 <= t with 2t-1 < n; got n=15, t=0"),
    (("code-info", "-n", "15", "-t", "8"), "need 1 <= t with 2t-1 < n; got n=15, t=8"),
    (("decode", "-n", "15", "-t", "2", "--word", "0" * 14), "word length 14 != code length 15"),
    (("encode", "-n", "15", "-t", "2", "--msg", "103201x"),
     "invalid digit 'x' at position 6; expected 0-3"),
    (("code-info", "-n", "23", "-t", "1"),
     "order of 2 mod 23 exceeds 10; supported rings stop at m=10"),
    (("min-distance", "-n", "63", "-t", "1"),
     "rank 57 exceeds the enumeration bound 12 (4^57 codewords)"),
    (("encode", "-n", "15", "-t", "2", "--msg", "12"), "message length 2 != rank k=7"),
    (("decode", "-n", "15", "-t", "2", "--word", "31302322101003x"),
     "invalid digit 'x' at position 14; expected 0-3"),
], ids=["even-n", "short-n", "t-zero", "t-too-large", "word-length", "msg-digit",
        "m-above-10", "scan-bound", "msg-length", "word-digit"])
def test_error_paths_end_in_one_line(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"
    assert "Traceback" not in err


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
