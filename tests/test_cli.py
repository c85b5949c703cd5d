import csv
import io
import json
import os

import pytest

from qdesign import designs as D
from qdesign import suites as S
from qdesign import zoo as Z
from qdesign.cli import _flatten, main
from qdesign.linear import save_generator


def _run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_zoo_list(capsys):
    rc, out, _ = _run(capsys, "zoo", "list")
    assert rc == 0
    ids = {row["id"] for row in json.loads(out)["results"]["zoo"]}
    assert "ternary-golay" in ids and "trace123" in ids


def test_zoo_build_and_profile_file(tmp_path, capsys):
    gen = tmp_path / "golay.txt"
    rc, _, _ = _run(capsys, "zoo", "build", "ternary-golay", "--out", str(gen))
    assert rc == 0
    rc, out, _ = _run(capsys, "profile", "--file", str(gen), "--rho")
    assert rc == 0
    prof = json.loads(out)["results"]["profile"]
    assert prof["d"] == 5 and prof["s_dual"] == 2 and prof["rho"] == 2
    assert prof["perfect"] is True


def test_profile_zoo_params(capsys):
    rc, out, _ = _run(capsys, "profile", "--zoo", "drs", "--q", "8", "--k", "3")
    assert rc == 0
    prof = json.loads(out)["results"]["profile"]
    assert prof["mds"] is True and prof["d"] == 7


def test_profile_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a header\n")
    rc, _, err = _run(capsys, "profile", "--file", str(bad))
    assert rc == 2 and "error" in err


def test_missing_source_exit_2(capsys):
    rc, _, err = _run(capsys, "profile")
    assert rc == 2


def test_design_max_strength(capsys):
    rc, out, _ = _run(capsys, "design", "--zoo", "ternary-golay",
                      "--weight", "5", "--max-strength")
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["strengths"]["t_qary"] == 3
    assert res["strengths"]["t_classical"] == 4


def test_design_failure_exit_1(capsys):
    rc, out, _ = _run(capsys, "design", "--zoo", "simplex", "--q", "3", "--m", "3",
                      "--weight", "9", "--t", "3")
    assert rc == 1
    chk = json.loads(out)["results"]["checks"][0]
    assert chk["ok"] is False and chk["witness"] is not None


def test_design_fixed_coords_requires_transitivity(capsys):
    rc, _, err = _run(capsys, "design", "--zoo", "ternary-golay",
                      "--weight", "5", "--t", "3", "--fixed-coords")
    assert rc == 2 and "transitivity" in err
    rc, out, _ = _run(capsys, "design", "--zoo", "ternary-golay", "--weight", "5",
                      "--t", "3", "--fixed-coords", "--assert-transitive", "3")
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["checks"][0]["lambda"] == 1
    assert any("asserted" in p for p in res["provisos"])


def test_design_fixed_coords_empty_class_is_vacuous(capsys):
    # the ternary Golay code has no words of weight 7
    rc, out, _ = _run(capsys, "design", "--zoo", "ternary-golay", "--weight", "7",
                      "--t", "2", "--fixed-coords", "--assert-transitive", "2")
    assert rc == 1
    chk = json.loads(out)["results"]["checks"][0]
    assert chk["vacuous"] is True and chk["ok"] is False and chk["lambda"] is None


def test_design_fixed_coords_strength_above_weight_exit_2(capsys):
    rc, _, err = _run(capsys, "design", "--zoo", "ternary-golay", "--weight", "5",
                      "--t", "6", "--fixed-coords", "--assert-transitive", "6")
    assert rc == 2 and "need 1 <= t <= w" in err


def test_design_strength_outside_range_exit_2_on_empty_class(capsys):
    # A_7 = 0 for the ternary Golay code: --t 0 is malformed, not vacuous
    rc, _, err = _run(capsys, "design", "--zoo", "ternary-golay", "--weight", "7", "--t", "0")
    assert rc == 2 and "need 1 <= t <= w" in err


def test_design_trace_fixed_coords(capsys):
    # the parametrized family builder serves weight 27 without enumeration
    rc, out, _ = _run(capsys, "design", "--zoo", "trace123", "--m", "5",
                      "--weight", "27", "--t", "2", "--fixed-coords")
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["checks"][0]["lambda"] == 702
    assert res["family"]["blocks"] == 1014816


def test_design_classical_flag(capsys):
    rc, out, _ = _run(capsys, "design", "--zoo", "ternary-golay",
                      "--weight", "5", "--t", "4", "--classical")
    assert rc == 0
    assert json.loads(out)["results"]["checks"][0]["lambda"] == 1


def test_criteria_command(capsys):
    rc, out, _ = _run(capsys, "criteria", "--zoo", "ternary-golay")
    assert rc == 0
    res = json.loads(out)["results"]
    gap = next(c for c in res["criteria"] if c["criterion"] == "parameter-gap")
    assert gap["t"] == 3


def test_criteria_on_counts_past_int64(capsys):
    """hamming(3,5), [121,116]_3: its weight distribution comes from the
    dual by MacWilliams, and its counts pass 2^63; they stay exact."""
    rc, out, _ = _run(capsys, "criteria", "--zoo", "hamming", "--q", "3", "--m", "5")
    assert rc == 0
    res = json.loads(out)["results"]
    counts = [int(v) for v in res["profile"]["counts"].values()]
    assert sum(counts) == 3 ** 116 and max(counts) >= 2 ** 63
    perfect = next(c for c in res["criteria"] if c["criterion"] == "perfect")
    assert perfect["applies"] and perfect["t"] == 2


def test_reproduce_suite_and_exit_code(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    rc, out, _ = _run(capsys, "reproduce", "drs", "--out", str(out_path))
    assert rc == 0
    assert "PASS drs-8-3-A7" in out
    report = json.loads(out_path.read_text())
    assert report["results"]["summary"]["FAIL"] == 0


def test_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        rc, _, _ = _run(capsys, "profile", "--zoo", "ternary-golay",
                        "--out", str(path))
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_format(capsys):
    rc, out, _ = _run(capsys, "profile", "--zoo", "rt6", "--format", "csv")
    assert rc == 0
    assert any(line.startswith("profile.d,6") for line in out.splitlines())


def test_csv_output_is_two_columns(capsys, tmp_path):
    # summaries, sources and code reprs hold commas; check dicts are keyed by index
    out_path = tmp_path / "rep.csv"
    runs = [("profile", "--zoo", "ternary-golay", "--format", "csv"),
            ("design", "--zoo", "ternary-golay", "--weight", "5", "--t", "2",
             "--format", "csv"),
            ("zoo", "list", "--format", "csv"),
            ("--threads", "1", "reproduce", "golay", "--format", "csv",
             "--out", str(out_path))]
    texts = []
    for argv in runs:
        rc, out, _ = _run(capsys, *argv)
        assert rc == 0
        texts.append(out_path.read_text() if "--out" in argv else out)
    for text in texts:
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(row) == 2 for row in rows)
    assert ["checks.0.lambda", "6"] in list(csv.reader(io.StringIO(texts[1])))
    assert ["code", "LinearCode[11,6]_3 'ternary-golay'"] in list(csv.reader(io.StringIO(texts[0])))


def test_csv_keys_lists_of_strings_by_index(capsys):
    argv = ("design", "--zoo", "drs", "--q", "8", "--k", "3", "--weight", "7", "--t", "3",
            "--fixed-coords")
    _, out, _ = _run(capsys, *argv)
    provisos = json.loads(out)["results"]["provisos"]
    _, out, _ = _run(capsys, *argv, "--format", "csv")
    rows = [row for row in csv.reader(io.StringIO(out)) if row[0].startswith("provisos")]
    assert provisos and rows == [[f"provisos.{i}", p] for i, p in enumerate(provisos)]
    # two strings with spaces stay apart; a list of numbers is still one field
    assert _flatten({"p": ["a b", "c d"], "w": [1, 0, 2]}) == [
        ("p.0", "a b"), ("p.1", "c d"), ("w", "1 0 2")]


def test_design_zoo_parameters_checked(capsys):
    # a missing and a stray zoo parameter are usage errors, as for `profile`
    rc, _, err = _run(capsys, "design", "--zoo", "trace123", "--weight", "27", "--t", "2")
    assert rc == 2 and "missing ['m']" in err
    rc, _, err = _run(capsys, "design", "--zoo", "trace123", "--m", "4", "--n", "9",
                      "--weight", "11", "--t", "2")
    assert rc == 2 and "unexpected ['n']" in err


def test_design_trace_small_m_enumerates(capsys):
    # no parametrized family at m=3, w=5: the 8^6 words are enumerated
    rc, out, _ = _run(capsys, "design", "--zoo", "trace123", "--m", "3",
                      "--weight", "5", "--t", "1")
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["checks"][0]["ok"] is True


def test_thread_default_honours_qdesign_threads(monkeypatch, capsys):
    seen = []
    monkeypatch.setitem(S.SUITES, "probe", lambda threads, heavy: seen.append(threads) or [])
    monkeypatch.setenv("QDESIGN_THREADS", "3")
    S.run_suite("probe")
    assert main(["reproduce", "probe"]) == 0
    monkeypatch.delenv("QDESIGN_THREADS")
    S.run_suite("probe")
    assert main(["reproduce", "probe"]) == 0
    assert seen == [3, 3] + [os.cpu_count() or 1] * 2


@pytest.mark.parametrize("var", ["QDESIGN_BUDGET", "QDESIGN_THREADS"])
@pytest.mark.parametrize("value", ["abc", "-1", "1.5"])
def test_malformed_env_value_exit_2(monkeypatch, capsys, var, value):
    monkeypatch.setenv(var, value)
    rc, _, err = _run(capsys, "profile", "--zoo", "ternary-golay")
    assert rc == 2 and var in err


TRACE_W29 = ("design", "--zoo", "trace123", "--m", "5", "--weight", "29", "--t", "2")


def test_trace_weight_without_family_over_codeword_budget_exit_2(monkeypatch, capsys):
    # trace123(5) has 32^6 = 2^30 words; its weight 29 has no parametrized
    # family, so the class comes from the code's one codeword stream
    monkeypatch.setenv("QDESIGN_BUDGET", "1000000")
    rc, _, err = _run(capsys, *TRACE_W29)
    assert rc == 2 and "capacity:" in err and "errors.BUDGETS['codewords']" in err


def test_trace_weight_without_family_is_a_2_design(capsys):
    rc, out, _ = _run(capsys, *TRACE_W29)
    assert rc == 0
    res = json.loads(out)["results"]
    assert res["family"]["blocks"] == 20296320
    assert res["checks"][0]["ok"] and res["checks"][0]["lambda"] == 16240


@pytest.mark.parametrize("argv,message", [
    (("--zoo", "trace123", "--m", "5", "--weight", "29"), "supply --t T or --max-strength"),
    (("--zoo", "ternary-golay", "--weight", "5", "--fixed-coords"), "--fixed-coords needs --t"),
    (("--zoo", "ternary-golay", "--weight", "5", "--t", "3", "--fixed-coords"),
     "requires asserted transitivity >= 3"),
    (("--file", "golay.txt", "--weight", "5"), "supply --t T or --max-strength"),
    (("--file", "golay.txt", "--weight", "5", "--t", "2", "--fixed-coords",
      "--assert-transitive", "1"), "requires asserted transitivity >= 2"),
])
def test_design_usage_errors_exit_before_the_family_is_built(monkeypatch, capsys, tmp_path,
                                                             argv, message):
    def unreachable(*args, **kwargs):
        raise AssertionError("the family was built before the usage check")
    monkeypatch.setattr(Z, "zoo_family", unreachable)
    monkeypatch.setattr(D, "family_from_code", unreachable)
    monkeypatch.chdir(tmp_path)
    save_generator(Z.zoo_build("ternary-golay"), "golay.txt")
    rc, _, err = _run(capsys, "design", *argv)
    assert rc == 2 and message in err


# results_digest of `reproduce SUITE --out`, pinned before the scalar-orbit
# counting kernel replaced the per-block one (pless: before the classical
# check moved onto the shared count table)
SUITE_DIGESTS = {
    "golay": "7a549f94f5329740ca21aaa96e7170426dc9408af8c6ee41ea4bc7080336ee53",
    "two-weight": "7e2395be1b2b3e5759bfb33321e7fa4c6e98561bbdffa5dc9a6b5d621dd97777",
    "tables": "1123086fdf3faec86f5e5992f1fa22345b3d8d711774c9454ff43e6f97e49c9e",
    "drs": "2675ac3b5bd9a29298e502656fa55f9824f52e1c245073eca7426b83fdd78c36",
    "trace": "01551a5ef16cedac4e26c26c5fd3c648a838e17940c3073b33debf54793fcfb2",
    "pless": "aa2ace7e69eb2f1b48e9cbaf44421d50efa182cecb104262a724807762b82e78",
}


def test_reproduce_digests_pinned(capsys, tmp_path):
    out_path = tmp_path / "rep.json"
    for suite, digest in SUITE_DIGESTS.items():
        rc, _, _ = _run(capsys, "--threads", "1", "reproduce", suite, "--out", str(out_path))
        assert rc == 0
        report = json.loads(out_path.read_text())
        assert report["manifest"]["results_digest"] == digest, suite


# results_digest of the reports whose covering radius or coset scan runs on
# 3^10 and 8^6 syndrome spaces (tf3: 4^13 syndromes, over the `syndromes`
# budget, so the criteria take their fallback)
SCAN_DIGESTS = {
    ("profile", "--zoo", "drs", "--q", "8", "--k", "3", "--rho"):
        "50644312b360070e85602ba9e3acf066e1f54b8a76730538c10cdd1c80f16fbd",
    ("profile", "--zoo", "simplex", "--q", "3", "--m", "3", "--rho"):
        "7281cf0e6e8d90eb4f74256ee58b56de09401fdd8fedea20f0ca6022f225a58c",
    ("criteria", "--zoo", "drs", "--q", "8", "--k", "3"):
        "f897bb838f08dc540fce6a97bc7cd657d1a9930f3819b25cc0d0a797c506c8f6",
    ("criteria", "--zoo", "tf3", "--q", "4"):
        "0a6fd64227b496017e40f02d30d85e3f963041c2b7b23973d8ee7143940d9774",
}


@pytest.mark.parametrize("argv", list(SCAN_DIGESTS), ids=" ".join)
def test_scan_report_digests_pinned(capsys, argv):
    rc, out, _ = _run(capsys, "--threads", "1", *argv)
    assert rc == 0
    assert json.loads(out)["manifest"]["results_digest"] == SCAN_DIGESTS[argv]
