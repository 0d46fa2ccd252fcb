"""Command-line interface: outputs, JSON schemas and exit codes."""

import json
from pathlib import Path

import pytest

from fibredburnside import cli, fibred
from fibredburnside.fibred import (
    element_from_json,
    element_of,
    element_to_json,
    identity_element,
    opposite,
)
from fibredburnside.groups import cyclic, group_from_spec

from test_fibred import counterexample_class
from test_groups import SUBGROUP_FAULTS


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_group_text(capsys):
    code, out, _ = run_cli(capsys, "group", "Q8")
    assert code == 0
    assert "order 8" in out
    assert "center order    2" in out
    assert "subgroups       6" in out
    assert "|Out| = 6" in out


def test_group_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "group", "D8")
    assert code == 0
    data = json.loads(out)
    assert data["subgroup_count"] == 10
    assert data["frattini_order"] == 2


def test_group_trivial(capsys):
    code, out, _ = run_cli(capsys, "--json", "group", "C1")
    data = json.loads(out)
    assert data["order"] == 1 and data["subgroup_count"] == 1
    assert data["out_order"] == 1


@pytest.mark.parametrize("spec,order", [("A4", 12), ("Dic3", 12)])
def test_group_catalog_names(capsys, spec, order):
    code, out, _ = run_cli(capsys, "--json", "group", spec)
    assert code == 0
    data = json.loads(out)
    assert data["name"] == spec and data["order"] == order


def test_group_parse_error(capsys):
    code, _, err = run_cli(capsys, "group", "E7")
    assert code == 2
    assert "error" in err


def test_basis_counts(capsys):
    code, out, _ = run_cli(capsys, "--json", "basis", "C2", "C2")
    data = json.loads(out)
    assert data["count"] == 3
    code, out, _ = run_cli(capsys, "--json", "basis", "C1", "C4")
    assert json.loads(out)["count"] == 1
    code, out, _ = run_cli(capsys, "--json", "basis", "Q8", "C2")
    q8 = group_from_spec("Q8")
    assert json.loads(out)["count"] == \
        len(fibred.subcharacter_classes(q8, cyclic(2)))


def test_compose_identity(capsys):
    ident = identity_element(group_from_spec("C4"), cyclic(2))
    blob = json.dumps(element_to_json(ident))
    code, out, _ = run_cli(capsys, "--json", "compose", blob, blob, "--check")
    assert code == 0
    assert element_from_json(json.loads(out)) == ident


def test_compose_counterexample(capsys, tmp_path):
    X = counterexample_class()
    left = tmp_path / "x.json"
    right = tmp_path / "xop.json"
    left.write_text(json.dumps(element_to_json(element_of(X))))
    right.write_text(json.dumps(element_to_json(element_of(opposite(X)))))
    code, out, _ = run_cli(capsys, "--json", "compose", str(left),
                           str(right), "--check")
    assert code == 0
    data = json.loads(out)
    assert data["left"] == "Q8" and data["right"] == "Q8"
    assert len(data["terms"]) == 1
    assert len(data["terms"][0]["D"]) == 16


def test_delta_values_follow_their_elements(capsys):
    # delta[i] is the value on D[i]: listing D out of order, with delta in
    # the same order, names the same class
    G, C1, C2 = group_from_spec("C2xC2"), cyclic(1), cyclic(2)
    listings = [([0, 2, 1, 3], [0, 1, 0, 1]), ([0, 1, 2, 3], [0, 0, 1, 1])]
    classes = [fibred.canonicalize(fibred.transitive_fibred_biset(
        G, C1, C2, d, delta)) for d, delta in listings]
    assert classes[0] == classes[1]
    ident = json.dumps(element_to_json(identity_element(C1, C2)))
    outs = []
    for d, delta in listings:
        blob = json.dumps({"left": "C2xC2", "right": "C1", "fibre": "C2",
                           "terms": [{"D": d, "delta": delta}]})
        code, out, _ = run_cli(capsys, "--json", "compose", blob, ident,
                               "--check")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert element_from_json(json.loads(outs[0])) == element_of(classes[1])


def test_compose_mismatch_is_failure(capsys):
    a = identity_element(group_from_spec("C4"), cyclic(2))
    b = identity_element(group_from_spec("C2"), cyclic(2))
    code, _, err = run_cli(capsys, "compose",
                           json.dumps(element_to_json(a)),
                           json.dumps(element_to_json(b)))
    assert code == 1


def test_basis_non_abelian_fibre_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "basis", "C2", "S3")
    assert code == 2
    assert "fibre group must be abelian" in err


def test_hat_non_abelian_fibre_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "hat", "C2", "S3")
    assert code == 2
    assert "fibre group must be abelian" in err


@pytest.mark.parametrize("right,terms", [
    ("C2", []), ("C1", [{"D": [0, 1], "delta": [0, 3]}])],
    ids=["no terms", "one term"])
def test_element_non_abelian_fibre_is_usage_error(capsys, right, terms):
    blob = json.dumps({"left": "C2", "right": right, "fibre": "S3",
                       "terms": terms})
    code, _, err = run_cli(capsys, "compose", blob, blob, "--check")
    assert code == 2
    assert "fibre group must be abelian, S3 is not" in err


@pytest.mark.parametrize("value", [5, 2, 3, -1])
def test_element_fibre_value_out_of_range(capsys, value):
    # every value is range-checked before any is multiplied, so -1 does
    # not index from the end and 5 does not raise IndexError
    blob = json.dumps({"left": "C2", "right": "C1", "fibre": "C2",
                       "terms": [{"D": [0, 1], "delta": [0, value]}]})
    ident = json.dumps(element_to_json(identity_element(cyclic(1),
                                                        cyclic(2))))
    code, _, err = run_cli(capsys, "compose", blob, ident)
    assert code == 1
    assert "image out of range" in err


def test_compose_non_abelian_fibre_is_usage_error(capsys):
    blob = json.dumps({"left": "C2", "right": "C2", "fibre": "S3",
                       "terms": [{"D": [0], "delta": [0], "coeff": 1}]})
    code, _, err = run_cli(capsys, "compose", blob, blob, "--check")
    assert code == 2
    assert "fibre group must be abelian" in err


@pytest.mark.parametrize("spec, elements, message", SUBGROUP_FAULTS,
                         ids=[m for _, _, m in SUBGROUP_FAULTS])
def test_element_subgroup_fault_is_named(capsys, spec, elements, message):
    # D goes through check_subgroup; like every other malformed term it
    # is a failure (exit 1), not a usage error
    blob = json.dumps({"left": spec, "right": "C1", "fibre": "C2",
                       "terms": [{"D": elements,
                                  "delta": [0] * len(elements)}]})
    code, out, err = run_cli(capsys, "compose", blob, blob)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_compose_malformed_input(capsys):
    code, _, err = run_cli(capsys, "compose", "{not json", "{}")
    assert code == 2


@pytest.mark.parametrize("term", [
    {"D": [0], "delta": [0], "coeff": 0.7},
    {"D": [0], "delta": [0], "coeff": "3"},
    {"D": [0.0], "delta": [0]}])
def test_compose_rejects_non_integer_fields(capsys, term):
    blob = json.dumps({"left": "C2", "right": "C2", "fibre": "C2",
                       "terms": [term]})
    code, out, err = run_cli(capsys, "compose", blob, blob)
    assert code == 1 and not out
    assert "integer" in err


def _run_module(*argv):
    """The CLI in a fresh interpreter: (exit code, stdout, stderr)."""
    import subprocess
    import sys
    proc = subprocess.run([sys.executable, "-m", "fibredburnside", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr


_GOOD = {"left": "C2", "right": "C2", "fibre": "C2",
         "terms": [{"D": [0], "delta": [0], "coeff": 1}]}


@pytest.mark.parametrize("blob, message", [
    ({k: v for k, v in _GOOD.items() if k != "right"},
     "element has no field 'right'"),
    (dict(_GOOD, terms=5), "element field 'terms' must be a list, got 5"),
    (dict(_GOOD, terms=[{"delta": [0], "coeff": 1}]),
     "term has no field 'D'"),
    (dict(_GOOD, terms=[{"D": [0], "coeff": 1}]),
     "term has no field 'delta'"),
    (dict(_GOOD, terms=[7]), "term must be a JSON object, got 7"),
    ([1, 2], "element must be a JSON object, got [1, 2]"),
    (dict(_GOOD, left=5),
     "element field 'left' must be a group spec string, got 5"),
    (dict(_GOOD, fibre=None),
     "element field 'fibre' must be a group spec string, got None"),
    (dict(_GOOD, terms=[{"D": [0, 1], "delta": [0]}]),
     "term field 'delta' must list one value per element of 'D': "
     "got 1 for 2"),
])
def test_compose_malformed_element_names_the_field(tmp_path, blob, message):
    # an argument that starts with "{" or "[" is inline JSON, anything
    # else a file path; both must name the malformed field
    path = tmp_path / "left.json"
    path.write_text(json.dumps(blob), encoding="utf-8")
    for arg in (json.dumps(blob), str(path)):
        code, out, err = _run_module("compose", arg, json.dumps(_GOOD))
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"
        assert "Traceback" not in err


def test_compose_malformed_spec_string_is_usage_error(capsys):
    code, out, err = run_cli(capsys, "compose",
                             json.dumps(dict(_GOOD, left="Q9")),
                             json.dumps(_GOOD))
    assert (code, out, err) == (2, "", "error: unsupported atom 'Q9'\n")


def test_compose_directory_path_is_usage_error(tmp_path):
    code, out, err = _run_module("compose", str(tmp_path), json.dumps(_GOOD))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Is a directory" in err
    assert "Traceback" not in err


def test_compose_file_not_utf8_is_usage_error(tmp_path):
    path = tmp_path / "element.json"
    path.write_bytes(b"\xff\xfe\x00bad")
    code, out, err = _run_module("compose", str(path), json.dumps(_GOOD))
    assert (code, out) == (2, "")
    assert err == (f"error: element file is not UTF-8 text: {str(path)!r} "
                   "(invalid start byte at byte 0)\n")


@pytest.mark.parametrize("spec, message", [
    ("C0", "cyclic atom needs a positive order: 'C0'"),
    ("C65", "group order bound exceeded: 65 > 64"),
    ("C2xC2xC2xC2xC2xC2xC2", "group order bound exceeded: 128 > 64"),
    ("C" + "9" * 5000, "group order bound exceeded: C99999999999... > 64"),
])
def test_group_spec_out_of_range_is_usage_error(capsys, spec, message):
    code, out, err = run_cli(capsys, "group", spec)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_hat_prime_path(capsys):
    code, out, _ = run_cli(capsys, "--json", "hat", "C4", "C2")
    assert code == 0
    data = json.loads(out)
    assert data["dimension"] == 6
    assert data["cross_check_ok"]
    assert len(data["table"]) == 6


def test_hat_s3(capsys):
    code, out, _ = run_cli(capsys, "--json", "hat", "S3", "C2")
    data = json.loads(out)
    assert data["dimension"] == 2 and data["cross_check_ok"]


def test_hat_nonprime_fallback(capsys):
    code, out, _ = run_cli(capsys, "--json", "hat", "Q8", "C4")
    assert code == 0
    data = json.loads(out)
    assert data["prime_fibre"] is False
    assert "table" not in data
    assert data["dimension"] == 30


def test_hat_prime_fibre_beyond_13(capsys):
    code, out, _ = run_cli(capsys, "--json", "hat", "C5", "C17")
    assert code == 0
    data = json.loads(out)
    assert data["prime_fibre"] is True
    assert len(data["generators"]) == 4
    assert data["cross_check_ok"] is True
    assert data["dimension"] == 4


def test_hat_closed_form_checked_as_classes(capsys):
    code, out, _ = run_cli(capsys, "--json", "hat", "C3", "C2")
    assert code == 0
    data = json.loads(out)
    assert data["closed_form_ok"] is True
    assert data["dimension"] == len(data["generators"])


def test_hat_closed_form_mismatch_is_failure(capsys, monkeypatch):
    from fibredburnside import hat
    real = hat.hat_dimension

    def one_survivor_short(G, C):
        dim, survivors = real(G, C)
        return dim - 1, survivors[1:]

    monkeypatch.setattr(hat, "hat_dimension", one_survivor_short)
    code, out, _ = run_cli(capsys, "--json", "hat", "C3", "C2")
    assert code == 1
    assert json.loads(out)["closed_form_ok"] is False


@pytest.mark.parametrize("group, fibre", [("S3", "C3"), ("C2xC2", "C2")])
def test_hat_table_matches_generator_scan(capsys, group, fibre):
    # the table looks each product up by generator key; the reference
    # finds it by scanning the generator list with ==
    from fibredburnside import hat
    code, out, _ = run_cli(capsys, "--json", "hat", group, fibre)
    assert code == 0
    # the rows are written from preformatted cells, byte for byte what the
    # encoder gives; CI pins C2xC2xC2 with C2 by its sha256
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    table = json.loads(out)["table"]
    gens = hat.hat_basis_prime(group_from_spec(group), group_from_spec(fibre))
    expected = []
    for a in gens:
        row = []
        for b in gens:
            prod = hat.hat_multiply(a, b)
            row.append(None if prod is None
                       else {"coeff": "1", "generator": gens.index(prod)})
        expected.append(row)
    assert table == expected
    if group == "S3":
        assert table == [[{"coeff": "1", "generator": 0}]]
    else:
        assert len(table) == 24
        assert [cell["generator"] for cell in table[1][:4]] == [1, 0, 4, 5]


def test_hat_beyond_enumeration_bound_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "hat", "C17", "C2")
    assert code == 2
    assert "bound exceeded" in err


@pytest.mark.parametrize("argv,message", [
    (("hat", "C2", "S3"), "fibre group must be abelian, S3 is not"),
    # 9 is the least order with G x G past the bound; the candidates are
    # built from subgroups of G alone, so only the guard refuses it
    (("hat", "C9", "C3"), "subgroup enumeration bound exceeded: 81 > 64"),
    (("hat", "C17", "C2"), "subgroup enumeration bound exceeded: 289 > 64"),
])
def test_hat_input_errors_name_their_cause(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_counterexample_command(capsys):
    code, out, _ = run_cli(capsys, "counterexample")
    assert code == 0
    assert "k1(D) = <x^2>" in out
    assert "searched groups" in out
    assert ("swept groups: C4, C2xC2, C5, C6, S3, C7 (every other searched "
            "group embeds in one of these)") in out


def test_counterexample_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "counterexample")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and len(data["searched_groups"]) == 9
    assert data["swept_groups"] == ["C4", "C2xC2", "C5", "C6", "S3", "C7"]
    assert all(s["ok"] for s in data["steps"])


def test_verify_axioms(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "axioms",
                           "--seed", "11")
    assert code == 0
    assert "suite axioms: ok" in out


@pytest.mark.parametrize("suite", ["axioms", "oracle"])
def test_verify_failures_carry_seed_and_inputs(capsys, monkeypatch, suite):
    def broken(X, Y, check=False):
        raise fibred.GroupError("composition broke")

    monkeypatch.setattr(fibred, "compose", broken)
    code, out, _ = run_cli(capsys, "--json", "verify", "--suite", suite,
                           "--seed", "5")
    monkeypatch.undo()
    assert code == 1
    failures = json.loads(out)["failures"]
    assert failures
    for line in failures:
        assert line.startswith(f"seed 5, suite {suite}: ")
        assert "(composition broke); inputs: '" in line
    # the quoted inputs of a failure reproduce it with compose --check
    inputs = failures[-1].split("; inputs: ")[1]
    blobs = [b for b in inputs.split("'") if b.strip()]
    assert len(blobs) == (3 if suite == "axioms" else 2)
    code, out, _ = run_cli(capsys, "--json", "compose", blobs[0], blobs[1],
                           "--check")
    assert code == 0
    assert json.loads(out)["left"] == json.loads(blobs[0])["left"]


def test_verify_prime_json(capsys):
    code, out, _ = run_cli(capsys, "--json", "verify", "--suite", "prime",
                           "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["failures"] == []


def test_verify_prime_covers_the_papers_groups(capsys, monkeypatch):
    from fibredburnside import hat
    real = hat.verify_hat_vs_quotient
    calls = []

    def recording(G, C, check=False):
        calls.append((G.name, C.name, check))
        return real(G, C, check=check)

    monkeypatch.setattr(hat, "verify_hat_vs_quotient", recording)
    code, _, _ = run_cli(capsys, "verify", "--suite", "prime")
    assert code == 0
    assert {(g, c) for g, c, _ in calls} >= {
        ("D8", "C2"), ("D8", "C3"), ("Q8", "C2"), ("Q8", "C3")}
    assert all(check for _, _, check in calls)


def test_verify_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "--json", "verify", "--suite", "prime",
                             "--seed", "7")
    code2, out2, _ = run_cli(capsys, "--json", "verify", "--suite", "prime",
                             "--seed", "7")
    assert (code1, out1) == (code2, out2)


def test_bad_catalog_bound(capsys):
    # an unknown option before the command is named, not the word after it
    for argv, option in (
            (["--catalog-max-order", "99", "group", "C2"],
             "--catalog-max-order"),
            (["--catalog-max-order", "7", "counterexample"],
             "--catalog-max-order"),
            (["--catalog-max-order=7", "counterexample"],
             "--catalog-max-order"),
            (["--json", "--seed", "3", "verify"], "--seed")):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2, argv
        err_text = capsys.readouterr().err
        assert (f"unrecognized option {option!r} before the command"
                in err_text), argv
        assert "invalid choice" not in err_text, argv


def test_module_entry_point():
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "fibredburnside", "--json", "group", "S3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["order"] == 6


@pytest.mark.parametrize("argv", [("counterexample",), ("hat", "C7", "C7")])
def test_closed_stdout_exits_141_quietly(argv):
    # the reader closes the pipe before the CLI writes: no usage error,
    # but 128 + SIGPIPE as a shell reports it, and nothing on stderr
    import subprocess
    import sys
    proc = subprocess.Popen([sys.executable, "-m", "fibredburnside", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()  # a no-op once it has exited
    assert (proc.returncode, err) == (141, b"")
    assert cli.EXIT_BROKEN_PIPE == 141


def test_json_emitted_in_batches_equals_json_dumps(capsys):
    # 14,400 cells encode to over 130,000 chunks: three batches
    cells = [{"coeff": "1", "generator": i} for i in range(3)] + [None]
    data = {"table": [[cells[(a + b) % 4] for b in range(120)]
                      for a in range(120)], "ok": True}
    cli._emit(data, True, [])
    assert capsys.readouterr().out == \
        json.dumps(data, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("rows", [
    [[(a * b) % 5 - 1 for b in range(7)] for a in range(6)], [], [[], [2]]],
    ids=["6x7", "no rows", "an empty row"])
def test_json_table_written_by_rows_equals_json_dumps(capsys, rows):
    # the table is spliced in at its sorted place, after nested keys of
    # the same name and before later ones
    cells = [{"coeff": "1", "generator": i} for i in range(4)] + [None]
    data = {"ok": False, "zeta": [1, {"b": 2}],
            "mismatches": [{"table": [], "left": "X[t]"}]}
    cli._emit(data, True, [], (rows, cells))
    table = [[cells[i] for i in row] for row in rows]
    assert capsys.readouterr().out == json.dumps(
        {**data, "table": table}, indent=2, sort_keys=True) + "\n"


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [
    ("group", "D8xD8"), ("basis", "Q8", "C2"), ("hat", "D8", "C2"),
    ("hat", "Q8", "C4"), ("counterexample",),
    ("compose", "x.json", "xop.json", "--check")], ids=" ".join)
def test_json_output_matches_golden(capsys, tmp_path, monkeypatch, argv):
    # the recorded outputs pin results across refactors; rewrite a file
    # only for an intended change of results.  compose reads the
    # counterexample class and its opposite.
    monkeypatch.chdir(tmp_path)
    X = counterexample_class()
    for path, cls in (("x.json", X), ("xop.json", opposite(X))):
        Path(path).write_text(json.dumps(element_to_json(element_of(cls))))
    code, out, err = run_cli(capsys, "--json", *argv)
    assert (code, err) == (0, "")
    name = "_".join(a.removesuffix(".json") for a in argv if a != "--check")
    assert out.encode() == (GOLDEN / f"{name}.json").read_bytes()
