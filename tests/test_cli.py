import json
import os
import random

import pytest

from pvcsp import cli, formats, generators, relax
from pvcsp.cli import EXIT_ERROR, EXIT_INTERNAL, EXIT_NO, EXIT_YES, main
from pvcsp.core import DEFAULT_CAP, GAP, YES, PromiseTemplate, pvcsp_oracle
from pvcsp.errors import InvariantViolated

STRUCTURE = """domain 0 1
symbol neq 2 default inf
0 1 : 0
1 0 : 0
"""

SAT_INSTANCE = """vars x y
term neq x y
threshold 0
"""

ODD_CYCLE_INSTANCE = """vars x y z
term neq x y
term neq y z
term neq z x
threshold 0
"""


IDENTITY_FPOL = """measure fpol
arity 1
in_domain 0 1
out_domain 0 1
input_weights 1
map 1
0 : 0
1 : 1
"""


def twice(text, line):
    """The text with one of its lines repeated right after itself."""
    return text.replace(line + "\n", line + "\n" + line + "\n", 1)


@pytest.fixture
def files(tmp_path):
    s = tmp_path / "structure.pvcsp"
    s.write_text(STRUCTURE)
    sat = tmp_path / "sat.pvcsp"
    sat.write_text(SAT_INSTANCE)
    cyc = tmp_path / "cycle.pvcsp"
    cyc.write_text(ODD_CYCLE_INSTANCE)
    return tmp_path, str(s), str(sat), str(cyc)


def test_solve_yes_exit_code(files, capsys):
    _, s, sat, _ = files
    assert main(["solve", "--structure", s, "--instance", sat]) == EXIT_YES
    out = capsys.readouterr().out
    assert "verdict: yes" in out


def test_solve_no_exit_code(files, capsys):
    _, s, _, cyc = files
    assert main(["solve", "--structure", s, "--instance", cyc]) == EXIT_NO
    out = capsys.readouterr().out
    assert "verdict: no" in out


def test_solve_blp_accepts_odd_cycle(files):
    _, s, _, cyc = files
    code = main(["solve", "--structure", s, "--instance", cyc, "--algorithm", "blp"])
    assert code == EXIT_YES


def test_solve_json_payload(files, capsys):
    _, s, sat, _ = files
    main(["solve", "--structure", s, "--instance", sat, "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "yes" and payload["blp_value"] == "0"
    # the text trace's columns, rows and count of eliminated columns
    assert (payload["columns"], payload["rows"], payload["eliminated"]) == (6, 6, 2)


def test_solve_aip_reports_aff_value(files, capsys):
    _, s, sat, cyc = files
    argv = ["solve", "--structure", s, "--algorithm", "aip", "--json"]
    assert main(argv + ["--instance", sat]) == EXIT_YES
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "yes"
    assert payload["aff_value"] == "0" and payload["blp_value"] is None
    assert (payload["columns"], payload["rows"], payload["eliminated"]) == (6, 6, 2)
    assert main(argv[:-1] + ["--instance", cyc]) == EXIT_NO
    text = capsys.readouterr().out
    assert "verdict: no" in text and "aff value: inf" in text
    assert "blp value" not in text


def test_solve_aip_reports_eliminated_columns(files, capsys):
    # neq's two +inf tuples are left out by every engine
    _, s, sat, _ = files
    for algorithm in ("aip", "blp", "combined"):
        main(["solve", "--structure", s, "--instance", sat, "--algorithm", algorithm])
        assert "eliminated columns: 2" in capsys.readouterr().out.splitlines()


def test_solve_blp_json_reports_eliminated_columns(files, capsys):
    _, s, sat, _ = files
    argv = ["solve", "--structure", s, "--instance", sat, "--algorithm", "blp", "--json"]
    assert main(argv) == EXIT_YES
    payload = json.loads(capsys.readouterr().out)
    assert payload["blp_value"] == "0"
    assert (payload["columns"], payload["rows"], payload["eliminated"]) == (6, 6, 2)


def test_solve_json_gate_reports_eliminated_columns(files, capsys):
    # at threshold -1 combined stops at its BLP gate (value 0), and still
    # counts neq's two +inf tuples, as blp does
    tmp, s, _, _ = files
    gate = tmp / "gate.pvcsp"
    gate.write_text(SAT_INSTANCE.replace("threshold 0", "threshold -1"))
    payloads = {}
    for algorithm in ("combined", "blp"):
        argv = ["solve", "--structure", s, "--instance", str(gate), "--json"]
        assert main(argv + ["--algorithm", algorithm]) == EXIT_NO
        payloads[algorithm] = json.loads(capsys.readouterr().out)
    combined, blp = payloads["combined"], payloads["blp"]
    assert combined["blp_value"] == "0" and combined["star"] is None
    assert combined["eliminated"] == blp["eliminated"] == 2


def test_solve_missing_file_is_error(files, capsys):
    _, s, _, _ = files
    assert main(["solve", "--structure", s, "--instance", "/nope"]) == EXIT_ERROR
    assert "error" in capsys.readouterr().err


def test_solve_malformed_value_is_error(files, tmp_path, capsys):
    bad = tmp_path / "bad.pvcsp"
    bad.write_text("domain 0 1\nsymbol f 1 default 1/0\n")
    _, _, sat, _ = files
    assert main(["solve", "--structure", str(bad), "--instance", sat]) == EXIT_ERROR


def test_solve_invariant_violation_is_internal(files, monkeypatch, capsys):
    def broken(delta, instance):
        raise InvariantViolated("star point support differs from its flags")

    monkeypatch.setattr(relax, "combined_solve", broken)
    _, s, sat, _ = files
    assert main(["solve", "--structure", s, "--instance", sat]) == EXIT_INTERNAL
    assert "internal invariant violation" in capsys.readouterr().err


def test_check_accepts_valid_fpol(files, tmp_path, capsys):
    _, s, _, _ = files
    measure = tmp_path / "m.pvcsp"
    for text in (
        "measure frachom\narity 1\nin_domain 0 1\nout_domain 0 1\n"
        "map 1\n0 : 0\n1 : 1\n",
        IDENTITY_FPOL,
    ):
        measure.write_text(text)
        code = main(["check", "--measure", str(measure), "--structure", s])
        assert code == EXIT_YES
        assert "ok" in capsys.readouterr().out


def test_check_flags_violation(tmp_path, capsys):
    s = tmp_path / "s.pvcsp"
    s.write_text("domain 0 1\nsymbol w 1 default 0\n1 : 1\n")
    g = tmp_path / "g.pvcsp"
    g.write_text("domain 0 1\nsymbol w 1 default 1\n")
    measure = tmp_path / "m.pvcsp"
    measure.write_text(
        "measure frachom\narity 1\nin_domain 0 1\nout_domain 0 1\n"
        "map 1\n0 : 0\n1 : 1\n"
    )
    code = main(
        ["check", "--measure", str(measure), "--structure", str(s), "--gamma", str(g)]
    )
    assert code == EXIT_NO
    assert "violated" in capsys.readouterr().out


def test_construct_bimultiset(files, tmp_path, capsys):
    _, s, _, _ = files
    out = tmp_path / "built.pvcsp"
    code = main(
        ["construct", "--structure", s, "--partition", "sizes:2,1", "--output", str(out)]
    )
    assert code == EXIT_YES
    built = formats.parse_structure(out.read_text())
    # 3 multisets of size 2 times 2 of size 1
    assert len(built.domain) == 6


def test_construct_cap_exceeded(files, capsys):
    _, s, _, _ = files
    code = main(
        ["construct", "--structure", s, "--partition", "sizes:3,2", "--cap", "5"]
    )
    assert code == EXIT_ERROR


def test_construct_counts_enumerated_tuples(tmp_path, capsys, monkeypatch):
    # xor over one block of 10 has 11 elements but visits 23.1 M argument
    # tuples, over the default cap; the guard fires before any is listed
    def enumerated(*args):
        raise AssertionError("enumerated the block-multiset domain")

    monkeypatch.setattr(cli.theory, "block_multiset_domain", enumerated)
    s = tmp_path / "xor.pvcsp"
    s.write_text(formats.print_structure(generators.xor_structure()))
    code = main(["construct", "--structure", str(s), "--partition", "sizes:10"])
    assert code == EXIT_ERROR
    assert "over cap" in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec", ["sizes:a", "sizes:0", "sizes:2,-1", "sizes:", "sizes:\u0662", "sizes:+2", "sizes: 2"]
)
def test_construct_malformed_partition(files, capsys, spec):
    _, s, _, _ = files
    code = main(["construct", "--structure", s, "--partition", spec])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: bad partition {spec!r}")


@pytest.mark.parametrize(
    "kind, content",
    [
        ("measure", "measure frachom\narity x\n"),
        ("measure", "measure frachom\narity\n"),
        ("measure", "measure frachom\nin_domain 0 1\nout_domain 0 1\nmap\n"),
        ("structure", "domain 0 1\nsymbol f -1 default 0\n"),
        ("structure", None),
        ("structure", b"domain 0 \xff\n"),
        # a repeated line would silently replace the first; the texts are
        # valid without the repeat
        ("measure", twice(IDENTITY_FPOL, "measure fpol")),
        ("measure", twice(IDENTITY_FPOL, "arity 1")),
        ("measure", twice(IDENTITY_FPOL, "in_domain 0 1")),
        ("measure", twice(IDENTITY_FPOL, "out_domain 0 1")),
        ("measure", twice(IDENTITY_FPOL, "input_weights 1")),
        ("measure", twice(IDENTITY_FPOL, "0 : 0")),
        ("structure", twice(STRUCTURE, "0 1 : 0")),
        ("instance", twice(SAT_INSTANCE, "vars x y")),
        ("instance", SAT_INSTANCE.replace("threshold 0", "threshold -1\nthreshold 0")),
        # a map entry outside in_domain would be dropped from the table
        ("measure", "measure fpol\narity 2\nin_domain 0 1\nout_domain 0 1\n"
         "map 1\n0 0 : 0\n0 1 : 0\n1 0 : 0\n1 1 : 1\n2 2 : 0\n"),
        # a value outside [-]digits[/digits]: an exponent is a huge integer
        ("structure", STRUCTURE.replace("default inf", "default 1e400")),
        ("measure", IDENTITY_FPOL.replace("input_weights 1", "input_weights 1.0")),
    ],
    ids=["arity-x", "arity-missing", "weight-missing", "arity-negative",
         "directory", "not-utf8", "measure-twice", "arity-twice",
         "in-domain-twice", "out-domain-twice", "input-weights-twice",
         "map-entry-twice", "entry-twice", "vars-twice", "threshold-twice",
         "map-label-outside-domain", "default-exponent", "weight-decimal"],
)
def test_malformed_input_is_error(files, tmp_path, capsys, kind, content):
    _, s, sat, _ = files
    bad = tmp_path / "bad"
    if content is None:
        bad.mkdir()
    elif isinstance(content, bytes):
        bad.write_bytes(content)
    else:
        bad.write_text(content)
    if kind == "measure":
        argv = ["check", "--measure", str(bad), "--structure", s]
    elif kind == "instance":
        argv = ["solve", "--structure", s, "--instance", str(bad)]
    else:
        argv = ["solve", "--structure", str(bad), "--instance", sat]
    assert main(argv) == EXIT_ERROR
    assert capsys.readouterr().err.startswith("error: ")


def _mutate(rng, text, pool):
    """The text with one token replaced, inserted or deleted, or one line
    inserted (a copy of another) or deleted."""
    lines = text.splitlines()
    i = rng.randrange(len(lines))
    tokens = lines[i].split()
    op = rng.randrange(5)
    if op == 0:
        tokens[rng.randrange(len(tokens))] = rng.choice(pool)
    elif op == 1:
        tokens.insert(rng.randint(0, len(tokens)), rng.choice(pool))
    elif op == 2:
        del tokens[rng.randrange(len(tokens))]
    lines[i] = " ".join(tokens)
    if op == 3:
        lines.insert(rng.randint(0, len(lines)), rng.choice(lines))
    elif op == 4:
        del lines[i]
    return "\n".join(lines) + "\n"


def test_mutated_files_exit_cleanly(files, tmp_path, capsys):
    # a mutated file runs to a verdict or leaves with exit 2 and a message,
    # never with a traceback
    _, s, sat, _ = files
    texts = [STRUCTURE, SAT_INSTANCE, ODD_CYCLE_INSTANCE, IDENTITY_FPOL]
    pool = sorted({t for text in texts for t in text.split()})
    pool += ["inf", "-inf", "1/0", "-1", "2", "x", "#", "frachom", "map"]
    rng = random.Random(1414)
    bad = tmp_path / "mutated"
    codes = []
    for i in range(500):
        text = texts[i % 4]
        bad.write_text(_mutate(rng, text, pool))
        if text is IDENTITY_FPOL:
            argv = ["check", "--measure", str(bad), "--structure", s]
        else:
            paths = [str(bad), sat] if text is STRUCTURE else [s, str(bad)]
            engine = rng.choice([*relax.ENGINES, "oracle"])
            argv = ["solve", "--structure", paths[0], "--instance", paths[1],
                    "--algorithm", engine]
        codes.append(main(argv))
        err = capsys.readouterr().err
        assert codes[-1] in (EXIT_YES, EXIT_NO, EXIT_ERROR), (argv, err)
        if codes[-1] == EXIT_ERROR:
            assert err.startswith("error: "), err
    assert {EXIT_YES, EXIT_NO, EXIT_ERROR} <= set(codes)


def test_solve_oracle_json(tmp_path, capsys):
    out = tmp_path / "fixture"
    assert main(["gen", "--family", "xor", "--seed", "7", "--output", str(out)]) == EXIT_YES
    structure, instance = out / "structure.pvcsp", out / "instance.pvcsp"
    delta = formats.parse_structure(structure.read_text())
    expected = pvcsp_oracle(
        PromiseTemplate(delta, delta), formats.parse_instance(instance.read_text())
    )
    argv = ["solve", "--structure", str(structure), "--instance", str(instance),
            "--algorithm", "oracle"]
    code = main(argv + ["--json"])
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"verdict": expected, "blp_value": None, "star": None,
                       "aff_value": None, "columns": None, "rows": None,
                       "eliminated": None}
    assert code == (EXIT_YES if expected in (YES, GAP) else EXIT_NO)
    assert main(argv) == code
    assert capsys.readouterr().out == expected + "\n"


def test_solve_oracle_over_cap_is_error(tmp_path, capsys):
    # brute force on a 40-variable xor chain is refused with exit 2; the
    # combined engine answers it
    structure = tmp_path / "xor.pvcsp"
    structure.write_text(formats.print_structure(generators.xor_structure()))
    variables = [f"x{i}" for i in range(40)]
    instance = tmp_path / "chain.pvcsp"
    instance.write_text(
        "vars " + " ".join(variables) + "\n"
        + "".join(f"term xor1 {x} {y}\n" for x, y in zip(variables, variables[1:]))
        + "threshold 0\n"
    )
    argv = ["solve", "--structure", str(structure), "--instance", str(instance)]
    assert main(argv + ["--algorithm", "oracle"]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: brute force: 2^40 assignments")
    assert captured.out == ""
    assert main(argv) == EXIT_YES


@pytest.mark.parametrize("domain, arity", [("0 1", 40), ("0", 10**8)])
def test_solve_refuses_a_table_too_big_to_enumerate(files, tmp_path, capsys, domain, arity):
    # a default fills |D|^arity tuples of arity labels: the structure is
    # refused with exit 2 before any tuple is listed, a one-label domain
    # with a huge arity included
    _, _, sat, _ = files
    structure = tmp_path / "big.pvcsp"
    structure.write_text(f"domain {domain}\nsymbol f {arity} default 0\n")
    assert main(["solve", "--structure", str(structure), "--instance", sat]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err.startswith("error: symbol f: ")
    assert f"exceed cap {DEFAULT_CAP}" in captured.err and captured.out == ""


@pytest.mark.parametrize("engine", sorted(relax.ENGINES))
def test_gamma_only_with_oracle(files, tmp_path, capsys, engine):
    # every engine but the oracle would ignore --gamma; it is an error
    # before any file is read
    _, s, sat, _ = files
    argv = ["solve", "--structure", s, "--instance", sat,
            "--gamma", str(tmp_path / "missing.pvcsp"), "--algorithm", engine]
    assert main(argv) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == "error: --gamma is read only by --algorithm oracle\n"
    assert captured.out == ""


def test_compare_unknown_engine(capsys):
    args = ["compare", "--family", "xor", "--count", "1", "--engines", "combined,bogus"]
    assert main(args) == EXIT_ERROR
    captured = capsys.readouterr()
    assert "'bogus'" in captured.err and "aip, blp, combined" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("count", ["0", "-3"])
def test_compare_count_below_one_is_error(capsys, count):
    assert main(["compare", "--family", "xor", "--count", count]) == EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.err == f"error: --count must be at least 1, not {count}\n"
    assert captured.out == ""


def test_compare_clean_run(capsys):
    code = main(["compare", "--family", "xor", "--count", "5", "--seed", "1"])
    assert code == EXIT_YES
    out = capsys.readouterr().out
    assert "flagged disagreements: 0/5" in out
    aip = ["compare", "--family", "xor", "--count", "5", "--seed", "1",
           "--engines", "aip", "--expect-weak"]
    assert main(aip) == EXIT_YES
    assert "aip=" in capsys.readouterr().out


def test_compare_blp_needs_expect_weak(capsys):
    args = ["compare", "--family", "xor", "--count", "40", "--seed", "2",
            "--engines", "blp"]
    first = main(args)
    capsys.readouterr()
    second = main(args + ["--expect-weak"])
    assert second == EXIT_YES
    # the BLP-only engine accepts some unsatisfiable parity systems
    if first == EXIT_NO:
        assert "DISAGREE" in capsys.readouterr().out


def test_compare_report_is_deterministic(capsys):
    args = ["compare", "--family", "random", "--count", "10", "--seed", "9", "--json"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    assert capsys.readouterr().out == first


def test_gen_writes_fixture(tmp_path):
    out = tmp_path / "fixture"
    assert main(["gen", "--family", "random", "--seed", "4", "--output", str(out)]) == EXIT_YES
    s = formats.parse_structure((out / "structure.pvcsp").read_text())
    ins = formats.parse_instance((out / "instance.pvcsp").read_text())
    assert (out / "gamma.pvcsp").exists()
    for term in ins.terms:
        assert term.symbol in s.signature
