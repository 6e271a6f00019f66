"""End-to-end runs of the command line interface."""

import json
import pathlib
import random
import re
import subprocess
import sys

import pytest

from artifact import (AutomorphismSpec, MixedMatrix, MixedWord, RingContext,
                      cli, standard_form, theta_shift)
from artifact.reference import gens_four_four
from artifact.textio import emit_gens, emit_matrix

MATRIX_FILE = """m: 2
h: 1+x+x^2
r: 2
s: 3
rows:
1 1+w | 2+2*w 2 2
w 0 | 2*w 0 2
w 1 | 2+w 1+3*w 0
0 1+w | 2*w 2 1
"""

GENS_FILE = """m: 2
h: 1+x+x^2
r: 7
s: 7
t: 1
f: 1+x+x^3
l: 1+x^2
g: 1+2*x+3*x^2+x^3+x^4
a: 3+x
"""

QUATERNARY_FILE = """m: 2
h: 1+x+x^2
r: 0
s: 4
rows:
| 1 0 1 0
| 0 1 0 1
"""


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "artifact.cli", *args],
        capture_output=True, text=True)


def test_ctx_info_table():
    res = run_cli("ctx-info", "--m", "2")
    assert res.returncode == 0
    assert "units: 12" in res.stdout
    assert "order of w: 3" in res.stdout


def test_ctx_info_json():
    res = run_cli("ctx-info", "--m", "2", "--format", "json")
    doc = json.loads(res.stdout)
    assert doc["ring_size"] == 16 and doc["order_of_w"] == 3


def test_ctx_info_rejects_bad_modulus():
    res = run_cli("ctx-info", "--m", "2", "--h", "1+x^2")
    assert res.returncode == 1
    assert "NotBasicIrreducible" in res.stderr


def test_degree_below_one_names_its_error():
    for args in (("--m", "-1", "--h", "1"), ("--m", "0")):
        res = run_cli("ctx-info", *args)
        assert res.returncode == 1
        assert res.stderr == "InvalidArgument: degree m must be at least 1\n"


def test_degree_above_sixteen_names_its_error(tmp_path):
    for args in (("--m", "64", "--h", "x^64+x^4+x^3+x+1"), ("--m", "17")):
        res = run_cli("ctx-info", *args)
        assert res.returncode == 1
        assert res.stderr == \
            "InvalidArgument: degree m must be between 1 and 16\n"
    path = tmp_path / "code.gens"
    path.write_text("m: 40\nh: 1+x^40\nr: 1\ns: 1\n")
    res = run_cli("validate-gens", str(path))
    assert (res.returncode, res.stderr) == (
        1, "InvalidArgument: degree m must be between 1 and 16\n")


def test_skew_mul_is_noncommutative():
    left = run_cli("skew-mul", "--m", "2", "(w)*x", "(1+w)*x")
    right = run_cli("skew-mul", "--m", "2", "(1+w)*x", "(w)*x")
    assert left.stdout.strip() == "(1+w)*x^2"
    assert right.stdout.strip() == "(3*w)*x^2"


def test_skew_mul_parse_error_position():
    res = run_cli("skew-mul", "--m", "2", "w^", "1")
    assert res.returncode == 2
    assert "column 2" in res.stderr


def test_std_form(tmp_path):
    path = tmp_path / "code.mat"
    path.write_text(MATRIX_FILE)
    res = run_cli("std-form", str(path))
    assert res.returncode == 0
    assert "type: (2,3;2;2,0)" in res.stdout
    assert "cardinality: 4096" in res.stdout
    assert "quaternary permutation: 0 2 1" in res.stdout


def test_std_form_json_mirrors_table(tmp_path):
    path = tmp_path / "code.mat"
    path.write_text(MATRIX_FILE)
    doc = json.loads(run_cli("std-form", str(path), "--format",
                             "json").stdout)
    assert doc["type"] == "(2,3;2;2,0)"
    assert doc["rows"][0] == "1 0 | 0 0 2*w"
    assert doc["quat_perm"] == [0, 2, 1]


def test_dual(tmp_path):
    path = tmp_path / "code.mat"
    path.write_text(MATRIX_FILE)
    res = run_cli("dual", str(path))
    assert res.returncode == 0
    assert "w 1+w | w 0 1" in res.stdout
    assert "type: (2,3;0;1,0)" in res.stdout
    assert "orthogonality: verified" in res.stdout


def test_validate_gens(tmp_path):
    path = tmp_path / "code.gens"
    path.write_text(GENS_FILE)
    res = run_cli("validate-gens", str(path))
    assert res.returncode == 0
    assert "case ii" in res.stdout


def test_validate_gens_failure_is_exit_one(tmp_path):
    path = tmp_path / "bad.gens"
    path.write_text("m: 2\nh: 1+x+x^2\nr: 7\ns: 7\nf: 1+x+x^2\n")
    res = run_cli("validate-gens", str(path))
    assert res.returncode == 1
    assert "FAIL" in res.stdout


@pytest.mark.parametrize("fmt", ["table", "json"])
def test_span_refuses_with_the_validation_report(tmp_path, capsys, fmt):
    path = tmp_path / "bad.gens"
    path.write_text("m: 2\nh: 1+x+x^2\nr: 7\ns: 7\nf: 1+x+x^2\n")
    outputs = []
    for command in ("validate-gens", "span"):
        assert cli.main([command, str(path), "--format", fmt]) == 1
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert outputs[1].err == ""
    if fmt == "json":
        assert json.loads(outputs[1].out)["valid"] is False


@pytest.mark.parametrize("divisor, detail", [
    ("f: 0", "[FAIL] f |r x^r-1 (mod 2)  "
             "(right division by the zero polynomial)"),
    ("g: 2*x+1", "[FAIL] g+2a |r x^s-1, or g |r x^s-1 with a residual "
                 "(l1, 2q) row  (leading coefficient 2 is not a unit)"),
], ids=["zero-f", "non-unit-g"])
def test_validate_gens_names_a_refused_division(tmp_path, divisor, detail):
    path = tmp_path / "refused.gens"
    path.write_text(f"m: 2\nh: 1+x+x^2\nr: 3\ns: 4\n{divisor}\n")
    res = run_cli("validate-gens", str(path))
    assert res.returncode == 1
    assert f"  {detail}" in res.stdout.splitlines()


def test_cofactors(tmp_path):
    path = tmp_path / "code.gens"
    path.write_text(GENS_FILE)
    res = run_cli("cofactors", str(path))
    assert "h_f: 1+x+x^2+x^4" in res.stdout
    assert "h_g: 3+2*x+3*x^2+x^3" in res.stdout
    assert "q: 1+x+x^2+x^4" in res.stdout


def test_span(tmp_path):
    path = tmp_path / "code.gens"
    path.write_text(GENS_FILE)
    res = run_cli("span", str(path))
    assert res.returncode == 0
    assert "cardinality: 67108864" in res.stdout
    assert res.stdout.count("|") == 10


def test_span_counts_dependent_rows_once(tmp_path):
    # Three of the six spanning rows are redundant; the cofactor-degree
    # formula would give 65536.
    path = tmp_path / "four.gens"
    path.write_text(emit_gens(gens_four_four()))
    res = run_cli("span", str(path))
    assert "cardinality: 16384" in res.stdout.splitlines()
    doc = json.loads(run_cli("span", str(path), "--format", "json").stdout)
    assert doc["cardinality"] == 16384


def test_span_of_empty_tuple(tmp_path):
    path = tmp_path / "empty.gens"
    path.write_text("m: 2\nh: 1+x+x^2\nr: 2\ns: 2\n")
    res = run_cli("span", str(path))
    assert res.returncode == 0
    assert "cardinality: 1" in res.stdout
    assert res.stdout.count("|") == 0


def test_enumerate(tmp_path):
    path = tmp_path / "code.mat"
    path.write_text(QUATERNARY_FILE)
    res = run_cli("enumerate", str(path))
    assert "count: 256" in res.stdout


def test_enumerate_budget_exit_code(tmp_path):
    path = tmp_path / "code.mat"
    path.write_text(QUATERNARY_FILE)
    res = run_cli("enumerate", str(path), "--budget", "10")
    assert res.returncode == 3
    assert "budget" in res.stderr


def test_enumerate_refuses_scalar_tables_past_the_budget(tmp_path):
    # m = 7 would need 16^7 scalar-table entries before any word exists.
    path = tmp_path / "m7.mat"
    path.write_text("m: 7\nh: 3+x+2*x^4+x^7\nr: 1\ns: 1\nrows:\n1 | 1\n")
    res = run_cli("enumerate", str(path))
    assert res.returncode == 3
    assert "m = 7" in res.stderr and "268435456" in res.stderr


@pytest.mark.parametrize("budget", ["0", "-5"])
@pytest.mark.parametrize("command", ["enumerate", "classify-z4"])
def test_nonpositive_budget_is_a_usage_error(tmp_path, capsys, command,
                                             budget):
    path = tmp_path / "code.mat"
    path.write_text(QUATERNARY_FILE)
    with pytest.raises(SystemExit) as exc:
        cli.main([command, str(path), "--budget", budget])
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert err.startswith(f"usage: z24codes {command} ")
    assert err.endswith(f"error: argument --budget: invalid positive int "
                        f"value: '{budget}'\n")


def test_enumerate_words_json(tmp_path):
    path = tmp_path / "code.mat"
    path.write_text(QUATERNARY_FILE)
    doc = json.loads(run_cli("enumerate", str(path), "--words",
                             "--format", "json").stdout)
    assert doc["count"] == 256
    assert len(doc["words"]) == 256
    assert "| 0 0 0 0" in doc["words"]


def test_is_skew_cyclic(tmp_path):
    path = tmp_path / "code.mat"
    path.write_text(QUATERNARY_FILE)
    res = run_cli("is-skew-cyclic", str(path))
    assert "skew cyclic: yes" in res.stdout


def test_is_skew_cyclic_answers_past_any_budget(tmp_path):
    # r = s = 15 at m = 3: 2^135 ambient words.  The 15 shifts of a
    # word span a closed code; the first 12 span a smaller type, so
    # they miss a shift.
    ctx = RingContext(3, (3, 1, 2, 1))
    autom = AutomorphismSpec(ctx, 1)
    rng = random.Random(15)
    rows = [MixedWord(ctx, [ctx.field_from_index(rng.randrange(8))
                            for _ in range(15)],
                      [ctx.ring_from_index(rng.randrange(64))
                       for _ in range(15)])]
    while (nxt := theta_shift(rows[-1], autom)) != rows[0]:
        rows.append(nxt)
    assert len(rows) == 15
    part = MixedMatrix.from_rows(rows[:12])
    assert standard_form(part).code_type != \
        standard_form(MixedMatrix.from_rows(rows)).code_type
    for mat, answer in ((MixedMatrix.from_rows(rows), "yes"),
                        (part, "no")):
        path = tmp_path / "wide.mat"
        path.write_text(emit_matrix(mat))
        res = run_cli("is-skew-cyclic", str(path))
        assert (res.returncode, res.stdout, res.stderr) == \
            (0, f"skew cyclic: {answer}\n", "")


def test_is_skew_cyclic_takes_no_budget(tmp_path, capsys):
    path = tmp_path / "code.mat"
    path.write_text(QUATERNARY_FILE)
    with pytest.raises(SystemExit) as exc:
        cli.main(["is-skew-cyclic", str(path), "--budget", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: z24codes is-skew-cyclic ")
    assert err.endswith("error: unrecognized arguments: --budget 5\n")


def test_classify(tmp_path):
    path = tmp_path / "code.mat"
    path.write_text(QUATERNARY_FILE)
    res = run_cli("classify-z4", str(path))
    assert res.returncode == 0
    assert "case: ii" in res.stdout
    assert "g: 1+x^2" in res.stdout


def test_classify_rejects_open_set(tmp_path):
    path = tmp_path / "open.mat"
    path.write_text("m: 2\nh: 1+x+x^2\nr: 0\ns: 4\nrows:\n"
                    "| 1 0 1 0\n| 0 2 0 2\n")
    res = run_cli("classify-z4", str(path))
    assert res.returncode == 1
    assert "NotACode" in res.stderr


@pytest.mark.parametrize("command, status, out, err", [
    ("enumerate", 0, "count: 1\n", ""),
    ("is-skew-cyclic", 0, "skew cyclic: yes\n", ""),
    ("classify-z4", 1, "",
     "TrivialCode: the zero code has no canonical generator\n"),
])
def test_matrix_without_rows_is_the_zero_code(tmp_path, capsys, command,
                                               status, out, err):
    path = tmp_path / "zero.mat"
    path.write_text("m: 2\nh: 1+x+x^2\nr: 0\ns: 2\nrows:\n")
    assert cli.main([command, str(path)]) == status
    assert capsys.readouterr() == (out, err)


def test_matrix_parse_error_exit_code(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_text("m: 2\nh: 1+x+x^2\nr: 1\ns: 1\nrows:\n1 | w^\n")
    res = run_cli("std-form", str(path))
    assert res.returncode == 2
    assert "line 5" in res.stderr


def test_overlong_literal_is_exit_two(tmp_path):
    path = tmp_path / "long.mat"
    path.write_text("m: 2\nh: 1+x+x^2\nr: 1\ns: 1\nrows:\n1 | 1"
                    + "0" * 5000 + "\n")
    res = run_cli("std-form", str(path))
    assert res.returncode == 2
    assert "line 5, column 4" in res.stderr
    assert "Traceback" not in res.stderr


def test_missing_file_is_exit_one(tmp_path):
    res = run_cli("std-form", str(tmp_path / "absent.mat"))
    assert res.returncode == 1


def test_nonpositive_t_names_its_error(tmp_path):
    path = tmp_path / "code.mat"
    path.write_text(QUATERNARY_FILE)
    res = run_cli("is-skew-cyclic", str(path), "--t", "0")
    assert res.returncode == 1
    assert res.stderr == "InvalidArgument: t must be a positive integer\n"


def test_verify_paper_passes():
    res = run_cli("verify-paper")
    assert res.returncode == 0
    lines = [l for l in res.stdout.splitlines() if l.startswith("[")]
    assert len(lines) == 21
    assert all(l.startswith("[pass]") for l in lines)


def test_verify_paper_fails_under_optimisation():
    # Checks must not rely on assert, which python -O strips.
    script = (
        "import sys\n"
        "from artifact.galois import AutomorphismSpec\n"
        "AutomorphismSpec.apply = lambda self, elem: elem\n"
        "from artifact.cli import main\n"
        "sys.exit(main(['verify-paper']))\n")
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         capture_output=True, text=True)
    assert res.returncode == 1
    assert "[FAIL] frobenius maps 1+w to 3*w" in res.stdout


def test_verify_paper_json():
    doc = json.loads(run_cli("verify-paper", "--format", "json").stdout)
    assert doc["all_passed"] is True
    assert len(doc["checks"]) == 21


# Runs in a fresh interpreter, since this one has loaded numpy already.
_COLD_START = """
import contextlib, io, json, sys
from artifact.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"exit": codes, "numpy": "numpy" in sys.modules}))
"""


def cold_start(*argvs):
    """Exit codes of ``main`` on each argv, and whether numpy got loaded."""
    res = subprocess.run([sys.executable, "-c", _COLD_START,
                          json.dumps(argvs)],
                         capture_output=True, text=True, check=True)
    return json.loads(res.stdout)


def test_algebraic_commands_start_without_numpy(tmp_path):
    mat, gens = tmp_path / "code.mat", tmp_path / "code.gens"
    mat.write_text(MATRIX_FILE)
    gens.write_text(GENS_FILE)
    assert cold_start(
        ["ctx-info", "--m", "2"],
        ["skew-mul", "--m", "2", "(w)*x", "(1+w)*x"],
        ["std-form", str(mat)],
        ["dual", str(mat)],
        ["validate-gens", str(gens)],
        ["cofactors", str(gens)],
        ["span", str(gens)],
        ["is-skew-cyclic", str(mat)],
    ) == {"exit": [0] * 8, "numpy": False}


def test_enumerate_loads_numpy(tmp_path):
    mat = tmp_path / "code.mat"
    mat.write_text(QUATERNARY_FILE)
    assert cold_start(["enumerate", str(mat)]) == {"exit": [0],
                                                   "numpy": True}


def test_readme_lists_every_subcommand():
    readme = (pathlib.Path(__file__).resolve().parent.parent
              / "README.md").read_text()
    sentence = re.search(r"Subcommands: (.*?)\.\s", readme, re.S).group(1)
    parser = cli._build_parser()
    choices = next(a.choices for a in parser._actions
                   if a.dest == "command")
    assert re.findall(r"`([^`]+)`", sentence) == list(choices)
