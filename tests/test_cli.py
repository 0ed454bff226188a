"""End-to-end checks of the command-line interface.

Every test drives main() with an argv list and inspects the exit code plus
the rendered payload, exactly as a shell user would see them.
"""

import csv
import io
import json
import re
import time
from importlib import resources

import jsonschema
import pytest

from bredonkit import cli
from bredonkit.cli import main
from bredonkit.cyclic_reps import CyclicGroup, irrep
from bredonkit.errors import PrimeTooLarge
from bredonkit.exact_linalg import IntMatrix, homology_at
from bredonkit.gcw_complex import (free_points, load_gcw, save_gcw,
                                   sphere_of_rep)
from bredonkit.mackey_bredon import MackeyCoefficients, bredon_cohomology

_SCHEMA = json.loads(resources.files("bredonkit")
                     .joinpath("schemas/output.schema.json").read_text())


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(out, fmt="json"):
    if fmt == "json":
        return json.loads(out)["rows"]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(out)))
    raise ValueError(fmt)


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sx3.gcw"
    path.write_text(save_gcw(sphere_of_rep(irrep(CyclicGroup(3), 1))))
    return str(path)


def test_point_window_row_count_and_order(capsys):
    code, out, _ = run(capsys, ["point", "--p", "3", "--m-range", "-4:4",
                                "--n-range", "-2:2"])
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 45
    assert [(r["m"], r["n"]) for r in rows] == sorted(
        (m, n) for m in range(-4, 5) for n in range(-2, 3))
    unit = [r for r in rows if (r["m"], r["n"]) == (0, 0)][0]
    assert (unit["dim"], unit["group"]) == (1, "F_3")
    gap = [r for r in rows if (r["m"], r["n"]) == (1, 0)][0]
    assert gap["dim"] == 0


def test_point_periodicity_label(capsys):
    code, out, _ = run(capsys, ["point", "--p", "5", "--m-range", "-2:-2",
                                "--n-range", "1:1"])
    assert code == 0
    (row,) = rows_of(out)
    assert row["dim"] == 1
    assert "u^1" in row["label"]


def test_point_integer_coefficients(capsys):
    code, out, _ = run(capsys, ["point", "--p", "3", "--coeff", "z",
                                "--m-range", "0:0", "--n-range", "0:0"])
    assert code == 0
    (row,) = rows_of(out)
    assert row["group"] == "Z"
    assert row["dim"] == 1

    code, _, err = run(capsys, ["point", "--p", "3", "--coeff", "z",
                                "--method", "b",
                                "--m-range", "0:0", "--n-range", "0:0"])
    assert code == 2
    assert "method a" in err


def test_point_methods_cross_check_by_default(capsys):
    code, out, _ = run(capsys, ["point", "--p", "3", "--m-range", "-1:-1",
                                "--n-range", "1:1", "--format", "csv"])
    assert code == 0
    (row,) = rows_of(out, "csv")
    assert row["group"] == "F_3"
    code, out, _ = run(capsys, ["point", "--p", "3", "--method", "c",
                                "--m-range", "-1:-1", "--n-range", "1:1",
                                "--format", "csv"])
    assert rows_of(out, "csv")[0]["group"] == "F_3"


def test_point_usage_errors(capsys):
    assert run(capsys, ["point", "--p", "4", "--m-range", "0:0",
                        "--n-range", "0:0"])[0] == 2
    assert run(capsys, ["point", "--p", "3", "--m-range", "3:1",
                        "--n-range", "0:0"])[0] == 2
    assert run(capsys, ["point", "--p", "3", "--m-range", "zero:one",
                        "--n-range", "0:0"])[0] == 2


def test_point_refuses_windows_past_the_grading_limit(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["point", "--p", "3", "--m-range", "-200:200",
                                  "--n-range", "-200:200"])
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert "160801 gradings" in err and "10000" in err
    assert "Traceback" not in err
    # past 2^63 gradings, where len() of a range overflows
    code, _, err = run(capsys, ["point", "--p", "3", "--m-range", "0:%d" % 10 ** 20,
                                "--n-range", "0:0"])
    assert code == 2 and "%d gradings" % (10 ** 20 + 1) in err
    # a window of exactly the limit answers
    code, out, _ = run(capsys, ["point", "--p", "3", "--method", "c",
                                "--m-range", "-49:50", "--n-range", "-49:50",
                                "--format", "csv"])
    assert code == 0 and len(rows_of(out, "csv")) == cli.MAX_POINT_GRADINGS


def test_space_rep_grading_vanishes(capsys, sphere_file):
    code, out, _ = run(capsys, ["space", sphere_file, "--grading", "xi"])
    assert code == 0
    (row,) = rows_of(out)
    assert row["group"] == "0"
    assert row["reduced"] is True


def test_space_integer_degrees(capsys, sphere_file):
    for degree, want in (("0", "F_3"), ("1", "F_3"), ("2", "0")):
        code, out, _ = run(capsys, ["space", sphere_file,
                                    "--grading", degree])
        assert code == 0
        assert rows_of(out)[0]["group"] == want


def test_space_integer_coefficients_on_composite_order(capsys, tmp_path):
    path = tmp_path / "sx6.gcw"
    path.write_text(save_gcw(sphere_of_rep(irrep(CyclicGroup(6), 1))))
    code, out, _ = run(capsys, ["space", str(path), "--grading", "1",
                                "--coeff", "z"])
    assert code == 0
    assert rows_of(out)[0]["group"] == "Z"
    # mod-p tables need a prime order
    assert run(capsys, ["space", str(path), "--grading", "1"])[0] == 2


def test_space_missing_file(capsys):
    code, _, err = run(capsys, ["space", "/no/such/file.gcw",
                                "--grading", "0"])
    assert code == 2
    assert "No such file" in err


def test_euler_single_characters(capsys):
    code, out, _ = run(capsys, ["euler", "--n", "6", "--rep", "xi^2"])
    assert code == 0
    (row,) = rows_of(out)
    assert (row["order"], row["nontrivial"]) == (3, True)

    code, out, _ = run(capsys, ["euler", "--n", "5", "--rep", "xi"])
    assert rows_of(out)[0]["order"] == 5


def test_euler_reduced_regular(capsys):
    code, out, _ = run(capsys, ["euler", "--n", "6", "--reduced-regular"])
    assert code == 0
    (row,) = rows_of(out)
    assert row["vanishes"] is True
    orders = sorted(w["order"] for w in row["witnesses"])
    assert orders == [2, 3]

    code, out, _ = run(capsys, ["euler", "--n", "5", "--reduced-regular"])
    assert rows_of(out)[0]["vanishes"] is False


def test_euler_usage_errors(capsys):
    assert run(capsys, ["euler", "--n", "6"])[0] == 2
    assert run(capsys, ["euler", "--n", "6", "--rep", "xi",
                        "--reduced-regular"])[0] == 2
    assert run(capsys, ["euler", "--n", "6", "--rep", "1"])[0] == 2
    assert run(capsys, ["euler", "--n", "6", "--rep", "xi + xi^2"])[0] == 2


def test_obstruct_genuine(capsys):
    code, out, _ = run(capsys, ["obstruct", "--p", "2", "--d", "3"])
    assert code == 0
    payload = json.loads(out)
    cert = payload["certificate"]
    assert cert["rechecked"] is True
    assert cert["problem"]["kind"] == "conf2-model"
    assert cert["witness_record"]["k"] == 2
    (row,) = payload["rows"]
    assert row["assumptions"] == 0
    assert row["target_group"] == "0"


def test_obstruct_surrogate(capsys):
    code, out, _ = run(capsys, ["obstruct", "--p", "3", "--d", "2"])
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["problem"]["kind"] == "surrogate-skeleton"
    assert len(cert["assumptions"]) == 1

    code, out, _ = run(capsys, ["obstruct", "--p", "3", "--d", "2",
                                "--surrogate", "3"])
    assert json.loads(out)["certificate"]["problem"]["surrogate_m"] == 3


def test_obstruct_inadequate_model_fails(capsys, tmp_path):
    path = tmp_path / "orbit.gcw"
    path.write_text(save_gcw(free_points(CyclicGroup(3), 1)))
    code, _, err = run(capsys, ["obstruct", "--p", "3", "--d", "2",
                                "--model", str(path)])
    assert code == 1
    assert "vanishes" in err
    assert run(capsys, ["obstruct", "--p", "3", "--d", "2",
                        "--model", str(path), "--surrogate", "2"])[0] == 2


def test_selftest_green(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    rows = rows_of(out)
    assert len(rows) == 6
    assert all(r["ok"] for r in rows)


def test_output_formats(capsys):
    argv = ["point", "--p", "3", "--m-range", "0:1", "--n-range", "0:0"]
    _, out, _ = run(capsys, argv + ["--format", "json"])
    doc = json.loads(out)
    assert set(doc["metadata"]) == {"engine_version", "command", "timestamp"}
    assert doc["metadata"]["engine_version"] == "0.1.0"

    _, out, _ = run(capsys, argv + ["--format", "csv"])
    lines = out.strip().splitlines()
    assert lines[0] == "m,n,dim,group,label"
    assert len(lines) == 3

    _, out, _ = run(capsys, argv + ["--format", "md"])
    lines = out.strip().splitlines()
    assert lines[0].startswith("| m | n |")
    assert set(lines[1].replace("|", "").split()) == {"---"}


def _theta_graph(p):
    """3 fixed vertices, 4 fixed edges over C_p: H^0 = Z, H^1 = Z^2."""
    lines = ["group cyclic %d" % p]
    lines += ["cell v%d dim 0 stab %d" % (i, p) for i in range(3)]
    lines += ["cell e%d dim 1 stab %d" % (i, p) for i in range(4)]
    ends = ((0, 1), (1, 2), (2, 0), (0, 2))
    lines += ["bd e%d : v%d [1] ; v%d [-1]" % (i, b, a)
              for i, (a, b) in enumerate(ends)]
    return "\n".join(lines) + "\n"


def test_fp_refuses_primes_past_int64(capsys, tmp_path):
    # (p - 1)^2 >= 2^63: int64 elimination once gave 0 and F_p here
    big = 10000000019
    x = load_gcw(_theta_graph(big))
    with pytest.raises(PrimeTooLarge):
        bredon_cohomology(x, MackeyCoefficients(x.group, ("F", big)), 0)
    with pytest.raises(PrimeTooLarge):
        homology_at(IntMatrix(1, 1), IntMatrix(1, 1), ("F", big))
    path = tmp_path / "theta.gcw"
    path.write_text(_theta_graph(big))
    for degree, want in (("0", "Z"), ("1", "Z^2")):
        code, out, _ = run(capsys, ["space", str(path), "--grading", degree,
                                    "--coeff", "z"])
        assert code == 0 and rows_of(out)[0]["group"] == want
        code, _, err = run(capsys, ["space", str(path), "--grading", degree,
                                    "--coeff", "fp"])
        assert code == 1 and "2^63" in err
    # the largest primes below the bound still compute exactly
    ok = 3037000493
    path.write_text(_theta_graph(ok))
    for degree, want in (("0", "F_%d" % ok), ("1", "F_%d^2" % ok)):
        code, out, _ = run(capsys, ["space", str(path), "--grading", degree])
        assert code == 0 and rows_of(out)[0]["group"] == want


def test_point_refuses_huge_primes_quickly(capsys):
    # 2^61 - 1 is prime, but past the int64 bound of F_p elimination
    argv = ["point", "--p", str(2 ** 61 - 1), "--m-range", "0:0",
            "--n-range", "0:0"]
    start = time.perf_counter()
    code, _, err = run(capsys, argv)
    assert time.perf_counter() - start < 2.0
    assert code == 1 and "2^63" in err
    code, out, _ = run(capsys, argv + ["--coeff", "z"])
    assert code == 0 and rows_of(out)[0]["group"] == "Z"
    # past the range where primality is decided exactly
    code, _, err = run(capsys, ["point", "--p", str(2 ** 89 - 1),
                                "--m-range", "0:0", "--n-range", "0:0"])
    assert code == 1 and "exactly" in err


def test_json_payloads_validate_against_the_shipped_schema(capsys, tmp_path,
                                                           sphere_file):
    from bredonkit.gcw_complex import conf2_model
    circle = tmp_path / "antipodal.gcw"
    circle.write_text(save_gcw(conf2_model(2)))
    invocations = [
        ["point", "--p", "3", "--m-range", "-1:1", "--n-range", "0:1"],
        ["point", "--p", "3", "--coeff", "z", "--m-range", "0:1",
         "--n-range", "0:0"],
        ["space", sphere_file, "--grading", "xi"],
        ["space", sphere_file, "--grading", "1", "--reduced"],
        ["euler", "--n", "6", "--rep", "xi^2"],
        ["euler", "--n", "6", "--reduced-regular"],
        ["obstruct", "--p", "2", "--d", "2"],
        ["obstruct", "--p", "3", "--d", "2", "--surrogate", "3"],
        ["obstruct", "--p", "2", "--d", "2", "--model", str(circle)],
        ["selftest"],
    ]
    for argv in invocations:
        code, out, _ = run(capsys, argv)
        assert code == 0, argv
        jsonschema.validate(json.loads(out), _SCHEMA)


def test_unknown_subcommand_is_usage_error(capsys):
    assert run(capsys, ["bogus"])[0] == 2
    assert run(capsys, [])[0] == 2


def test_one_parser_serves_every_call(capsys, monkeypatch, sphere_file):
    assert cli._build_parser() is cli._build_parser()
    invocations = [
        ["point", "--p", "3"],
        ["--help"],
        ["point", "--p", "3", "--m-range", "-1:1", "--n-range", "0:1"],
        ["space", sphere_file, "--grading", "xi"],
        ["euler", "--n", "6", "--rep", "xi^2"],
        ["obstruct", "--p", "2", "--d", "3", "--format", "md"],
        ["obstruct", "--p", "3", "--d", "2"],
    ]

    def transcript():
        out = []
        for argv in invocations:
            code, stdout, stderr = run(capsys, argv)
            out.append((code, re.sub(r'"timestamp": "[^"]*"', "", stdout),
                        stderr))
        return out

    shared = transcript()
    assert [code for code, _, _ in shared] == [2, 0, 0, 0, 0, 0, 0]
    assert "usage: bredonkit" in shared[1][1]
    # the same calls on a parser built afresh for each of them
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    assert cli._build_parser() is not cli._build_parser()
    assert transcript() == shared
