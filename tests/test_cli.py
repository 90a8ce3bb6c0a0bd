import io
import json
import re

import pytest

from alphaspectral import (
    BatteryReport, ExtremalRecord, SequenceDiagnostic, canonical_form, decode_graph6, encode_graph6, enumerate_graphs,
    spectral_radius, turan, wheel, write_graph6_lines
)
from alphaspectral.cli import RadiusTable, build_parser, cmd_lambda, main


def run_cli(argv, capsys, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_turan(self, capsys):
        code, out, _ = run_cli(["gen", "turan:6:3"], capsys)
        assert code == 0
        assert out.strip() == encode_graph6(turan(6, 3))

    def test_wheel(self, capsys):
        code, out, _ = run_cli(["gen", "wheel:6"], capsys)
        assert code == 0
        assert decode_graph6(out.strip()).edge_count == wheel(6).edge_count == 10

    def test_bad_arity_exits_2(self, capsys):
        code, _, err = run_cli(["gen", "turan:3:5"], capsys)
        assert code == 2 and "error" in err

    def test_unknown_tag_exits_2(self, capsys):
        code, _, err = run_cli(["gen", "zigzag:3"], capsys)
        assert code == 2


class TestLambda:
    def test_triangle_from_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["lambda", "-a", "0.5", "--format", "csv"], capsys, "Bw\n", monkeypatch
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "graph6,alpha,lambda_alpha,residual"
        fields = lines[1].split(",")
        assert fields[0] == "Bw"
        assert float(fields[2]) == pytest.approx(2.0, abs=1e-9)

    def test_star_half(self, capsys, monkeypatch):
        from alphaspectral import star

        key = encode_graph6(star(3))
        code, out, _ = run_cli(
            ["lambda", "-a", "0.5", "--format", "csv"], capsys, key + "\n", monkeypatch
        )
        assert code == 0
        assert float(out.strip().splitlines()[1].split(",")[2]) == pytest.approx(2.0, abs=1e-9)

    def test_header_not_in_key(self, capsys, monkeypatch):
        code, out, _ = run_cli(["lambda", "-a", "0", "--format", "csv"], capsys, ">>graph6<<Bw\n", monkeypatch)
        assert code == 0 and out.splitlines()[1].split(",")[0] == "Bw"

    def test_rows_ordered_input_then_alpha(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["lambda", "-a", "0.5,0", "--format", "csv"], capsys, "Bw\nA_\n", monkeypatch
        )
        rows = [line.split(",")[:2] for line in out.strip().splitlines()[1:]]
        assert rows == [["Bw", "0"], ["Bw", "0.5"], ["A_", "0"], ["A_", "0.5"]]

    def test_garbage_line_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(["lambda", "-a", "0.5"], capsys, "Bw\n!!!\n", monkeypatch)
        assert code == 2
        assert "line 2" in err

    def test_bad_alpha_exits_2(self, capsys, monkeypatch):
        code, _, _ = run_cli(["lambda", "-a", "1.5"], capsys, "Bw\n", monkeypatch)
        assert code == 2

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "graphs.g6"
        path.write_text("Bw\n")
        code, out, _ = run_cli(["lambda", str(path), "-a", "0", "--format", "json"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["lambda_alpha"] == pytest.approx(2.0, abs=1e-9)

    def test_rows_bitwise_equal_per_alpha_radii(self, tmp_path):
        # one Perron stack per graph over the whole alpha list gives the same
        # floats as one spectral_radius per (graph, alpha)
        grid = [0, 0.1, 0.25, 0.3, 0.5, 0.6, 0.9, 0.99]
        graphs = [G for n in range(1, 7) for G in enumerate_graphs(n)]
        path = tmp_path / "classes.g6"
        path.write_text(write_graph6_lines(graphs))
        args = build_parser().parse_args(["lambda", str(path), "-a", ",".join(map(str, grid))])
        got = [(k, a, lam.hex(), res.hex()) for k, a, lam, res in cmd_lambda(args).rows]
        want = [
            (encode_graph6(G), a, r.lambda_alpha.hex(), r.residual.hex())
            for G in graphs for a in grid for r in [spectral_radius(G, a)]
        ]
        assert len(graphs) == 208 and got == want


class TestExtremal:
    def test_spectral_search(self, capsys):
        code, out, _ = run_cli(
            ["extremal", "-n", "6", "-a", "0.25", "-F", "complete:3", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["optimum"] == pytest.approx(3.0, abs=1e-9)
        assert payload["argmax"] == [canonical_form(turan(6, 2))]

    def test_edge_search(self, capsys):
        code, out, _ = run_cli(
            ["extremal", "-n", "5", "--edges", "-F", "complete:3", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["optimum"] == 6

    def test_raw_graph6_family(self, capsys):
        code, out, _ = run_cli(
            ["extremal", "-n", "5", "--edges", "-F", "Bw", "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out)["optimum"] == 6

    @pytest.mark.parametrize("argv", [["extremal", "-n", "5", "-a", "0.1"], ["sequence", "-a", "0", "--n", "4..5"]])
    def test_unknown_family_tag_exits_2(self, capsys, argv):
        # a token that holds ':' is never graph6, so it is read as a spec
        code, out, err = run_cli([*argv, "-F", "compete:3"], capsys)
        known = (
            "book, complete, complete_bipartite, cycle, empty, matching, path, split, split_plus, star, turan, wheel"
        )
        assert (code, out, err) == (2, "", f"error: unknown family tag 'compete' (known: {known})\n")

    def test_cap_without_force_exits_2(self, capsys):
        code, _, err = run_cli(
            ["extremal", "-n", "11", "-a", "0.1", "-F", "complete:3"], capsys
        )
        assert code == 2 and "--force" in err and "force=True" in err

    def test_missing_alpha_exits_2(self, capsys):
        code, _, _ = run_cli(["extremal", "-n", "5", "-F", "complete:3"], capsys)
        assert code == 2

    @pytest.mark.parametrize("tie_tol", ["-1", "nan"])
    def test_bad_tie_tol_exits_2(self, capsys, tie_tol):
        code, out, err = run_cli(
            ["extremal", "-n", "5", "-a", "0.3", "-F", "complete:3", "--tie-tol", tie_tol], capsys
        )
        assert code == 2 and out == "" and "tie_tol" in err

    @pytest.mark.parametrize("eps", ["nan", "5", "-1", "0", "0.5"])
    def test_bad_min_degree_frac_exits_2(self, capsys, eps):
        code, out, err = run_cli(
            ["extremal", "-n", "6", "-a", "0.3", "-F", "complete:3", "--min-degree-frac", eps], capsys
        )
        assert code == 2 and out == "" and "--min-degree-frac must lie in (0, 1/2)" in err

    @pytest.mark.parametrize(
        "option", [["-a", "0.3"], ["--tie-tol", "2"], ["--min-degree-frac", "0.1"]]
    )
    def test_edges_rejects_spectral_options(self, capsys, option):
        code, out, err = run_cli(["extremal", "-n", "5", "--edges", "-F", "complete:3", *option], capsys)
        assert code == 2 and out == "" and option[0] in err

    def test_min_degree_floor_above_order_exits_2(self, capsys):
        # (2/3 - 0.1) * 2 gives the floor 2 > n - 1: no class, not K2
        code, out, err = run_cli(
            ["extremal", "-n", "2", "-a", "0.1", "-F", "complete:4", "--min-degree-frac", "0.1"], capsys
        )
        assert code == 2 and out == "" and "no graph of order 2 has minimum degree 2" in err

    def test_min_degree_frac(self, capsys):
        code, out, _ = run_cli(
            [
                "extremal", "-n", "6", "-a", "0.2", "-F", "complete:3",
                "--min-degree-frac", "0.1", "--format", "json",
            ],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["classes_searched"] < 38

    def test_json_round_trip_byte_identity(self, capsys):
        from dataclasses import replace

        from alphaspectral import generate, spectral_extremal
        from alphaspectral.enumeration import family_keys

        code, out, _ = run_cli(
            ["extremal", "-n", "5", "-a", "0.5", "-F", "matching:2", "--format", "json"],
            capsys,
        )
        payload = json.loads(out)
        rec = replace(spectral_extremal(5, 0.5, generate("matching:2")), elapsed=payload["elapsed"])
        assert payload == {
            "n": rec.n,
            "alpha": rec.alpha,
            "family": list(family_keys(rec.family)),
            "optimum": rec.optimum,
            "argmax": list(rec.argmax),
            "classes_searched": rec.classes_searched,
            "elapsed": rec.elapsed,
        }
        assert out == rec.to_json() + "\n"


class TestVerify:
    def test_small_battery_exit_0(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--n-max", "4", "--alphas", "0,0.25,0.5", "--r", "2,3"], capsys
        )
        assert code == 0
        assert "verdict: PASS" in out

    def test_alpha_one_exits_2(self, capsys):
        code, _, _ = run_cli(["verify", "--n-max", "3", "--alphas", "1.0"], capsys)
        assert code == 2

    def test_unfiltered_ten_exits_2_before_enumerating(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the battery started enumerating")

        monkeypatch.setattr("alphaspectral.verifier.enumerate_graphs", refuse)
        code, _, err = run_cli(["verify", "--n-max", "10", "--alphas", "0"], capsys)
        assert code == 2 and "12,005,168" in err

    @pytest.mark.parametrize("n_max", ["10", "13"])
    def test_cap_message_names_the_battery_reach(self, capsys, n_max):
        code, _, err = run_cli(["verify", "--n-max", n_max, "--alphas", "0"], capsys)
        assert code == 2 and "past the reach of the battery (cap 9)" in err
        assert "force" not in err

    def test_vacuous_pass(self, capsys):
        code, out, _ = run_cli(["verify", "--n-max", "1", "--alphas", "0"], capsys)
        assert code == 0

    def test_hard_failure_exits_1(self, capsys, monkeypatch):
        from alphaspectral.verifier import BatteryReport, CheckReport

        bad = CheckReport("sandwich-lower", "Bw alpha=0", 2.0, 1.0, -1.0, False, "fail")
        report = BatteryReport(
            n_max=1,
            alphas=(0.0,),
            r_set=(2,),
            counts={"sandwich-lower": {"pass": 0, "fail": 1, "skipped": 0}},
            failures=[bad],
            findings=[],
            total=1,
            passed=False,
        )
        monkeypatch.setattr("alphaspectral.verifier.run_battery", lambda *a, **k: report)
        code, out, _ = run_cli(["verify", "--n-max", "1", "--alphas", "0"], capsys)
        assert code == 1
        assert "verdict: FAIL" in out


class TestSequence:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(
            ["sequence", "-F", "complete:3", "-a", "0", "--n", "4..8"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,optimum,ratio_n,ratio_n_minus_1,hypothesis_ok"
        assert len(lines) == 6
        ratios = [float(line.split(",")[3]) for line in lines[1:]]
        assert ratios == sorted(ratios, reverse=True)

    def test_single_order(self, capsys):
        code, out, _ = run_cli(["sequence", "-F", "complete:3", "-a", "0.1", "--n", "5"], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_bipartite_family_na_column(self, capsys):
        code, out, _ = run_cli(["sequence", "-F", "star:3", "-a", "0.1", "--n", "4..5"], capsys)
        assert code == 0
        assert "n/a" in out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "seq.csv"
        code, out, _ = run_cli(
            ["sequence", "-F", "complete:3", "-a", "0", "--n", "4..5", "--output", str(target)],
            capsys,
        )
        assert code == 0 and out == ""
        assert target.read_text().startswith("n,optimum")


def test_output_repeatable_apart_from_elapsed(capsys):
    argv = ["extremal", "-n", "6", "-a", "0.3", "-F", "complete:3", "--format", "csv"]
    outs = []
    for _ in range(2):
        code = main(argv)
        assert code == 0
        out = capsys.readouterr().out
        # elapsed differs between runs; everything else must be identical
        outs.append([",".join(line.split(",")[:-1]) for line in out.splitlines()])
    assert outs[0] == outs[1]


# stdout of every (command, format) pair the CLI accepts, elapsed masked;
# extremal runs a spectral and an --edges search, lambda reads STDIN
STDIN = "Bw\n\nA_\n  \nC~\n"  # blank lines are skipped, each key stays with its graph
GOLDEN = {
    "lambda -a 0.5,0": (
        "graph6     alpha      lambda_alpha    residual\n"
        "Bw         0                 2    2.22e-16\n"
        "Bw       0.5                 2    8.88e-16\n"
        "A_         0                 1    0.00e+00\n"
        "A_       0.5                 1    0.00e+00\n"
        "C~         0                 3    4.44e-16\n"
        "C~       0.5                 3    2.22e-16\n"
    ),
    "lambda -a 0.5,0 --format json": (
        '[{"alpha":0.0,"graph6":"Bw","lambda_alpha":2.0,"residual":2.220446049250313e-16},{"alpha":0.5,'
        '"graph6":"Bw","lambda_alpha":1.9999999999999993,"residual":8.881784197001252e-16},{"alpha":0.0,'
        '"graph6":"A_","lambda_alpha":1.0,"residual":0.0},{"alpha":0.5,"graph6":"A_","lambda_alpha":1.0,'
        '"residual":0.0},{"alpha":0.0,"graph6":"C~","lambda_alpha":3.0,"residual":4.440892098500626e-16},'
        '{"alpha":0.5,"graph6":"C~","lambda_alpha":3.0,"residual":2.220446049250313e-16}]\n'
    ),
    "lambda -a 0.5,0 --format csv": (
        "graph6,alpha,lambda_alpha,residual\n"
        "Bw,0,2,2.22044604925e-16\n"
        "Bw,0.5,2,8.881784197e-16\n"
        "A_,0,1,0\n"
        "A_,0.5,1,0\n"
        "C~,0,3,4.4408920985e-16\n"
        "C~,0.5,3,2.22044604925e-16\n"
    ),
    "extremal -n 6 -a 0.3 -F complete:3": (
        "n:               6\n"
        "alpha:           0.3\n"
        "family:          Bw\n"
        "optimum:         3\n"
        "argmax:          EFz_\n"
        "classes_searched:38\n"
        "elapsed:         _\n"
    ),
    "extremal -n 6 -a 0.3 -F complete:3 --format json": (
        '{"alpha":0.3,"argmax":["EFz_"],"classes_searched":38,"elapsed":_,"family":["Bw"],"n":6,'
        '"optimum":3.0000000000000013}\n'
    ),
    "extremal -n 6 -a 0.3 -F complete:3 --format csv": (
        "n,alpha,family,optimum,argmax,classes_searched,elapsed\n"
        "6,0.3,Bw,3,EFz_,38,_\n"
    ),
    "extremal -n 6 --edges -F complete:3": (
        "n:               6\n"
        "alpha:           -\n"
        "family:          Bw\n"
        "optimum:         9\n"
        "argmax:          EFz_\n"
        "classes_searched:38\n"
        "elapsed:         _\n"
    ),
    "extremal -n 6 --edges -F complete:3 --format json": (
        '{"alpha":null,"argmax":["EFz_"],"classes_searched":38,"elapsed":_,"family":["Bw"],"n":6,'
        '"optimum":9}\n'
    ),
    "extremal -n 6 --edges -F complete:3 --format csv": (
        "n,alpha,family,optimum,argmax,classes_searched,elapsed\n"
        "6,,Bw,9,EFz_,38,_\n"
    ),
    "verify --n-max 4 --alphas 0,0.5 --r 2,3": (
        "battery n_max=4 alphas=['0', '0.5'] r_set=[2, 3]\n"
        "check                         pass    fail  skipped\n"
        "blowup-scaling                  72       0        0\n"
        "degree-square-lower             36       0        0\n"
        "degree-stability                 2       0        0\n"
        "deletion-bound                  34       0        0\n"
        "entry-bound                     20       0       16\n"
        "log-expansion-positive           4       0        0\n"
        "log-gap-lower                    4       0        0\n"
        "mean-degree-lower               36       0        0\n"
        "min-entry-upper                 20       0       16\n"
        "reciprocal-gap-lower             4       0        0\n"
        "regularity-equality             36       0        0\n"
        "sandwich-lower                  36       0        0\n"
        "sandwich-upper                  36       0        0\n"
        "turan-edge-lower                 5       0        0\n"
        "turan-lambda-bound              10       0        0\n"
        "turan-lambda-lower               5       0        0\n"
        "total checks: 392\n"
        "verdict: PASS\n"
    ),
    "verify --n-max 4 --alphas 0,0.5 --r 2,3 --format json": (
        '{"alphas":[0.0,0.5],"counts":{"blowup-scaling":{"fail":0,"pass":72,"skipped":0},'
        '"degree-square-lower":{"fail":0,"pass":36,"skipped":0},"degree-stability":{"fail":0,"pass":2,'
        '"skipped":0},"deletion-bound":{"fail":0,"pass":34,"skipped":0},"entry-bound":{"fail":0,'
        '"pass":20,"skipped":16},"log-expansion-positive":{"fail":0,"pass":4,"skipped":0},'
        '"log-gap-lower":{"fail":0,"pass":4,"skipped":0},"mean-degree-lower":{"fail":0,"pass":36,'
        '"skipped":0},"min-entry-upper":{"fail":0,"pass":20,"skipped":16},'
        '"reciprocal-gap-lower":{"fail":0,"pass":4,"skipped":0},"regularity-equality":{"fail":0,'
        '"pass":36,"skipped":0},"sandwich-lower":{"fail":0,"pass":36,"skipped":0},'
        '"sandwich-upper":{"fail":0,"pass":36,"skipped":0},"turan-edge-lower":{"fail":0,"pass":5,'
        '"skipped":0},"turan-lambda-bound":{"fail":0,"pass":10,"skipped":0},'
        '"turan-lambda-lower":{"fail":0,"pass":5,"skipped":0}},"failures":[],"findings":[],"n_max":4,'
        '"passed":true,"r_set":[2,3],"total":392}\n'
    ),
    "sequence -F complete:3 -a 0.2 --n 4..6": (
        "n,optimum,ratio_n,ratio_n_minus_1,hypothesis_ok\n"
        "4,2,0.5,0.666666666667,true\n"
        "5,2.46214168703,0.492428337407,0.615535421759,true\n"
        "6,3,0.5,0.6,true\n"
    ),
    "sequence -F complete:3 -a 0.2 --n 4..6 --format json": (
        '{"alpha":0.2,"family":["Bw"],"ratio_nonincreasing":true,"rows":[{"hypothesis_ok":true,"n":4,'
        '"optimum":1.9999999999999998,"ratio_n":0.49999999999999994,'
        '"ratio_n_minus_1":0.6666666666666666},{"hypothesis_ok":true,"n":5,"optimum":2.462141687034857,'
        '"ratio_n":0.4924283374069714,"ratio_n_minus_1":0.6155354217587142},{"hypothesis_ok":true,"n":6,'
        '"optimum":2.9999999999999987,"ratio_n":0.4999999999999998,'
        '"ratio_n_minus_1":0.5999999999999998}]}\n'
    ),
    "gen turan:5:2": (
        "DlS\n"
    ),
}

def masked(out: str) -> str:
    """stdout with every elapsed value, in whichever format, replaced by _."""
    lines = out.split("\n")
    if lines[0].endswith(",elapsed"):
        lines[1:-1] = [line.rpartition(",")[0] + ",_" for line in lines[1:-1]]
    text = re.sub(r'"elapsed":[^,}]+', '"elapsed":_', "\n".join(lines))
    return re.sub(r"(elapsed: +)\S+", r"\1_", text)


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_stdout_matches_golden(capsys, monkeypatch, argv):
    code, out, err = run_cli(argv.split(), capsys, STDIN, monkeypatch)
    assert code == 0 and err == ""
    assert masked(out) == GOLDEN[argv]


SMALLEST_ARGV = {
    "lambda": ["lambda", "-a", "0"],
    "gen": ["gen", "wheel:4"],
    "extremal": ["extremal", "-n", "4", "-a", "0", "-F", "complete:3"],
    "verify": ["verify", "--n-max", "1", "--alphas", "0"],
    "sequence": ["sequence", "-F", "complete:3", "-a", "0", "--n", "4"],
}


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
@pytest.mark.parametrize("command", sorted(SMALLEST_ARGV))
def test_format_accepted_iff_the_result_writes_it(capsys, command, fmt):
    result = {"lambda": RadiusTable, "extremal": ExtremalRecord, "verify": BatteryReport,
              "sequence": SequenceDiagnostic}.get(command)  # gen writes its graph6 line
    if hasattr(result, f"to_{fmt}"):
        assert build_parser().parse_args([*SMALLEST_ARGV[command], "--format", fmt]).format == fmt
    else:
        code, out, err = run_cli([*SMALLEST_ARGV[command], "--format", fmt], capsys)
        assert code == 2 and out == "" and "usage:" in err and "--format" in err


def test_usage_error_exits_2(capsys):
    assert main(["extremal"]) == 2


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
