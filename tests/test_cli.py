import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from stochord import cli, distributions, exact
from stochord.cli import EX_CANTCREAT, EX_DATAERR, EX_SOFTWARE, EX_USAGE, main
from stochord.harness import MATRIX

WORKED_PAIR = {
    "config1": {"family": "gamma", "shapes": [0.4, 0.6, 0.5], "scales": [2, 3, 4]},
    "config2": {"family": "gamma", "shapes": [0.7, 0.3, 0.5], "scales": [1, 3, 5]},
}

# Specs past the lattice limits: a success probability of 1e-6 (the gamma
# latent's rate ratio) needs about 2.8e7 lattice points; 0.3**5e5 underflows.
OVERSIZE_GAMMA = {"family": "gamma", "shapes": [1, 2], "scales": [1e-6, 1]}
OVERSIZE_NEGBIN = {"family": "negbin", "shapes": [1], "scales": [1e-6]}
UNDERFLOWING_NEGBIN = {"family": "negbin", "shapes": [5e5], "scales": [0.3]}
# A gamma rate of 5e-324 puts the mean, and so the grid's end, past the floats.
SUBNORMAL_RATE_GAMMA = {"family": "gamma", "shapes": [1], "scales": [5e-324]}
# Rates 1e-20 and 1e308: the latent's success probability 1e-20 / 1e308
# underflows to 0.
UNDERFLOWING_RATIO_GAMMA = {"family": "gamma", "shapes": [1, 1], "scales": [1e-20, 1e308]}
# Each row's head 0.01**100 is a normal float, their convolution's head
# 1e-400 is not: the deconvolution's divisor underflows.
UNDERFLOWING_HEAD_NEGBIN = {"family": "negbin", "shapes": [100, 100], "scales": [0.01, 0.01]}
# Shapes whose total passes the largest float.
OVERSIZE_TOTAL_GAMMA = {"family": "gamma", "shapes": [1e308, 1e308], "scales": [1, 1]}
# Each of these pairs is one of the above against a spec with less shape at
# a smaller rate (success probability) and more at larger ones: neither
# Lévy certificate holds (h(u), or S_1, turns negative), and neither tail nor
# mean refutes, so the exact stage leaves the pair to the laws.
UNDERFLOWING_NEGBIN_PAIR = {
    "config1": UNDERFLOWING_NEGBIN,
    "config2": {"family": "negbin", "shapes": [2.5e5], "scales": [0.15]},
}
UNDERFLOWING_HEAD_NEGBIN_PAIR = {
    "config1": UNDERFLOWING_HEAD_NEGBIN,
    "config2": {"family": "negbin", "shapes": [100, 100], "scales": [0.005, 0.5]},
}
OVERSIZE_GAMMA_PAIR = {
    "config1": OVERSIZE_GAMMA,
    "config2": {"family": "gamma", "shapes": [0.75, 2.25], "scales": [5e-7, 2]},
}
UNDERFLOWING_RATIO_GAMMA_PAIR = {
    "config1": UNDERFLOWING_RATIO_GAMMA,
    "config2": {"family": "gamma", "shapes": [0.75, 1.25], "scales": [5e-21, 1.5e308]},
}
OVERSIZE_TOTAL_GAMMA_PAIR = {
    "config1": OVERSIZE_TOTAL_GAMMA,
    "config2": {"family": "gamma", "shapes": [7.5e307, 1.25e308], "scales": [0.5, 2]},
}
# A JSON integer past the largest float, which no float can hold.
PAST_FLOATS = "1" + "0" * 400


@pytest.fixture
def pair_file(tmp_path):
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(WORKED_PAIR))
    return str(path)


class TestCheckOrder:
    def test_worked_example_holds(self, pair_file, capsys):
        assert main(["check-order", pair_file]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "holds" and out["v"] == 1

    def test_witness_round_trip(self, pair_file, tmp_path, capsys):
        witness = str(tmp_path / "witness.json")
        assert main(["check-order", pair_file, "--emit-witness", witness]) == 0
        assert main(["check-order", pair_file, "--verify-witness", witness]) == 0
        assert "accepted" in capsys.readouterr().out

    def test_refuted_exit_code(self, tmp_path):
        reversed_pair = {
            "config1": WORKED_PAIR["config2"],
            "config2": WORKED_PAIR["config1"],
        }
        path = tmp_path / "rev.json"
        path.write_text(json.dumps(reversed_pair))
        assert main(["check-order", str(path)]) == 1

    def test_strict_mode_selectable(self, pair_file):
        assert main(["check-order", pair_file, "--mode", "strict"]) == 0

    def test_near_tied_rates_hold(self, tmp_path, capsys):
        """Two rates 5e-12 apart under shapes ten times larger: the
        construction sorts them exactly and decides."""
        near_tie = {
            "config1": {"family": "gamma", "shapes": [10, 10], "scales": [1, 1.000000000005]},
            "config2": {"family": "gamma", "shapes": [9, 12], "scales": [1.5, 0.4]},
        }
        path = tmp_path / "near_tie.json"
        path.write_text(json.dumps(near_tie))
        assert main(["check-order", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["status"] == "holds"


    def test_worked_example_with_rates_summing_past_the_floats(self, tmp_path, capsys):
        """The worked example with its rates times 2^1021, whose totals pass
        the largest float: it holds in two moves, the emitted witness
        verifies, and ``verify --order conv`` holds too."""
        r = 2.0**1021
        top = {
            "config1": {**WORKED_PAIR["config1"], "scales": [r * c for c in (2, 3, 4)]},
            "config2": {**WORKED_PAIR["config2"], "scales": [r * c for c in (1, 3, 5)]},
        }
        assert top["config1"]["scales"] == [
            4.49423283715579e307, 6.741349255733685e307, 8.98846567431158e307
        ]
        path, witness = tmp_path / "top.json", str(tmp_path / "w.json")
        path.write_text(json.dumps(top))
        assert main(["check-order", str(path), "--emit-witness", witness]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "holds" and out["moves"] == 2
        assert main(["check-order", str(path), "--verify-witness", witness]) == 0
        assert capsys.readouterr().out == "witness accepted (2 moves)\n"
        assert main(["verify", str(path), "--order", "conv"]) == 0

    @pytest.mark.parametrize("order", ["conv", "st"])
    def test_sum_past_the_floats(self, order, tmp_path, capsys):
        """The start's rates sum past the largest float: one lowering of a
        rate reaches the target."""
        pair = {
            "config1": {"family": "gamma", "shapes": [1, 2], "scales": [1e308, 1e308]},
            "config2": {"family": "gamma", "shapes": [1, 2], "scales": [9e307, 1e308]},
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair))
        assert main(["check-order", str(path), "--order", order]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "holds" and out["moves"] == 1


    @pytest.mark.parametrize("exponent", [1000, 1021])
    def test_a_move_that_breaks_the_sum_is_rejected_past_the_floats(
        self, exponent, tmp_path, capsys
    ):
        """Rates r·(1, 5, 4) against r·(1, 6, 3.5) under shapes (0.4, 0.5,
        0.6): the y totals differ by r/2, so the pair is refuted and one
        majorize_y move at (1, 2) is no witness.  At r = 2^1021 both y
        totals pass the largest float, where both sums used to compare as
        infinities: the move was accepted and the refutation missed."""
        r = 2.0**exponent
        shapes = [0.4, 0.5, 0.6]
        y1, y2 = [r, 5 * r, 4 * r], [r, 6 * r, 3.5 * r]
        pair = {
            "config1": {"family": "gamma", "shapes": shapes, "scales": y1},
            "config2": {"family": "gamma", "shapes": shapes, "scales": y2},
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair))
        witness = tmp_path / "w.json"
        witness.write_text(json.dumps({"mode": "weak", "chain": [
            {"pair": {"x": shapes, "y": y1}, "move": None},
            {"pair": {"x": shapes, "y": y2}, "move": {"kind": "majorize_y", "i": 1, "j": 2}},
        ]}))
        assert main(["check-order", str(path), "--verify-witness", str(witness)]) == 1
        assert capsys.readouterr().out == "witness rejected (1 moves)\n"
        assert main(["check-order", str(path)]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["status"] == "refuted"
        assert out["violation"] == {"vector": "y", "prefix": 3, "mode": "above"}


    def test_rates_near_the_largest_float_do_not_crash(self, tmp_path, capsys):
        """Rates r·(1.42, 2.76, 2.5) against r·(1.25, 2.58, 2.65) at
        r = 2^1022: the search's transfers make candidates with an infinite
        component, which verify_rc_move let into the tree, and a sum over
        such a node raised OverflowError (exit 70).  The verdict is the one
        at r = 1, or unknown."""
        codes = []
        for r in (1.0, 2.0**1022):
            pair = {
                "config1": {"family": "gamma", "shapes": [1.4, 1.34, 1.56],
                            "scales": [r * c for c in (1.42, 2.76, 2.5)]},
                "config2": {"family": "gamma", "shapes": [1.72, 1.92, 2.12],
                            "scales": [r * c for c in (1.25, 2.58, 2.65)]},
            }
            path = tmp_path / "pair.json"
            path.write_text(json.dumps(pair))
            codes.append(main(["check-order", str(path)]))
            assert json.loads(capsys.readouterr().out)["v"] == 1
        assert codes[1] in (codes[0], 2)


class TestVerify:
    def test_equal_specs_exit_zero(self, tmp_path, capsys):
        s = {"family": "negbin", "shapes": [1.0, 2.0], "scales": [0.5, 0.6]}
        path = tmp_path / "eq.json"
        path.write_text(json.dumps({"config1": s, "config2": s}))
        assert main(["verify", str(path), "--order", "conv"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["param_status"] == "holds" and out["numeric_status"] == "holds"

    def test_worked_example_conv(self, pair_file):
        assert main(["verify", pair_file, "--order", "conv"]) == 0

    def test_report_written(self, pair_file, tmp_path):
        report = tmp_path / "out.jsonl"
        assert main(["verify", pair_file, "--order", "st", "--output", str(report)]) == 0
        assert json.loads(report.read_text())["v"] == 1


    def test_largest_rate_past_half_the_floats(self, tmp_path, capsys, monkeypatch):
        """The latents are taken at the pair's largest rate itself, so a
        rate of 1e308 needs no larger one.  The exact stage certifies a spec
        against itself; with the stage switched off, the latents decide."""
        g = {"family": "gamma", "shapes": [1], "scales": [1e308]}
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"config1": g, "config2": g}))
        assert main(["verify", str(path), "--order", "conv"]) == 0
        detail = json.loads(capsys.readouterr().out)["numeric_detail"]
        assert detail == {"certified": "levy", "order": 1}
        monkeypatch.setattr(exact, "decide", lambda *args: None)
        assert main(["verify", str(path), "--order", "conv"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["numeric_status"] == "holds" and out["numeric_detail"]["total_shapes"] == [1, 1]

    def test_total_shapes_within_tol_reach_the_deconvolution(self, tmp_path, capsys):
        """Totals 5e-7 apart under ``--tol 1e-6``: the total-shape test lets
        the pair through, and so does the deconvolution's offset check.
        ``config2``'s smaller rate 0.999 raises its mean past ``config1``'s,
        so the exact stage's mean test does not refute first."""
        pair = {
            "config1": {"family": "gamma", "shapes": [1.0000005, 1], "scales": [2, 1]},
            "config2": {"family": "gamma", "shapes": [1, 1], "scales": [2, 0.999]},
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(pair))
        assert main(["verify", str(path), "--order", "conv", "--tol", "1e-6"]) != EX_SOFTWARE
        detail = json.loads(capsys.readouterr().out)["numeric_detail"]
        assert detail["total_shapes"] == [2.0000005, 2.0]


class TestIdentity:
    def test_nb_mixture_reference_case(self, capsys):
        code = main(
            ["identity", "--prop", "nb-mixture", "--alpha", "1", "--p1", "0.5", "--p2", "0.4"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["residual"] <= 1e-10

    @pytest.mark.parametrize("prop", ["nb-pair", "gamma-single", "gamma-pair"])
    def test_other_identities_pass(self, prop):
        assert main(["identity", "--prop", prop]) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["--prop", "nb-pair", "--c0", "1e-90", "--lam1", "1e-91", "--lam2", "1e-92"],
            ["--prop", "nb-mixture", "--p1", "1e-300"],
            ["--prop", "gamma-single", "--beta", "1", "--common-beta", "1e6"],
            ["--prop", "nb-mixture", "--alpha", "1e7"],  # p**alpha underflows
            ["--prop", "nb-mixture", "--alpha", "1", "--p1", "0.01", "--p2", "0.01"],
            ["--prop", "gamma-pair", "--c0", "0.5", "--lam1", "0.49999", "--lam2", "0.1"],
            # 53 latent atoms whose rows at c0 - lam2 alone pass half of
            # MIXTURE_POINTS, before any 1e6-point rows are convolved
            ["--prop", "nb-pair", "--alpha", "4.004816636105557", "--c0",
             "0.00012376989810438933", "--lam1", "8.807328518038702e-05", "--lam2",
             "1.607184890682623e-06"],
            # every lattice within the limits, but the pairs' convolutions
            # take 1.2e12 multiply-adds together
            ["--prop", "nb-pair", "--alpha", "1", "--c0", "6e-5", "--lam1", "1e-6",
             "--lam2", "5e-7"],
        ],
    )
    def test_lattice_limit_is_input_error(self, argv, capsys):
        assert main(["identity", *argv]) == EX_DATAERR
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("input error: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--prop", "nb-pair", "--alpha", "0.13689265003635168", "--c0",
             "0.04813398035609379", "--lam1", "0.04590031125597965", "--lam2",
             "0.028199174312118748"],
            ["--prop", "nb-mixture", "--alpha", "2.2502314733270827", "--p1",
             "6.040193154738163e-05", "--p2", "0.999987434786683"],
        ],
        ids=["nb-pair", "nb-mixture"],
    )
    def test_lattices_within_the_limits_are_built(self, argv, capsys):
        # near the lattice limits and within them
        assert main(["identity", *argv]) == 0
        assert json.loads(capsys.readouterr().out)["residual"] <= 1e-9

    def test_parameter_box_within_lattice_limits(self, capsys):
        # the box the identities are stated in, as the benchmark draws it
        rng = np.random.default_rng(7)
        for i in range(2000):
            prop = ("nb-mixture", "nb-pair", "gamma-single", "gamma-pair")[i % 4]
            argv = ["identity", "--prop", prop, "--alpha", repr(rng.uniform(0.3, 2.5))]
            if prop == "nb-mixture":
                argv += ["--p1", repr(rng.uniform(0.3, 0.9)), "--p2", repr(rng.uniform(0.3, 0.9))]
            elif prop == "gamma-single":
                argv += ["--beta", repr(rng.uniform(0.5, 4.0))]
            else:
                c0 = rng.uniform(0.45, 0.6)
                lam1 = rng.uniform(0.1, 0.4) * c0
                lam2 = rng.uniform(0.1, 0.9) * lam1
                argv += ["--c0", repr(c0), "--lam1", repr(lam1), "--lam2", repr(lam2)]
            assert main(argv) == 0, argv
        assert capsys.readouterr().err == ""

    def test_invalid_spread_ordering(self):
        assert (
            main(["identity", "--prop", "nb-pair", "--lam1", "0.1", "--lam2", "0.3"])
            == EX_DATAERR
        )


class TestHarnessCommand:
    def test_batch_deterministic(self, capsys):
        argv = ["harness", "--scenario", "MajorizeBeta", "--seeds", "0..1"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_unknown_scenario(self):
        assert main(["harness", "--scenario", "Nope"]) == EX_DATAERR

    def test_bad_seed_range(self):
        assert (
            main(["harness", "--scenario", "MajorizeBeta", "--seeds", "x..y"])
            == EX_DATAERR
        )

    def test_whole_matrix_by_default(self, capsys):
        assert main(["harness", "--seeds", "0..0"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.strip().split("\n")
        assert len(lines) == len(MATRIX)
        assert [json.loads(line)["scenario"] for line in lines] == [
            row.name.value for row in MATRIX
        ]
        assert captured.err.count("agreed 1/1, unknown 0") == len(MATRIX)

    def test_numeric_unknown_is_not_a_disagreement(self, capsys):
        argv = ["harness", "--scenario", "LogMajorizeBetaSt", "--seeds", "3..6", "--tail-cap", "1e-6"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        statuses = {json.loads(line)["numeric_status"] for line in captured.out.splitlines()}
        assert statuses == {"unknown"}
        assert captured.err == "LogMajorizeBetaSt negbin n=3 order=st: agreed 4/4, unknown 4\n"

    def test_scenario_takes_its_matrix_order(self, capsys):
        argv = ["harness", "--scenario", "LogMajorizeBetaSt", "--seeds", "0..0"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["order"] == "st"
        assert out["param_status"] == "holds" and out["numeric_status"] == "holds"

    def test_family_flag_merges_duplicate_rows(self, capsys):
        argv = ["harness", "--scenario", "StGeneral", "--family", "gamma", "--seeds", "0..0"]
        assert main(argv) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 1
        assert json.loads(lines[0])["spec1"]["family"] == "gamma"

    @pytest.mark.parametrize(
        "scenario, family, size",
        [("MixtureLemmaSt", "negbin", 1), ("CoupledGammaPair", "gamma", 2)],
    )
    def test_row_line_gives_the_size_built(self, capsys, scenario, family, size):
        argv = ["harness", "--scenario", scenario, "--n", "6", "--seeds", "0..0"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)["spec1"]["shapes"]) == size
        assert f"{scenario} {family} n={size} order=st: agreed 1/1" in captured.err

    def test_st_scenario(self, capsys):
        argv = [
            "harness",
            "--scenario",
            "LogMajorizeBetaSt",
            "--seeds",
            "0..0",
            "--order",
            "st",
        ]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["numeric_status"] == "holds"


class TestExportSurvival:
    def test_tail_cap_above_check_tolerance(self, tmp_path, capsys):
        # the geometric tail bound may exceed the missing mass by up to the cap
        spec = tmp_path / "spec.json"
        spec.write_text(
            json.dumps({"family": "negbin", "shapes": [0.203125], "scales": [0.8195833027922088]})
        )
        out = tmp_path / "curve.csv"
        argv = ["export-survival", str(spec), "--output", str(out), "--tail-cap", "1e-8"]
        assert main(argv) == 0
        assert capsys.readouterr().out == f"wrote 9 survival points to {out}\n"

    def test_negbin_curve(self, tmp_path):
        specf = tmp_path / "spec.json"
        specf.write_text(
            json.dumps({"family": "negbin", "shapes": [1.0, 0.5], "scales": [0.5, 0.6]})
        )
        out = tmp_path / "curve.csv"
        assert main(["export-survival", str(specf), "--output", str(out)]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "k_or_t,value,error_bound"
        assert float(lines[1].split(",")[1]) == pytest.approx(1.0, abs=1e-9)

    def test_gamma_curve(self, tmp_path):
        specf = tmp_path / "spec.json"
        specf.write_text(
            json.dumps({"family": "gamma", "shapes": [1.0], "scales": [2.0]})
        )
        out = tmp_path / "curve.csv"
        assert (
            main(["export-survival", str(specf), "--output", str(out), "--grid-size", "16"])
            == 0
        )
        rows = out.read_text().strip().split("\n")[1:]
        values = [float(r.split(",")[1]) for r in rows]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


class TestErrorHandling:
    def test_missing_file(self):
        assert main(["check-order", "/nonexistent/pair.json"]) == EX_DATAERR

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["check-order", str(path)]) == EX_DATAERR

    def test_missing_config_keys(self, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"config1": WORKED_PAIR["config1"]}))
        assert main(["check-order", str(path)]) == EX_DATAERR

    def test_invalid_parameters(self, tmp_path):
        bad = {
            "config1": {"family": "negbin", "shapes": [1.0], "scales": [1.5]},
            "config2": {"family": "negbin", "shapes": [1.0], "scales": [0.5]},
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        assert main(["check-order", str(path)]) == EX_DATAERR

    @pytest.mark.parametrize(
        "shapes, scales",
        [("[true, 0.5]", "[2, 3]"), ('["1", 0.5]', "[2, 3]"), ('"12"', "[2, 3]"),
         ("[1, 0.5]", '["2", 3]'), (f"[{PAST_FLOATS}, 0.5]", "[2, 3]"),
         ("[1, 0.5]", f"[2, {PAST_FLOATS}]")],
        ids=["boolean", "string-shape", "string-array", "string-scale",
             "integer-shape-past-floats", "integer-scale-past-floats"],
    )
    def test_spec_numbers_must_be_json_numbers(self, shapes, scales, tmp_path, capsys):
        # each would read as a valid spec if its strings and booleans were numbers
        path = tmp_path / "pair.json"
        config1 = f'{{"family": "gamma", "shapes": {shapes}, "scales": {scales}}}'
        config2 = '{"family": "gamma", "shapes": [1, 0.5], "scales": [2, 3]}'
        path.write_text(f'{{"config1": {config1}, "config2": {config2}}}')
        assert main(["check-order", str(path)]) == EX_DATAERR
        assert capsys.readouterr().err.startswith("input error: malformed spec config1: ")

    @pytest.mark.parametrize(
        "command, number",
        [
            (["verify", "--order", "conv"], PAST_FLOATS),
            (["verify", "--order", "st"], PAST_FLOATS),
            (["export-survival", "--output", "{out}"], PAST_FLOATS),
            (["check-order"], "1" * 5000),
        ],
        ids=["verify-conv", "verify-st", "export-survival", "check-order-digit-limit"],
    )
    def test_integer_past_the_floats_is_malformed(self, command, number, tmp_path, capsys):
        """A spec number no float holds is the file's fault on every
        subcommand that reads a spec: past the largest float, or past the
        digits Python converts to an integer at all."""
        out = tmp_path / "curve.csv"
        path = tmp_path / "input.json"
        config = f'{{"family": "gamma", "shapes": [{number}], "scales": [2]}}'
        if command[0] != "export-survival":
            config = f'{{"config1": {config}, "config2": {config}}}'
        path.write_text(config)
        argv = [command[0], str(path), *(a.format(out=out) for a in command[1:])]
        assert main(argv) == EX_DATAERR
        stdout, stderr = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert stderr.startswith("input error: ") and stderr.count("\n") == 1

    def test_missing_witness_file(self, pair_file):
        argv = ["check-order", pair_file, "--verify-witness", "/nonexistent/w.json"]
        assert main(argv) == EX_DATAERR

    def test_malformed_witness_chain(self, pair_file, tmp_path):
        witness = tmp_path / "w.json"
        argv = ["check-order", pair_file, "--verify-witness", str(witness)]
        # a well-formed one-move chain, rejected against the pair (exit 1),
        # with its first pair and the move's first position left open
        chain = (
            '{"mode": "weak", "chain": [{"pair": %s, "move": null}, '
            '{"pair": {"x": [0.6, 0.4, 0.5], "y": [2.0, 3.0, 4.0]}, '
            '"move": {"kind": "majorize_x", "i": %s, "j": 1}}]}'
        )
        first = '{"x": %s, "y": [2.0, 3.0, 4.0]}'
        witness.write_text(chain % (first % "[0.4, 0.6, 0.5]", "0"))
        assert main(argv) == 1
        for text in (
            "{not json",
            '{"mode": "weak"}',
            '{"mode": "weak", "chain": [1]}',
            chain % (first % '["a", 0.6, 0.5]', "0"),
            chain % (first % "[null, 0.6, 0.5]", "0"),
            chain % (first % "[0.4, 0.6, 0.5]", "0.5"),
            chain % (first % "[NaN, 0.6, 0.5]", "0"),
            chain % (first % "[true, 0.6, 0.5]", "0"),
            chain % (first % '["0.4", 0.6, 0.5]', "0"),
            chain % ('{"x": [], "y": []}', "0"),
            chain % (first % f"[{PAST_FLOATS}, 0.6, 0.5]", "0"),
        ):
            witness.write_text(text)
            assert main(argv) == EX_DATAERR, text

    def test_witness_of_another_length_is_rejected(self, pair_file, tmp_path):
        witness = tmp_path / "w.json"
        witness.write_text('{"mode": "weak", "chain": [{"pair": {"x": [1.0, 2.0], "y": [3.0, 4.0]}, '
                           '"move": null}]}')
        assert main(["check-order", pair_file, "--verify-witness", str(witness)]) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["identity", "--prop", "nb-mixture", "--alpha", "0"],
            ["identity", "--prop", "nb-mixture", "--alpha", "inf"],
            ["identity", "--prop", "nb-mixture", "--p1", "1"],
            ["identity", "--prop", "nb-mixture", "--p2", "nan"],
            ["identity", "--prop", "nb-mixture", "--tol", "-1"],
            ["identity", "--prop", "gamma-single", "--beta", "0"],
            ["identity", "--prop", "gamma-single", "--common-beta", "1.0"],
            ["identity", "--prop", "gamma-single", "--grid-size", "-5"],
            ["identity", "--prop", "gamma-single", "--grid-size", "2000001"],
            ["export-survival", "{spec}", "--output", "{spec}.csv", "--grid-size", "2000001"],
            ["identity", "--prop", "nb-pair", "--c0", "inf"],
            ["identity", "--prop", "gamma-pair", "--lam2", "0"],
            ["identity", "--prop", "gamma-single", "--beta", "1e-300"],
            ["identity", "--prop", "gamma-single", "--beta", "1e300"],
            ["identity", "--prop", "gamma-single", "--common-beta", "1e300"],
            ["identity", "--prop", "nb-pair", "--c0", "1e300", "--lam1", "1e299",
             "--lam2", "1e298"],
            ["identity", "--prop", "nb-pair", "--c0", "0.8"],  # c0 + lam1 > 1
            ["identity", "--prop", "gamma-pair", "--c0", "1e-300", "--lam1", "1e-301",
             "--lam2", "1e-302"],
            ["identity", "--prop", "nb-mixture", "--tail-cap", "2"],
            ["harness", "--tail-cap", "0"],
            ["harness", "--n", "0"],
            ["harness", "--n", "7"],
            ["harness", "--n", "1"],  # MajorizeBeta moves two components
            ["harness", "--seeds", "3..1"],
            ["harness", "--seeds=-2..1"],
            ["harness", "--seeds", "1.."],
            ["harness", "--scenario", "Bogus"],
            # a flag the subcommand does not read is still checked
            ["identity", "--prop", "gamma-single", "--p1", "5"],
            ["verify", "{bad}", "--order", "conv", "--tail-cap", "2"],
        ],
    )
    def test_invalid_argument_is_input_error(self, argv, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(WORKED_PAIR["config1"]))
        assert main([a.format(bad=bad, spec=spec) for a in argv]) == EX_DATAERR
        out, err = capsys.readouterr()
        assert out == ""  # rejected before any computation
        assert err.startswith("input error: ") and err.count("\n") == 1

    def test_range_is_checked_before_any_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["verify", str(bad), "--order", "conv", "--tail-cap", "2"]) == EX_DATAERR
        assert capsys.readouterr().err == "input error: --tail-cap must be in (0,1), got 2.0\n"

    @pytest.mark.parametrize(
        "command, spec",
        [
            (["verify", "--order", "st"], OVERSIZE_GAMMA_PAIR),
            (["verify", "--order", "conv"], UNDERFLOWING_NEGBIN_PAIR),
            (["export-survival", "--output", "{out}"], OVERSIZE_NEGBIN),
            (["export-survival", "--output", "{out}"], UNDERFLOWING_NEGBIN),
            (["export-survival", "--output", "{out}"], SUBNORMAL_RATE_GAMMA),
            (["verify", "--order", "st"], UNDERFLOWING_RATIO_GAMMA_PAIR),
            (["verify", "--order", "conv"], UNDERFLOWING_RATIO_GAMMA_PAIR),
            (["export-survival", "--output", "{out}"], UNDERFLOWING_RATIO_GAMMA),
            (["verify", "--order", "conv"], UNDERFLOWING_HEAD_NEGBIN_PAIR),
            (["verify", "--order", "conv"], OVERSIZE_TOTAL_GAMMA_PAIR),
        ],
        ids=[
            "verify-size",
            "verify-underflow",
            "export-size",
            "export-underflow",
            "export-grid",
            "verify-st-ratio",
            "verify-conv-ratio",
            "export-ratio",
            "verify-conv-head",
            "verify-conv-total-shape",
        ],
    )
    def test_lattice_limit_on_any_subcommand(self, command, spec, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        path = tmp_path / "input.json"
        if command[0] == "verify" and "config1" not in spec:
            spec = {"config1": spec, "config2": spec}
        path.write_text(json.dumps(spec))
        argv = [command[0], str(path), *(a.format(out=out) for a in command[1:])]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == EX_DATAERR
        assert caught == [] and not out.exists()
        stdout, stderr = capsys.readouterr()
        assert stdout == ""
        assert stderr.startswith("input error: ") and stderr.count("\n") == 1

    @pytest.mark.parametrize("rate", [1e200, 1e-200, 1e308])
    @pytest.mark.parametrize(
        "command",
        [["export-survival", "--output", "{out}"], ["verify", "--order", "st"]],
        ids=["export-survival", "verify-st"],
    )
    def test_rate_squared_past_the_floats_gets_a_grid(
        self, command, rate, tmp_path, capsys, monkeypatch
    ):
        """A rate whose square overflows or underflows still spans a finite
        grid: its spread is then found without squaring the rate.  The
        rounding bound, which grows with rate times grid point, is capped at
        1, so a report stays strict JSON.  The exact stage certifies a spec
        against itself, so ``verify`` runs again with the stage switched off,
        and its grid decides."""
        g = {"family": "gamma", "shapes": [1], "scales": [rate]}
        out = tmp_path / "curve.csv"
        path = tmp_path / "input.json"
        path.write_text(json.dumps({"config1": g, "config2": g} if command[0] == "verify" else g))
        details = []
        for stage in (True, False) if command[0] == "verify" else (True,):
            if not stage:
                monkeypatch.setattr(exact, "decide", lambda *args: None)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert main([command[0], str(path), *(a.format(out=out) for a in command[1:])]) == 0
            assert caught == []
            stdout, stderr = capsys.readouterr()
            assert stderr == ""
            if command[0] == "verify":

                def reject(constant):
                    raise ValueError(f"not JSON: {constant}")

                details.append(json.loads(stdout, parse_constant=reject)["numeric_detail"])
        if details:
            assert details[0] == {"certified": "levy", "order": 1}
            assert set(details[1]) == {"t", "excess", "error_bound"}

    @pytest.mark.parametrize(
        "argv",
        [
            ["check-order", "{pair}", "--budget", "0"],
            ["verify", "{pair}", "--order", "conv", "--budget", "-3"],
        ],
        ids=["check-order-budget", "verify-budget"],
    )
    def test_budget_and_seed_are_input_errors(self, argv, pair_file, capsys):
        argv = [a.format(pair=pair_file) for a in argv]
        assert main(argv) == EX_DATAERR
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error: --")

    @pytest.mark.parametrize(
        "argv",
        [
            ["export-survival", "{spec}", "--output", "{out}"],
            ["verify", "{pair}", "--order", "conv", "--output", "{out}"],
            ["verify", "{pair}", "--order", "conv", "--emit-witness", "{out}"],
            ["check-order", "{pair}", "--emit-witness", "{out}"],
            ["harness", "--scenario", "RaiseAlpha", "--seeds", "0..0", "--output", "{out}"],
        ],
        ids=["export-survival", "verify", "verify-witness", "check-order", "harness"],
    )
    def test_unwritable_output_path(self, argv, pair_file, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps(WORKED_PAIR["config1"]))
        out = tmp_path / "missing" / "out"
        argv = [a.format(spec=spec, pair=pair_file, out=out) for a in argv]
        assert main(argv) == EX_CANTCREAT
        err = capsys.readouterr().err
        assert err == f"output error: cannot write {out}: No such file or directory\n"

    @pytest.mark.parametrize("exc", [ValueError, KeyError, TypeError, RuntimeError])
    def test_engine_fault_is_internal_error(self, exc, monkeypatch, capsys):
        def fault(*args, **kwargs):
            raise exc("injected")

        monkeypatch.setattr(cli, "run_scenario", fault)
        assert main(["harness", "--seeds", "0..0", "--scenario", "RaiseAlpha"]) == EX_SOFTWARE
        monkeypatch.setattr(distributions, "shape_mixture_pmf", fault)
        assert main(["identity", "--prop", "nb-mixture"]) == EX_SOFTWARE
        assert "internal error" in capsys.readouterr().err

    def test_usage_error(self):
        assert main(["bogus-command"]) == EX_USAGE
        assert main(["verify"]) == EX_USAGE  # missing required --order and file
        # a value that does not parse is a usage error, not a range error
        assert main(["identity", "--prop", "nb-mixture", "--tol", "abc"]) == EX_USAGE
        assert main(["explore", "--budget", "1"]) == EX_USAGE  # removed subcommand

    def test_parser_reused_across_calls(self, capsys):
        # one parser per process: no call's arguments or errors reach the next
        assert cli._build_parser() is cli._build_parser()
        assert main(["identity", "--prop", "bogus"]) == EX_USAGE
        assert "invalid choice" in capsys.readouterr().err
        assert main(["identity", "--prop", "nb-mixture"]) == 0
        assert json.loads(capsys.readouterr().out)["prop"] == "nb-mixture"
        assert main(["identity", "--help"]) == 0
        assert "--common-beta" in capsys.readouterr().out
        parser = cli._build_parser()
        first = parser.parse_args(["identity", "--prop", "gamma-single", "--common-beta", "3"])
        second = parser.parse_args(["identity", "--prop", "gamma-single"])
        assert first.common_beta == 3.0 and second.common_beta is None
        assert main(["identity", "--prop", "gamma-single", "--common-beta", "1.0"]) == EX_DATAERR
        assert main(["identity", "--prop", "gamma-single"]) == 0

    def test_tail_cap_env_ignored(self, tmp_path, monkeypatch, capsys):
        # only --tail-cap sets the cap
        s = {"family": "negbin", "shapes": [1.0], "scales": [0.5]}
        path = tmp_path / "eq.json"
        path.write_text(json.dumps({"config1": s, "config2": s}))
        for value in ("1e-8", "abc"):
            monkeypatch.setenv("STOCHORD_TAIL_CAP", value)
            assert main(["verify", str(path), "--order", "conv"]) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["tolerances"]["tail_cap"] == 1e-12


class TestScipyImport:
    def test_parameter_commands_do_not_load_scipy(self, tmp_path):
        # a fresh interpreter: scipy loads at the first gamma function, so
        # commands that evaluate none never import it, the negative
        # binomial lattices included: the mixture identities, a survival
        # curve, a deconvolution (conv, refuted: exit 1) and a lattice
        # survival check (LogMajorizeBetaSt, n = 2, seed 0)
        nb_pair = {
            "config1": {"family": "negbin", "shapes": [0.5, 1.2, 1.2], "scales": [0.7, 0.6, 0.5]},
            "config2": {"family": "negbin", "shapes": [0.6, 1.0, 1.5], "scales": [0.8, 0.6, 0.3]},
        }
        deconvolved = {
            "config1": {"family": "negbin", "shapes": [2.3, 1.75], "scales": [0.65, 0.42]},
            "config2": {"family": "negbin", "shapes": [1.78, 1.74], "scales": [0.26, 0.85]},
        }
        shapes = [1.5476023843438604] * 2
        log_majorized = {
            "config1": {"family": "negbin", "shapes": shapes,
                        "scales": [0.6814218626948966, 0.5767643551940617]},
            "config2": {"family": "negbin", "shapes": shapes,
                        "scales": [0.8910406623814009, 0.44107958014168636]},
        }
        paths = {}
        for name, data in (
            ("gamma", WORKED_PAIR), ("nb", nb_pair), ("nb_spec", nb_pair["config1"]),
            ("deconvolved", deconvolved), ("log_majorized", log_majorized),
        ):
            paths[name] = str(tmp_path / f"{name}.json")
            Path(paths[name]).write_text(json.dumps(data))
        curve = str(tmp_path / "curve.csv")
        code = f"""
import contextlib, io, json, sys
import stochord.harness, stochord.cli
runs = (
    ["check-order", {paths["gamma"]!r}],
    ["verify", {paths["gamma"]!r}, "--order", "conv"],
    ["verify", {paths["nb"]!r}, "--order", "st"],
    ["identity", "--prop", "nb-mixture"],
    ["identity", "--prop", "nb-pair"],
    ["export-survival", {paths["nb_spec"]!r}, "--output", {curve!r}],
    ["verify", {paths["deconvolved"]!r}, "--order", "conv"],
    ["verify", {paths["log_majorized"]!r}, "--order", "st"],
    ["identity", "--prop", "gamma-single"],
)
result = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        result.append((stochord.cli.main(argv), "scipy" in sys.modules))
print(json.dumps(result))
"""
        assert _fresh(code) == [
            [0, False], [0, False], [0, False], [0, False], [0, False], [0, False], [1, False],
            [0, False], [0, True],
        ]


def _fresh(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter on this
    checkout's ``src``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return json.loads(out)


def _numpy_after(runs) -> list:
    """In one fresh interpreter: whether numpy is loaded after importing the
    harness and the CLI, then the exit code of each of ``runs`` in turn with
    whether numpy is loaded after it."""
    code = f"""
import contextlib, io, json, sys
import stochord.harness, stochord.cli
result = ["numpy" in sys.modules]
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        result.append([stochord.cli.main(argv), "numpy" in sys.modules])
print(json.dumps(result))
"""
    return _fresh(code)


class TestNumpyImport:
    """numpy loads where a lattice, a grid or a scenario is built, so the
    parameter order is decided without it."""

    @pytest.fixture
    def paths(self, tmp_path):
        nb_pair = {
            "config1": {"family": "negbin", "shapes": [0.5, 1.2, 1.2], "scales": [0.7, 0.6, 0.5]},
            "config2": {"family": "negbin", "shapes": [0.6, 1.0, 1.5], "scales": [0.8, 0.6, 0.3]},
        }
        gamma, nb, nb_spec = tmp_path / "gamma.json", tmp_path / "nb.json", tmp_path / "s.json"
        gamma.write_text(json.dumps(WORKED_PAIR))
        nb.write_text(json.dumps(nb_pair))
        nb_spec.write_text(json.dumps(nb_pair["config1"]))
        # LogMajorizeBetaSt, n = 2, seed 0: st ordered, and no exact test
        # decides it
        log_majorized = tmp_path / "log_majorized.json"
        shapes = [1.5476023843438604] * 2
        log_majorized.write_text(json.dumps({
            "config1": {"family": "negbin", "shapes": shapes,
                        "scales": [0.6814218626948966, 0.5767643551940617]},
            "config2": {"family": "negbin", "shapes": shapes,
                        "scales": [0.8910406623814009, 0.44107958014168636]},
        }))
        return str(gamma), str(nb), str(nb_spec), str(tmp_path / "curve.csv"), str(log_majorized)

    def test_parameter_commands_do_not_load_numpy(self, paths):
        gamma, nb, *_ = paths
        runs = [
            ["check-order", gamma],
            ["check-order", nb],
            ["check-order", gamma, "--budget", "0"],
            ["--help"],
        ]
        assert _numpy_after(runs) == [False, [0, False], [0, False], [EX_DATAERR, False], [0, False]]

    def test_certified_negbin_conv_order_loads_no_numpy(self, paths):
        """The Lévy certificate decides this pair (its top net atom dominates
        from the first term), so no lattice is built."""
        _, nb, *_ = paths
        assert _numpy_after([["verify", nb, "--order", "conv"]]) == [False, [0, False]]

    def test_st_order_decided_by_the_exact_stage_loads_no_numpy(self, paths, tmp_path):
        """The negbin pair is certified (conv implies st), and the worked
        example reversed is refuted by its right tail (smallest rates 1 and
        2, exit 1): neither builds a lattice or a grid."""
        _, nb, *_ = paths
        reversed_ = tmp_path / "reversed.json"
        reversed_.write_text(json.dumps(
            {"config1": WORKED_PAIR["config2"], "config2": WORKED_PAIR["config1"]}
        ))
        runs = [["verify", nb, "--order", "st"], ["verify", str(reversed_), "--order", "st"]]
        assert _numpy_after(runs) == [False, [0, False], [1, False]]

    def test_st_order_refuted_by_the_means_loads_no_numpy(self, tmp_path, capsys):
        """Equal shapes at the smallest p and X's extra half shape at p =
        0.5: neither tail nor certificate decides, and the means refute
        (exit 1), summed as integers."""
        means = tmp_path / "means.json"
        means.write_text(json.dumps({
            "config1": {"family": "negbin", "shapes": [1, 1], "scales": [0.3, 0.5]},
            "config2": {"family": "negbin", "shapes": [1, 0.5], "scales": [0.3, 0.5]},
        }))
        assert _numpy_after([["verify", str(means), "--order", "st"]]) == [False, [1, False]]
        assert main(["verify", str(means), "--order", "st"]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["numeric_detail"] == {"means": [3.3333333333333335, 2.8333333333333335]}

    def test_exact_stage_loads_neither_numpy_nor_fractions(self):
        """The exact stage reads every float as an integer over a power of
        two, so it needs neither numpy nor ``Fraction``."""
        code = """
import json, sys
import stochord.exact
print(json.dumps(["numpy" in sys.modules, "fractions" in sys.modules]))
"""
        assert _fresh(code) == [False, False]

    def test_check_order_loads_no_fractions(self, paths, tmp_path):
        """Sums past the largest float compare as integers over one power of
        two, so nothing reads ``Fraction``: the harness, the CLI and a
        ``check-order`` of the worked example, of that example with its
        rates times 2^1021 (which holds) and of a witness whose one move
        breaks a sum past the largest float (rejected) load neither
        ``fractions`` nor the ``decimal`` and ``numbers`` it brings."""
        gamma, *_ = paths
        r = 2.0**1021
        top = {
            "config1": {**WORKED_PAIR["config1"], "scales": [r * c for c in (2, 3, 4)]},
            "config2": {**WORKED_PAIR["config2"], "scales": [r * c for c in (1, 3, 5)]},
        }
        x, start, end = [0.4, 0.5, 0.6], [r, 5 * r, 4 * r], [r, 6 * r, 3.5 * r]
        overflow = {
            "config1": {"family": "gamma", "shapes": x, "scales": start},
            "config2": {"family": "gamma", "shapes": x, "scales": end},
        }
        witness = {"mode": "weak", "chain": [
            {"pair": {"x": x, "y": start}, "move": None},
            {"pair": {"x": x, "y": end}, "move": {"kind": "majorize_y", "i": 1, "j": 2}},
        ]}
        files = {}
        for name, content in (("top", top), ("overflow", overflow), ("witness", witness)):
            files[name] = str(tmp_path / f"{name}.json")
            Path(files[name]).write_text(json.dumps(content))
        runs = [
            ["check-order", str(gamma)],
            ["check-order", files["top"]],
            ["check-order", files["overflow"], "--verify-witness", files["witness"]],
        ]
        code = f"""
import contextlib, io, json, sys
import stochord.harness, stochord.cli
loaded = lambda: [m for m in ("fractions", "decimal", "numbers") if m in sys.modules]
result = [loaded()]
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        result.append(stochord.cli.main(argv))
    result.append(loaded())
print(json.dumps(result))
"""
        assert _fresh(code) == [[], 0, [], 0, [], 1, []]

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "{gamma}", "--order", "conv"],
            ["verify", "{log_majorized}", "--order", "st"],
            ["identity", "--prop", "nb-mixture"],
            ["export-survival", "{spec}", "--output", "{out}"],
        ],
        ids=["verify-conv", "verify-st", "identity", "export-survival"],
    )
    def test_numeric_commands_load_numpy(self, argv, paths):
        gamma, _, spec, out, log_majorized = paths
        argv = [a.format(gamma=gamma, spec=spec, out=out, log_majorized=log_majorized) for a in argv]
        assert _numpy_after([argv]) == [False, [0, True]]
