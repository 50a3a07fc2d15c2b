import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import infodens
from infodens.cli import main


@pytest.fixture
def rr_doc(tmp_path):
    path = tmp_path / "rr.json"
    path.write_text(
        json.dumps({"family": "rr", "n": 2, "eps_ratio": "3", "prior": [0.5, 0.5]})
    )
    return path


@pytest.fixture
def zero_entry_doc(tmp_path):
    path = tmp_path / "zero.json"
    path.write_text(
        json.dumps({"prior": [0.5, 0.5], "channel": [[0.5, 0.5], [0.0, 1.0]]})
    )
    return path


class TestAnalyze:
    def test_writes_profile_and_levels(self, rr_doc, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(rr_doc), "--output", str(out)]) == 0
        csv = (out / "profile.csv").read_text()
        header, *rows = csv.strip().split("\n")
        assert header == "y,P_Y,pmc_nats,pml_nats,info_density_min,info_density_max"
        assert len(rows) == 2
        levels = json.loads((out / "levels.json").read_text())
        assert levels["pmc"]["eps_nats"] == pytest.approx(math.log(2))
        assert levels["pml"]["eps_nats"] == pytest.approx(math.log(1.5))
        assert levels["ldp"]["eps_nats"] == pytest.approx(math.log(3))
        assert levels["max_cost_leakage_nats"] == pytest.approx(math.log(2))

    def test_inf_token_for_zero_entries(self, zero_entry_doc, tmp_path):
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(zero_entry_doc), "--output", str(out)]) == 0
        assert ",inf," in (out / "profile.csv").read_text()
        levels = json.loads((out / "levels.json").read_text())
        assert levels["pmc"]["eps_nats"] == "inf"
        assert levels["ldp"]["eps_nats"] == "inf"

    def test_bits_unit(self, rr_doc, tmp_path):
        out = tmp_path / "out"
        assert (
            main(
                [
                    "analyze",
                    "--input",
                    str(rr_doc),
                    "--output",
                    str(out),
                    "--unit",
                    "bits",
                ]
            )
            == 0
        )
        levels = json.loads((out / "levels.json").read_text())
        assert levels["pmc"]["eps_bits"] == pytest.approx(1.0)

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert main(["analyze", "--input", str(tmp_path / "nope.json"), "--output", str(tmp_path / "o")]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_json_is_input_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["analyze", "--input", str(bad), "--output", str(tmp_path / "o")]) == 2

    def test_continuous_doc_rejected(self, tmp_path):
        doc = tmp_path / "lap.json"
        doc.write_text(
            json.dumps(
                {"family": "laplace_mean", "interval": [0, 1], "count": 1, "scale": 1.0}
            )
        )
        assert main(["analyze", "--input", str(doc), "--output", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("unit", ("nats", "bits"))
    @pytest.mark.parametrize(
        "doc, mode",
        [("float_zeros_3x4", "float"), ("float_4x3", "float"), ("rational_3x3", "rational")],
    )
    def test_output_bytes_match_recorded_fixture(self, doc, mode, unit, tmp_path):
        """Profiles and levels recorded from the pairwise LDP code must not change."""
        fixtures = Path(__file__).parent / "fixtures" / "analyze"
        out = tmp_path / "out"
        argv = ["analyze", "--input", str(fixtures / f"{doc}.json"), "--mode", mode]
        assert main([*argv, "--unit", unit, "--output", str(out)]) == 0
        for name in ("profile.csv", "levels.json"):
            recorded = fixtures / f"{doc}_{unit}_{name}"
            assert (out / name).read_bytes() == recorded.read_bytes()


class TestTranslate:
    def test_pml_source(self, capsys):
        assert main(["translate", "--pml", "0.405465", "--pmin", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        implied = {g["kind"]: g for g in payload["implied"]}
        assert implied["pmc"]["eps_nats"] == pytest.approx(math.log(2), abs=1e-5)
        assert payload["high_privacy"] is True

    def test_all_zero(self, capsys):
        assert main(["translate", "--pml", "0", "--pmin", "0.3"]) == 0
        payload = json.loads(capsys.readouterr().out)
        for g in payload["implied"]:
            for key, value in g.items():
                if key.startswith("eps"):
                    assert value == 0.0

    def test_outside_high_privacy(self, capsys):
        assert main(["translate", "--pml", "0.8", "--pmin", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        implied = {g["kind"]: g for g in payload["implied"]}
        assert implied["pmc"]["eps_nats"] == "inf"
        assert payload["high_privacy"] is False

    def test_alip_source(self, capsys):
        assert main(["translate", "--alip", "0.7", "0.4", "--pmin", "0.5"]) == 0
        payload = json.loads(capsys.readouterr().out)
        implied = {g["kind"]: g for g in payload["implied"]}
        assert implied["ldp"]["eps_nats"] == pytest.approx(1.1)

    def test_requires_exactly_one_source(self, capsys):
        assert main(["translate", "--pml", "0.1", "--pmc", "0.1", "--pmin", "0.5"]) == 2
        assert main(["translate", "--pmin", "0.5"]) == 2

    def test_bad_pmin(self, capsys):
        assert main(["translate", "--pml", "0.1", "--pmin", "1.5"]) == 2


class TestSweep:
    def test_curves_written(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--pmin", "0.2", "--steps", "10", "--output", str(out)]) == 0
        up = (out / "pml_to_pmc.csv").read_text().strip().split("\n")
        down = (out / "pmc_to_pml.csv").read_text().strip().split("\n")
        assert up[0] == "eps_u,eps_l_star"
        assert down[0] == "eps_l,eps_u_star"
        assert up[1] == "0.0,0.0"
        assert len(up) == 11

    def test_two_steps_keeps_origin(self, tmp_path):
        out = tmp_path / "sw"
        assert main(["sweep", "--pmin", "0.5", "--steps", "2", "--output", str(out)]) == 0
        rows = (out / "pml_to_pmc.csv").read_text().strip().split("\n")
        assert rows[1] == "0.0,0.0"
        assert len(rows) == 3

    def test_csv_round_trips(self, tmp_path):
        out = tmp_path / "sw"
        main(["sweep", "--pmin", "0.2", "--steps", "5", "--output", str(out)])
        for line in (out / "pml_to_pmc.csv").read_text().strip().split("\n")[1:]:
            a, b = line.split(",")
            assert repr(float(a)) == a
            assert repr(float(b)) == b

    def test_bits_unit_marks_columns(self, tmp_path):
        out = tmp_path / "sw"
        main(
            [
                "sweep",
                "--pmin",
                "0.5",
                "--steps",
                "4",
                "--output",
                str(out),
                "--unit",
                "bits",
            ]
        )
        header = (out / "pml_to_pmc.csv").read_text().split("\n")[0]
        assert header == "eps_u_bits,eps_l_star_bits"


class TestOracle:
    def test_certification_gap_zero(self, rr_doc, capsys):
        assert (
            main(
                [
                    "oracle",
                    "--input",
                    str(rr_doc),
                    "--y",
                    "0",
                    "--mode",
                    "rational",
                ]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["gap"] == 0.0
        assert payload["closed_form"] == pytest.approx(math.log(2))
        assert payload["dominance_ok"] is True
        assert payload["witness_kernel"]

    def test_infinite_instance(self, zero_entry_doc, capsys):
        assert main(["oracle", "--input", str(zero_entry_doc), "--y", "0"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["closed_form"] == "inf"
        assert payload["oracle_value"] == "inf"
        assert payload["gap"] == 0.0


    @pytest.mark.parametrize("unit", ("nats", "bits"))
    @pytest.mark.parametrize(
        "doc, recorded, args",
        [
            ("rational_3x3", "rational_3x3_grid5", ["--y", "2", "--mode", "rational", "--grid", "5", "--max-u", "3"]),
            ("float_2x3", "float_2x3_grid11", ["--y", "0", "--grid", "11"]),
        ],
    )
    def test_output_bytes_match_recorded_fixture(self, doc, recorded, args, unit, tmp_path):
        """Certificates recorded from the per-kernel search must not change."""
        fixtures = Path(__file__).parent / "fixtures" / "oracle"
        out = tmp_path / "cert.json"
        argv = ["oracle", "--input", str(fixtures / f"{doc}.json"), *args]
        assert main([*argv, "--unit", unit, "--output", str(out)]) == 0
        assert out.read_bytes() == (fixtures / f"{recorded}_{unit}.json").read_bytes()


class TestMechanismDump:
    def test_finite_dump(self, rr_doc, capsys):
        assert main(["mechanism", "--input", str(rr_doc)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "finite"
        assert payload["channel"][0][0] == pytest.approx(0.75)

    def test_laplace_dump(self, tmp_path, capsys):
        doc = tmp_path / "lap.json"
        doc.write_text(
            json.dumps(
                {"family": "laplace_mean", "interval": [0, 1], "count": 1, "scale": 1.0}
            )
        )
        assert main(["mechanism", "--input", str(doc)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sup_pmc_nats"] == pytest.approx(math.log(math.e - 1))

    def test_gaussian_dump(self, tmp_path, capsys):
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps({"family": "gaussian", "amplitude": 1, "sigma": 1}))
        assert main(["mechanism", "--input", str(doc)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pmc_bounds"]["1.0"] == [1.0, 2.5]


class TestProps:
    def test_small_run_passes(self, capsys):
        assert main(["props", "--instances", "15", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out


class TestDeterminism:
    def test_identical_runs_are_byte_identical(self, rr_doc, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["analyze", "--input", str(rr_doc), "--output", str(out)]) == 0
            assert (
                main(["sweep", "--pmin", "0.2", "--steps", "25", "--output", str(out)])
                == 0
            )
        for name in ("profile.csv", "levels.json", "pml_to_pmc.csv", "pmc_to_pml.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_oracle_deterministic_for_fixed_seed(self, tmp_path, capsys):
        doc = tmp_path / "wide.json"
        doc.write_text(
            json.dumps(
                {
                    "prior": [0.2, 0.2, 0.2, 0.2, 0.2],
                    "channel": [
                        [0.4, 0.3, 0.3],
                        [0.2, 0.5, 0.3],
                        [0.1, 0.1, 0.8],
                        [0.3, 0.3, 0.4],
                        [0.25, 0.5, 0.25],
                    ],
                }
            )
        )
        outputs = []
        for _ in range(2):
            assert (
                main(
                    [
                        "oracle",
                        "--input",
                        str(doc),
                        "--y",
                        "1",
                        "--grid",
                        "4",
                        "--seed",
                        "9",
                    ]
                )
                == 0
            )
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]


# ---------------------------------------------------------------------------
# Import cost: numpy and scipy load only on the paths that use them
# ---------------------------------------------------------------------------

_DOCS = {
    "rr.json": {"family": "rr", "n": 2, "eps_ratio": "3", "prior": [0.5, 0.5]},
    "laplace.json": {"family": "laplace_mean", "interval": [0, 1], "count": 1, "scale": 1.0},
    "gaussian.json": {"family": "gaussian", "amplitude": 1, "sigma": 1},
}
_FIXTURES = Path(__file__).parent / "fixtures"


def _fresh_run(args, cwd, code=0):
    """Run ``python -X importtime *args`` in a new interpreter.

    Checks the exit code and returns the set of heavy packages (numpy,
    scipy) that the run imported, read from the import-time report on stderr.
    """
    src = str(Path(infodens.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )
    loaded = {
        line.rsplit("|", 1)[1].strip().split(".")[0]
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert proc.returncode == code, proc.stderr[-2000:]
    return loaded & {"numpy", "scipy"}


class TestLazyImports:
    def test_package_import_loads_neither(self, tmp_path):
        assert _fresh_run(["-c", "import infodens"], tmp_path) == set()

    @pytest.mark.parametrize(
        "argv, code, heavy",
        [
            (["translate", "--pml", "0.1", "--pmin", "0.5"], 0, set()),
            (["sweep", "--pmin", "0.2", "--steps", "10", "--output", "sw"], 0, set()),
            (["analyze", "--input", str(_FIXTURES / "analyze" / "float_4x3.json"), "--output", "an"], 0, set()),
            (["props", "--instances", "5"], 0, set()),
            (["mechanism", "--input", "rr.json"], 0, set()),
            (["mechanism", "--input", "laplace.json"], 0, set()),
            (["mechanism", "--input", "gaussian.json"], 0, set()),
            (["oracle", "--input", str(_FIXTURES / "oracle" / "float_2x3.json"), "--y", "0", "--grid", "5"], 0, {"numpy"}),
            (["analyze", "--input", "malformed.json", "--output", "bad"], 2, set()),
        ],
        ids=[
            "translate", "sweep", "analyze", "props", "mechanism-rr",
            "mechanism-laplace", "mechanism-gaussian", "oracle", "malformed",
        ],
    )
    def test_cli_loads_only_what_it_uses(self, argv, code, heavy, tmp_path):
        for name, doc in _DOCS.items():
            (tmp_path / name).write_text(json.dumps(doc))
        (tmp_path / "malformed.json").write_text("{not json")
        assert _fresh_run(["-m", "infodens.cli", *argv], tmp_path, code) == heavy

    @pytest.mark.parametrize(
        "snippet, heavy",
        [
            (
                "assert 0 < infodens.LaplaceMeanMechanism(0.0, 1.0, 1, 1.0).pmc_at(0.5) < 1\n"
                "assert infodens.GaussianPerturbMechanism(1.0, 1.0).pmc_at(0.5) > 0",
                {"numpy", "scipy"},
            ),
            (
                "m = infodens.LaplaceMeanMechanism(0.0, 1.0, 2, 1.0)\n"
                "assert 0 < m.pmc_at(0.5, mc_samples=20_000) < m.sup_pmc()",
                {"numpy"},
            ),
            (
                "m = infodens.GaussianPerturbMechanism(1.0, 1.0)\n"
                "freq, _ = m.tail_frequency(1.0, n_samples=10_000)\n"
                "assert freq <= m.tail_bound(1.0)",
                {"numpy", "scipy"},
            ),
            (
                "j = infodens.Joint.from_prior_channel(\n"
                "    infodens.Pmf((0.5, 0.5)), infodens.Channel(((0.75, 0.25), (0.25, 0.75))))\n"
                "assert infodens.certify_pmc(j, 0, infodens.SearchConfig(resolution=5, max_u=2)).dominance_ok",
                {"numpy"},
            ),
            (
                "from fractions import Fraction as F\n"
                "j = infodens.Joint.from_prior_channel(infodens.Pmf((F(1, 2), F(1, 2))),\n"
                "    infodens.Channel(((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))))\n"
                "assert infodens.certify_pmc(j, 0, infodens.SearchConfig(resolution=5, max_u=2)).gap_nats == 0",
                {"numpy"},
            ),
        ],
        ids=["quadrature", "monte-carlo", "tail-frequency", "certify-float", "certify-exact"],
    )
    def test_lazy_path_runs_from_fresh_interpreter(self, snippet, heavy, tmp_path):
        assert _fresh_run(["-c", "import infodens\n" + snippet], tmp_path) == heavy
