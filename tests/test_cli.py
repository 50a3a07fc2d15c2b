import ast
import importlib.metadata
import inspect
import json
import math
import os
import re
import shutil
import subprocess
import sys
import typing
from fractions import Fraction
from pathlib import Path

import pytest

import infodens
from infodens import documents, mechanisms, oracles, properties, sampling
from infodens.cli import main

_FIXTURES = Path(__file__).parent / "fixtures"
_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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

    def test_certificate_above_closed_form_exits_1(self, rr_doc, tmp_path, monkeypatch, capsys):
        above = oracles.OracleCertificate(
            infodens.ExtReal.from_nats(0.5),
            infodens.ExtReal.from_nats(1.0),
            oracles.RandomizedFunction(((1.0, 0.0), (0.0, 1.0))),
            -0.5,
        )
        monkeypatch.setattr(oracles, "certify_pmc", lambda joint, y, cfg: above)
        out = tmp_path / "cert.json"
        assert main(["oracle", "--input", str(rr_doc), "--y", "0", "--output", str(out)]) == 1
        payload = json.loads(out.read_text())
        assert payload["dominance_ok"] is False
        assert payload["gap"] == -0.5
        captured = capsys.readouterr()
        assert captured.err == "oracle value exceeds the closed form\n"


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

    def test_laplace_dump_beyond_float_exponent(self, tmp_path, capsys):
        doc = tmp_path / "lap.json"
        doc.write_text(
            json.dumps({"family": "laplace_mean", "interval": [0, 1000], "count": 1, "scale": 1})
        )
        assert main(["mechanism", "--input", str(doc)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["sup_pmc_nats"] == pytest.approx(1000 - math.log(1000), rel=1e-12)

    def test_gaussian_dump(self, tmp_path, capsys):
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps({"family": "gaussian", "amplitude": 1, "sigma": 1}))
        assert main(["mechanism", "--input", str(doc)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pmc_bounds"]["1.0"] == [1.0, 2.5]

    def test_gaussian_dump_beyond_the_bound_products(self, tmp_path, capsys):
        doc = tmp_path / "g.json"
        doc.write_text(json.dumps({"family": "gaussian", "amplitude": 1e200, "sigma": 1e100}))
        assert main(["mechanism", "--input", str(doc)]) == 0
        out = capsys.readouterr().out
        assert "inf" not in out
        bounds = json.loads(out)["pmc_bounds"]
        assert bounds["0.0"] == [0.0, pytest.approx(5e199, rel=1e-12)]
        assert bounds["2.0"] == [2.0, pytest.approx(5e199, rel=1e-12)]


class TestProps:
    def test_small_run_passes(self, capsys):
        assert main(["props", "--instances", "15", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 7
        assert "FAIL" not in out

    def test_failing_check_exits_1(self, monkeypatch, capsys):
        def broken(rng):
            return 1.0

        monkeypatch.setattr(properties, "_CHECKS", (properties._check(broken),))
        assert main(["props", "--instances", "3"]) == 1
        out = capsys.readouterr().out
        assert out == "broken  instances=3  failures=3  worst=1.000e+00  FAIL\n"

    @pytest.mark.parametrize(
        "flags",
        [["--tol", "nan"], ["--tol", "inf"], ["--tol=-1e-10"], ["--instances", "0"], ["--instances=-3"]],
        ids=["tol-nan", "tol-inf", "tol-negative", "instances-zero", "instances-negative"],
    )
    def test_vacuous_suite_exits_2(self, flags, capsys):
        assert main(["props", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


class TestUnwritableOutput:
    @pytest.mark.parametrize(
        "argv, target",
        [
            (["translate", "--pml", "0.1", "--pmin", "0.5", "--output", "{nodir}"], "{nodir}"),
            (["sweep", "--pmin", "0.2", "--steps", "3", "--output", "{file}"], "{file}"),
            (["analyze", "--input", "{rr}", "--output", "{file}"], "{file}"),
            (["analyze", "--input", "{rr}", "--output", "{file}/sub"], "{file}/sub"),
            (["oracle", "--input", "{rr}", "--y", "0", "--grid", "3", "--output", "{nodir}"], "{nodir}"),
            (["mechanism", "--input", "{rr}", "--output", "{nodir}"], "{nodir}"),
        ],
        ids=["translate", "sweep", "analyze-file", "analyze-under-file", "oracle", "mechanism"],
    )
    def test_exit_2_with_one_error_line_naming_the_path(self, argv, target, rr_doc, tmp_path, capsys):
        """An output that cannot be written is an input error, not a crash or a violation."""
        (tmp_path / "taken").write_text("a file, not a directory\n")
        paths = {"rr": rr_doc, "file": tmp_path / "taken", "nodir": tmp_path / "nodir" / "x.json"}
        assert main([a.format(**paths) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ") and captured.err.count("\n") == 1
        assert target.format(**paths) in captured.err
        assert (tmp_path / "taken").read_text() == "a file, not a directory\n"
        assert not (tmp_path / "nodir").exists()


class TestDeterminism:
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


#: Every recorded CLI run, as ``(subcommand, recorded name, args)``.  A run writes the
#: files of :data:`_WRITES` under ``tests/fixtures/<subcommand>/``, named
#: ``<name>_<unit>_<file>``, or else one JSON file, ``<name>_<unit>.json``.
_RECORDED = [
    # profiles and levels; rational_forms_4x4 mixes "a/b" strings (with spaces, signs and
    # leading zeros), decimal strings and JSON ints, so every exact input form is pinned
    ("analyze", "float_zeros_3x4", ["--input", "{fixtures}/analyze/float_zeros_3x4.json"]),
    ("analyze", "float_4x3", ["--input", "{fixtures}/analyze/float_4x3.json"]),
    ("analyze", "rational_3x3", ["--input", "{fixtures}/analyze/rational_3x3.json", "--mode", "rational"]),
    ("analyze", "rational_forms_4x4", ["--input", "{fixtures}/analyze/rational_forms_4x4.json", "--mode", "rational"]),
    ("oracle", "rational_3x3_grid5", ["--input", "{fixtures}/oracle/rational_3x3.json", "--y", "2", "--mode", "rational", "--grid", "5", "--max-u", "3"]),
    ("oracle", "float_2x3_grid11", ["--input", "{fixtures}/oracle/float_2x3.json", "--y", "0", "--grid", "11"]),
    # four guesses, every alphabet exhaustive: 286^2 kernels in two blocks, modal masses over four columns
    ("oracle", "float_2x3_grid11_u4", ["--input", "{fixtures}/oracle/float_2x3.json", "--y", "0", "--grid", "11", "--max-u", "4"]),
    # the default grid 11: the exhaustive integer scan at 287,496 kernels
    ("oracle", "rational_3x3_grid11", ["--input", "{fixtures}/oracle/rational_3x3.json", "--y", "0", "--mode", "rational"]),
    # the README's default float run: 288,827 kernels, one evaluated per relabelling orbit
    ("oracle", "float_3x3_grid11", ["--input", "{fixtures}/oracle/rational_3x3.json", "--y", "0"]),
    # a zero channel entry: the support indicator certifies the infinite level
    ("oracle", "float_3x3_zero_y0_grid11", ["--input", "{fixtures}/oracle/float_3x3_zero.json", "--y", "0"]),
    # alphabet 2 is exhaustive, alphabets 3 and 4 are sampled
    ("oracle", "float_4x3_grid5_u4", ["--input", "{fixtures}/oracle/float_4x3.json", "--y", "0", "--grid", "5", "--max-u", "4"]),
    # alphabet 4 is sampled: the integer scan sums its draws at once
    ("oracle", "rational_3x3_grid11_u4", ["--input", "{fixtures}/oracle/rational_3x3.json", "--y", "0", "--mode", "rational", "--grid", "11", "--max-u", "4"]),
    # alphabets 4 to 10 are sampled: up to 3,003 lattice rows, each drawn row unranked and packed
    ("oracle", "rational_3x3_grid11_u10", ["--input", "{fixtures}/oracle/rational_3x3.json", "--y", "0", "--mode", "rational", "--max-u", "10"]),
    ("translate", "pml", ["--pml", "0.2", "--pmin", "0.25"]),
    ("translate", "pml_beyond_bound", ["--pml", "0.9", "--pmin", "0.25"]),
    ("translate", "pmc", ["--pmc", "0.7", "--pmin", "0.25"]),
    ("translate", "lip", ["--lip", "0.4", "--pmin", "0.25"]),
    ("translate", "ldp", ["--ldp", "1.1", "--pmin", "0.25"]),
    ("translate", "alip", ["--alip", "0.3", "0.2", "--pmin", "0.25"]),
    ("sweep", "pmin0.2_steps7", ["--pmin", "0.2", "--steps", "7"]),
    ("mechanism", "rr", ["--input", "{fixtures}/mechanism/rr.json"]),
    ("mechanism", "laplace_mean", ["--input", "{fixtures}/mechanism/laplace_mean.json"]),
    ("mechanism", "gaussian", ["--input", "{fixtures}/mechanism/gaussian.json"]),
    ("mechanism", "gaussian_unsaturated", ["--input", "{fixtures}/mechanism/gaussian_unsaturated.json"]),
]
_RECORDED_IDS = [f"{sub}-{name}" for sub, name, _ in _RECORDED]

#: The files written under the output directory, by the subcommands that write more than one.
_WRITES = {"analyze": ("profile.csv", "levels.json"), "sweep": ("pml_to_pmc.csv", "pmc_to_pml.csv")}


def _recorded_run(sub, name, args, unit, out):
    """``(argv, {written file: recorded file})`` of one recorded run writing under ``out``."""
    fixtures = _FIXTURES / sub
    if sub in _WRITES:
        target, recorded = out, {out / f: fixtures / f"{name}_{unit}_{f}" for f in _WRITES[sub]}
    else:
        target = out / "out.json"
        recorded = {target: fixtures / f"{name}_{unit}.json"}
    argv = [sub, *(a.format(fixtures=_FIXTURES) for a in args), "--unit", unit, "--output", str(target)]
    return argv, recorded


def _console_script() -> tuple:
    """``(command, environment)`` running the ``infodens`` console script.

    The installed script where there is one.  Elsewhere, the ``[project.scripts]``
    target that ``pyproject.toml`` names, run from ``src`` under this interpreter.  A
    CI job tests the installed script, so there the fallback is a failure.
    """
    script = shutil.which("infodens")
    if script:
        return [script], None
    assert not os.environ.get("CI"), "CI has no installed infodens script on PATH"
    import tomllib

    target = tomllib.loads(_PYPROJECT.read_text())["project"]["scripts"]["infodens"]
    module, func = target.split(":")
    return [sys.executable, "-c", f"import sys\nfrom {module} import {func}\nsys.exit({func}())"], _src_env()


class TestRecordedOutputs:
    @pytest.mark.parametrize("unit", ("nats", "bits"))
    @pytest.mark.parametrize("sub, name, args", _RECORDED, ids=_RECORDED_IDS)
    def test_output_bytes_match_recorded_fixture(self, sub, name, args, unit, tmp_path):
        """JSON and CSV numbers, units and ``inf`` tokens as recorded before any change."""
        argv, recorded = _recorded_run(sub, name, args, unit, tmp_path)
        assert main(argv) == 0
        for written, path in recorded.items():
            assert written.read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("sub, name, args", _RECORDED, ids=_RECORDED_IDS)
    def test_console_script_matches_recorded_fixture(self, sub, name, args, tmp_path):
        """The same runs through the console script, in a fresh interpreter each."""
        command, env = _console_script()
        argv, recorded = _recorded_run(sub, name, args, "nats", tmp_path)
        proc = subprocess.run([*command, *argv], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr[-2000:]
        for written, path in recorded.items():
            assert written.read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# Import cost: numpy and scipy load only on the paths that use them
# ---------------------------------------------------------------------------

_DOCS = {
    "rr.json": {"family": "rr", "n": 2, "eps_ratio": "3", "prior": [0.5, 0.5]},
    "laplace.json": {"family": "laplace_mean", "interval": [0, 1], "count": 1, "scale": 1.0},
    "gaussian.json": {"family": "gaussian", "amplitude": 1, "sigma": 1},
}
def _src_env():
    """The environment with the tested package's ``src`` first on ``PYTHONPATH``."""
    src = str(Path(infodens.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))


#: Prepended to every fresh run: report the loaded modules on stderr at exit.
_REPORT = "import atexit, sys\natexit.register(lambda: print('loaded:', *sys.modules, file=sys.stderr))\n"


def _fresh_run(source, cwd, argv=(), code=0):
    """Run ``python -c source *argv`` in a new interpreter.

    Checks the exit code and returns what the run had loaded at exit: the
    heavy packages (numpy, scipy) and the slow-to-import standard modules
    (dataclasses, inspect), and the ``infodens`` modules by their names
    inside the package.  ``sys.modules`` also holds the submodules that
    ``from . import name`` loads, which ``-X importtime`` does not report.
    """
    proc = subprocess.run(
        [sys.executable, "-c", _REPORT + source, *argv],
        cwd=cwd,
        env=_src_env(),
        capture_output=True,
        text=True,
    )
    assert proc.returncode == code, proc.stderr[-2000:]
    loaded = proc.stderr.rsplit("loaded:", 1)[1].split()
    heavy = {name.split(".")[0] for name in loaded} & {"numpy", "scipy", "dataclasses", "inspect"}
    return heavy, {name.split(".", 1)[1] for name in loaded if name.startswith("infodens.")}


def _requirement_name(requirement: str) -> str:
    """The project name a requirement string such as ``scipy>=1.10; extra == "test"`` opens with."""
    return re.match(r"[\w.-]+", requirement).group().lower()


def _hints_with_type_checking_imports(obj) -> dict:
    """``obj``'s type hints, resolved after running its module's ``TYPE_CHECKING`` block."""
    module = sys.modules[obj.__module__]
    namespace = {"__name__": module.__name__, "__package__": module.__package__}
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, ast.If) and ast.unparse(node.test) == "TYPE_CHECKING":
            exec(compile(ast.Module(node.body, []), module.__file__, "exec"), namespace)
    return typing.get_type_hints(obj, localns=namespace)


#: What ``import infodens`` loads; the CLI adds ``cli``.
_EAGER = {"errors", "probcore", "leakage"}
#: What a run that uses numpy loads of the filtered names: numpy imports ``inspect`` itself.
_NUMPY = {"numpy", "inspect"}
_CLI = "from infodens.cli import main\nraise SystemExit(main())"


class TestLazyImports:
    def test_package_import_loads_neither(self, tmp_path):
        assert _fresh_run("import infodens", tmp_path) == (set(), _EAGER)

    @pytest.mark.parametrize(
        "argv, code, heavy, modules",
        [
            (["translate", "--pml", "0.1", "--pmin", "0.5"], 0, set(), {"bounds"}),
            (["sweep", "--pmin", "0.2", "--steps", "10", "--output", "sw"], 0, set(), {"bounds"}),
            (["analyze", "--input", str(_FIXTURES / "analyze" / "float_4x3.json"), "--output", "an"], 0, set(), {"documents"}),
            (["props", "--instances", "5"], 0, set(), {"properties", "sampling"}),
            (["mechanism", "--input", "rr.json"], 0, set(), {"documents", "mechanisms"}),
            (["mechanism", "--input", "laplace.json"], 0, set(), {"documents", "mechanisms"}),
            (["mechanism", "--input", "gaussian.json"], 0, set(), {"documents", "mechanisms"}),
            (["oracle", "--input", str(_FIXTURES / "oracle" / "float_2x3.json"), "--y", "0", "--grid", "5"], 0, _NUMPY, {"documents", "oracles"}),
            (["oracle", "--input", str(_FIXTURES / "oracle" / "rational_3x3.json"), "--y", "0", "--mode", "rational", "--grid", "5"], 0, set(), {"documents", "oracles"}),
            (["oracle", "--input", str(_FIXTURES / "oracle" / "rational_3x3.json"), "--y", "0", "--mode", "rational", "--grid", "11", "--max-u", "4"], 0, set(), {"documents", "oracles"}),
            (["oracle", "--input", str(_FIXTURES / "oracle" / "rational_3x3.json"), "--y", "0", "--mode", "rational", "--grid", "5", "--max-u", "4"], 0, set(), {"documents", "oracles"}),
            (["analyze", "--input", "malformed.json", "--output", "bad"], 2, set(), {"documents"}),
        ],
        ids=[
            "translate", "sweep", "analyze", "props", "mechanism-rr",
            "mechanism-laplace", "mechanism-gaussian", "oracle", "oracle-rational",
            "oracle-rational-sampled", "oracle-rational-sampled-bytes", "malformed",
        ],
    )
    def test_cli_loads_only_what_it_uses(self, argv, code, heavy, modules, tmp_path):
        """Each subcommand loads the package's eager modules and its own, nothing else."""
        for name, doc in _DOCS.items():
            (tmp_path / name).write_text(json.dumps(doc))
        (tmp_path / "malformed.json").write_text("{not json")
        assert _fresh_run(_CLI, tmp_path, argv, code) == (heavy, _EAGER | {"cli"} | modules)

    @pytest.mark.parametrize(
        "snippet, heavy",
        [
            (
                "assert 0 < infodens.LaplaceMeanMechanism(0.0, 1.0, 1, 1.0).pmc_at(0.5) < 1\n"
                "assert infodens.GaussianPerturbMechanism(1.0, 1.0).pmc_at(0.5) > 0",
                _NUMPY,
            ),
            (
                "m = infodens.LaplaceMeanMechanism(0.0, 1.0, 2, 1.0)\n"
                "assert 0 < m.pmc_at(0.5) < m.sup_pmc()",
                _NUMPY,
            ),
            (
                "import sys\n"
                "for n in (1, 128):\n"
                "    m = infodens.LaplaceMeanMechanism(0.0, 1.0, n, 0.5)\n"
                "    assert 0 < m.pmc_at(0.4) < m.sup_pmc()\n"
                "assert not {'scipy.integrate', 'scipy.interpolate'} & set(sys.modules)",
                _NUMPY,
            ),
            (
                "m = infodens.GaussianPerturbMechanism(1.0, 1.0)\n"
                "freq, _ = m.tail_frequency(1.0, n_samples=10_000)\n"
                "assert freq <= m.tail_bound(1.0)",
                set(),
            ),
            (
                # levels in a narrow window, by the normal-CDF difference and by the far erfcx
                # form; tail masses by the Gauss-Legendre mean (window 0.2) and by the G difference
                "import sys\n"
                "G = infodens.GaussianPerturbMechanism\n"
                "for g, y in ((G(0.1, 1.0), 0.5), (G(1.0, 1.0), 0.5), (G(1.0, 1.0), 40.0)):\n"
                "    lower, upper = g.pmc_bounds(y)\n"
                "    assert lower <= g.pmc_at(y) <= upper\n"
                "for g, beta in ((G(0.1, 1.0), 0.05), (G(1.0, 1.0), 1.0), (G(20.0, 1.0), 247.23)):\n"
                "    assert 0 < g.tail_frequency(beta)[0] < 1\n"
                "assert not [name for name in sys.modules if name.split('.')[0] == 'scipy']",
                _NUMPY,
            ),
            (
                # a custom law's levels, Laplace at n = 1 and Gaussian, by the graded Gauss-Legendre panels
                "import sys\n"
                "law = infodens.BoundedLaw(-1.0, 1.0, 0.0, pdf=lambda x: 0.75 * (1.0 - x * x))\n"
                "m = infodens.LaplaceMeanMechanism(-1.0, 1.0, 1, 0.5, law=law)\n"
                "assert 0 < m.pmc_at(0.3) < m.dp_level\n"
                "g = infodens.GaussianPerturbMechanism(1.0, 1.0, law=law)\n"
                "lower, upper = g.pmc_bounds(2.0)\n"
                "assert lower <= g.pmc_at(2.0) <= upper\n"
                "assert not [name for name in sys.modules if name.split('.')[0] == 'scipy']",
                _NUMPY,
            ),
            (
                "j = infodens.Joint.from_prior_channel(\n"
                "    infodens.Pmf((0.5, 0.5)), infodens.Channel(((0.75, 0.25), (0.25, 0.75))))\n"
                "assert infodens.certify_pmc(j, 0, infodens.SearchConfig(resolution=5, max_u=2)).dominance_ok",
                _NUMPY,
            ),
            (
                "from fractions import Fraction as F\n"
                "j = infodens.Joint.from_prior_channel(infodens.Pmf((F(1, 2), F(1, 2))),\n"
                "    infodens.Channel(((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))))\n"
                "assert infodens.certify_pmc(j, 0, infodens.SearchConfig(resolution=5, max_u=2)).gap_nats == 0",
                set(),
            ),
            (
                "j = infodens.Joint.from_prior_channel(\n"
                "    infodens.Pmf((0.5, 0.5)), infodens.Channel(((0.75, 0.25), (0.25, 0.75))))\n"
                "g = infodens.brute_force_guesswork_leakage(j, 0, infodens.SearchConfig(resolution=5))\n"
                "assert 0 < g.nats <= infodens.pmc(j, 0).nats",
                _NUMPY,
            ),
            (
                "from fractions import Fraction as F\n"
                "j = infodens.Joint.from_prior_channel(infodens.Pmf((F(1, 2), F(1, 2))),\n"
                "    infodens.Channel(((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))))\n"
                "g = infodens.brute_force_guesswork_leakage(j, 0, infodens.SearchConfig(resolution=5))\n"
                "assert g.is_exact and 1 < g.ratio <= infodens.pmc(j, 0).ratio",
                set(),
            ),
            (
                # one float kernel runs the float scan on a block of one
                "j = infodens.Joint.from_prior_channel(\n"
                "    infodens.Pmf((0.5, 0.5)), infodens.Channel(((0.75, 0.25), (0.25, 0.75))))\n"
                "k = infodens.RandomizedFunction(((1.0, 0.0), (0.0, 1.0)))\n"
                "assert infodens.randomized_function_leakage(j, 0, k).nats > 0\n"
                "assert infodens.guesswork_leakage(j, 0, k).nats > 0",
                _NUMPY,
            ),
            (
                "from fractions import Fraction as F\n"
                "j = infodens.Joint.from_prior_channel(infodens.Pmf((F(1, 2), F(1, 2))),\n"
                "    infodens.Channel(((F(3, 4), F(1, 4)), (F(1, 4), F(3, 4)))))\n"
                "k = infodens.RandomizedFunction(((F(1), F(0)), (F(0), F(1))))\n"
                "assert infodens.randomized_function_leakage(j, 0, k).ratio == 2\n"
                "assert infodens.guesswork_leakage(j, 0, k).ratio == F(6, 5)",
                set(),
            ),
        ],
        ids=[
            "quadrature", "laplace-n2", "laplace-uniform-n1-n128", "tail-frequency", "gaussian-uniform-regimes",
            "custom-law", "certify-float", "certify-exact",
            "guesswork-float", "guesswork-exact", "single-kernel-float", "single-kernel-exact",
        ],
    )
    def test_lazy_path_runs_from_fresh_interpreter(self, snippet, heavy, tmp_path):
        assert _fresh_run("import infodens\n" + snippet, tmp_path)[0] == heavy

    def test_numpy_is_the_only_runtime_dependency(self):
        """scipy checks the numerics in the tests and is listed under the ``test`` extra alone.

        Read from ``pyproject.toml``, and from the installed metadata where there is one.
        """
        import tomllib

        project = tomllib.loads(_PYPROJECT.read_text())["project"]
        assert list(map(_requirement_name, project["dependencies"])) == ["numpy"]
        extras = project["optional-dependencies"].items()
        assert [extra for extra, reqs in extras if "scipy" in map(_requirement_name, reqs)] == ["test"]
        try:
            installed = importlib.metadata.requires("infodens")
        except importlib.metadata.PackageNotFoundError:
            assert not os.environ.get("CI"), "CI has no installed infodens metadata"
            return
        assert [_requirement_name(r) for r in installed if ";" not in r] == ["numpy"]
        scipy = [r.partition(";")[2].split() for r in installed if _requirement_name(r) == "scipy"]
        assert scipy == [["extra", "==", '"test"']]

    def test_every_public_name_resolves_on_first_access(self, tmp_path):
        snippet = (
            "import infodens\n"
            "assert set(infodens.__all__) <= set(dir(infodens))\n"
            "for name in infodens.__all__:\n"
            "    getattr(infodens, name)\n"
            "try:\n"
            "    infodens.no_such_name\n"
            "except AttributeError as exc:\n"
            "    assert 'no_such_name' in str(exc)\n"
            "else:\n"
            "    raise AssertionError('an unknown name resolved')\n"
            "namespace = {}\n"
            "exec('from infodens import *', namespace)\n"
            "assert set(infodens.__all__) <= set(namespace)\n"
            "from infodens.mechanisms import joint_from_doc, parse_mechanism_doc\n"
            "assert parse_mechanism_doc is infodens.parse_mechanism_doc\n"
            "assert joint_from_doc is infodens.joint_from_doc\n"
        )
        _, modules = _fresh_run(snippet, tmp_path)
        assert {"bounds", "documents", "mechanisms", "oracles", "properties", "sampling"} <= modules

    def test_numpy_hints_resolve_for_type_checkers(self):
        """Annotations naming ``np`` resolve once the ``TYPE_CHECKING`` imports run."""
        assert _hints_with_type_checking_imports(oracles._block_masses)

    def test_hints_on_lazily_loaded_classes_resolve_for_type_checkers(self):
        """Return types from modules loaded on first use resolve through ``TYPE_CHECKING``."""
        for obj in (sampling.random_kernel, sampling.random_cost, sampling.random_bounded_law,
                    documents.parse_mechanism_doc):
            assert "return" in _hints_with_type_checking_imports(obj)


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "doc",
        [
            {"family": "rr", "n": 2, "eps_nats": 1, "prior": 5},
            {"family": "laplace_mean", "interval": [None, 1], "count": 1, "scale": 1.0},
            {"family": "laplace_mean", "interval": [0, 1], "count": 1.7, "scale": 1.0},
            {"family": "gaussian", "amplitude": None, "sigma": 1},
            {"family": "gaussian", "amplitude": True, "sigma": 1},
        ],
        ids=["rr-prior", "laplace-interval", "laplace-count", "gaussian-null", "gaussian-bool"],
    )
    def test_exit_2_with_one_error_line(self, doc, tmp_path):
        self._assert_one_error_line(["mechanism"], doc, tmp_path)

    @pytest.mark.parametrize(
        "sub, doc, message",
        [
            (
                "analyze",
                {"prior": [0.5, 0.5], "channel": [[1e308, 1e308], [0.5, 0.5]]},
                "channel row 0: row sums beyond the float range",
            ),
            (
                "analyze",
                {"prior": [1e308, 1e308], "channel": [[1, 0], [0, 1]]},
                "pmf weights sum beyond the float range",
            ),
            (
                "mechanism",
                {"family": "laplace_mean", "interval": [0, 1e308], "count": 1, "scale": 1e-300},
                "the level (hi - lo)/(n b) overflows the float range: inf",
            ),
            (
                "mechanism",
                {"family": "gaussian", "amplitude": 1e308, "sigma": 1},
                "2A, sigma^2 and (A/sigma)^2 must stay in the float range, got A = 1e+308 and sigma = 1.0",
            ),
            (
                "mechanism",
                {"family": "gaussian", "amplitude": 1e200, "sigma": 1e-200},
                "2A, sigma^2 and (A/sigma)^2 must stay in the float range, got A = 1e+200 and sigma = 1e-200",
            ),
        ],
        ids=["channel-row-sum", "prior-sum", "laplace-level", "gaussian-2a", "gaussian-ratio"],
    )
    def test_overflow_exits_2_naming_it(self, sub, doc, message, tmp_path):
        argv = [sub, "--output", str(tmp_path / "out")] if sub == "analyze" else [sub]
        assert self._assert_one_error_line(argv, doc, tmp_path) == f"error: {message}\n"

    @pytest.mark.parametrize("sub", ("analyze", "oracle", "mechanism"))
    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"prior": ["1e400", 0.5], "channel": [[1, 0], [0, 1]]}, "prior[0]"),
            ({"prior": [0.5, 0.5], "channel": [[0, "1e400"], [0, 1]]}, "channel[0][1]"),
            ({"prior": [0.5, 0.5], "channel": [[10**400, 0], [0, 1]]}, "channel[0][0]"),
            ({"family": "rr", "n": 2, "eps_ratio": "1e400", "prior": [0.5, 0.5]}, "rr.eps_ratio"),
            ({"family": "extremal", "eps_ratio": "1e400", "prior": [0.5, 0.5]}, "extremal.eps_ratio"),
        ],
        ids=["prior-string", "channel-string", "channel-int", "rr-ratio", "extremal-ratio"],
    )
    def test_float_mode_number_beyond_float_range(self, sub, doc, field, tmp_path):
        argv = {"analyze": [sub, "--output", str(tmp_path / "out")], "oracle": [sub, "--y", "0"]}
        message = self._assert_one_error_line(argv.get(sub, [sub]), doc, tmp_path)
        assert message == f"error: {field}: value beyond the float range\n"

    @pytest.mark.parametrize("sub", ("analyze", "oracle", "mechanism"))
    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"prior": ["1e-400", 0.5], "channel": [[1, 0], [0, 1]]}, "prior[0]"),
            ({"prior": [0.5, 0.5], "channel": [["1e-400", 1], [0.5, 0.5]]}, "channel[0][0]"),
        ],
        ids=["prior-string", "channel-string"],
    )
    def test_float_mode_number_below_float_range(self, sub, doc, field, tmp_path):
        argv = {"analyze": [sub, "--output", str(tmp_path / "out")], "oracle": [sub, "--y", "0"]}
        message = self._assert_one_error_line(argv.get(sub, [sub]), doc, tmp_path)
        assert message == f"error: {field}: value below the float range\n"

    def test_rational_mode_reads_numbers_below_float_range_exactly(self, tmp_path, capsys):
        assert documents.coerce_probability("1e-400", "x", exact=True) == Fraction(1, 10**400)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"prior": [0.5, 0.5], "channel": [["1e-400", 1], [0.5, 0.5]]}))
        argv = ["oracle", "--input", str(path), "--y", "0", "--grid", "3", "--mode", "rational"]
        assert main(argv) == 0
        closed_form = json.loads(capsys.readouterr().out)["closed_form"]
        # the marginal 1/4 over the column's smallest entry 1e-400
        assert closed_form == pytest.approx(math.log(2.5) + 399 * math.log(10))

    def test_long_row_sum_is_shown_short(self, tmp_path):
        doc = {"prior": [0.5, 0.5], "channel": [["1e400", 0], [0, 1]]}
        argv = ["analyze", "--mode", "rational", "--output", str(tmp_path / "out")]
        message = self._assert_one_error_line(argv, doc, tmp_path)
        assert message == "error: channel row 0: row sums to ~1e+400, expected 1\n"
        assert len(message) < 120

    def test_rational_mode_reads_numbers_beyond_float_range_exactly(self):
        assert documents.coerce_probability("1e400", "x", exact=True) == 10**400
        assert documents.coerce_probability(10**400, "x", exact=True) == 10**400
        level = documents._doc_level({"eps_ratio": "1e400"}, "rr", exact=True)
        assert level.ratio == 10**400 and type(level.ratio) is Fraction

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"family": "rr", "n": 3, "eps_nats": 1}, "rr document needs a 'prior' to analyze leakage"),
            ({"family": "rr", "n": 3, "eps_nats": 1, "prior": [0.5, 0.5]}, "rr prior has 2 outcomes, expected n = 3"),
        ],
        ids=["missing", "wrong-length"],
    )
    def test_rr_prior_checked_before_the_channel(self, doc, message, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(mechanisms, "randomized_response", lambda *args: calls.append(args))
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        assert main(["mechanism", "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert calls == []

    @staticmethod
    def _assert_one_error_line(argv, doc, tmp_path) -> str:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "infodens.cli", *argv, "--input", str(path)],
            env=_src_env(),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        return proc.stderr
