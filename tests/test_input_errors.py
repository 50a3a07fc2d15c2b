"""Input checks, one table per module: each bad input raises its typed error with its exact message.

Every row is a call from the public API or the CLI.  Document errors run through ``cli.main``,
which exits 2 and writes one ``error:`` line and nothing else.
"""

import json
import math
import re
from fractions import Fraction

import pytest

from infodens import (
    BoundedLaw, Channel, CostFunction, ExtReal, Joint, LaplaceMeanMechanism, Pmf, as_level,
    cost_function_leakage, discrete_law, kernel_from_cost, pml_to_pmc, randomized_response,
    randomized_response_pmc,
)
from infodens.cli import main
from infodens.documents import joint_from_doc
from infodens.errors import DimensionMismatch, EmptySupport, InvalidPmin, ParseError

_JOINT = Joint.from_prior_channel(Pmf((1, 1)), Channel(((1, 0), (0, 1))))


def _raises(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$") as caught:
        call()
    assert type(caught.value) is kind


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: CostFunction(()), DimensionMismatch, "cost table must be non-empty"),
        (lambda: CostFunction(((),)), DimensionMismatch, "cost table must be non-empty"),
        (lambda: CostFunction(((0, 1), (1,))), DimensionMismatch, "cost row 1 has 1 entries, expected 2"),
        (lambda: CostFunction((("0", 1),)), TypeError, "cost entries must be numbers, got str"),
        (lambda: CostFunction(((True, 1),)), TypeError, "cost entries must be numbers, got bool"),
        (lambda: CostFunction(((math.nan, 1),)), ValueError, "cost entries must not be NaN"),
        (lambda: CostFunction(((-1, 1),)), ValueError, "cost entries must be non-negative, got -1"),
        (lambda: cost_function_leakage(_JOINT, 0, CostFunction(((0, 1),))), DimensionMismatch,
         "cost table has 1 rows, prior has 2 outcomes"),
        (lambda: kernel_from_cost(CostFunction(((0, math.inf), (1, 0))), _JOINT, 0), ValueError,
         "kernel construction needs a finite cost table"),
    ],
    ids=["no-rows", "empty-row", "ragged", "string", "bool", "nan", "negative", "dimension", "kernel-infinite"],
)
def test_oracles(call, kind, message):
    _raises(call, kind, message)


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: BoundedLaw(1.0, 1.0, 1.0), ValueError, "need lo < hi, got [1.0, 1.0]"),
        (lambda: BoundedLaw(0.0, 1.0, 2.0), ValueError, "mean 2.0 outside [0.0, 1.0]"),
        (lambda: discrete_law([0.0], [0.5, 0.5]), ValueError, "points and probs must be equal-length and non-empty"),
        (lambda: discrete_law([], []), ValueError, "points and probs must be equal-length and non-empty"),
        (lambda: discrete_law([0.0, 1.0], [0.0, 0.0]), ValueError, "probs must be non-negative with positive total"),
        (lambda: discrete_law([0.0, 1.0], [-1.0, 2.0]), ValueError, "probs must be non-negative with positive total"),
        (lambda: randomized_response(2, math.inf), ValueError, "eps_r must be finite"),
        (lambda: randomized_response_pmc(2, math.inf, Pmf((1, 1))), ValueError, "eps_r must be finite"),
        (lambda: LaplaceMeanMechanism(0.0, 1.0, 1, 1.0).pmc_at(0.5, method="mc"), ValueError,
         "unknown method 'mc'"),
    ],
    ids=["law-ends", "law-mean", "discrete-lengths", "discrete-empty", "discrete-zero-total", "discrete-negative",
         "rr-infinite", "rr-pmc-infinite", "pmc-method"],
)
def test_mechanisms(call, kind, message):
    _raises(call, kind, message)


@pytest.mark.parametrize(
    "call, kind, message",
    [
        (lambda: ExtReal(True), TypeError, "ratio must be a number, not bool"),
        (lambda: ExtReal(math.nan), ValueError, "ratio must not be NaN"),
        (lambda: ExtReal("2"), TypeError, "unsupported ratio type: str"),
        (lambda: ExtReal.from_nats(True), TypeError, "nats must be a real number"),
        (lambda: ExtReal.from_nats("1"), TypeError, "nats must be a real number"),
        (lambda: ExtReal.from_nats(math.nan), ValueError, "nats must not be NaN"),
        (lambda: as_level(Fraction(1)), TypeError, "pass nats as int/float, or an exact level via ExtReal.from_ratio"),
        (lambda: as_level(math.nan), ValueError, "level must not be NaN"),
        (lambda: as_level("1"), TypeError, "unsupported level type: str"),
        (lambda: Pmf.uniform(0), EmptySupport, "uniform pmf needs n >= 1"),
        (lambda: Channel(()), EmptySupport, "a channel needs at least one input row"),
    ],
    ids=["ratio-bool", "ratio-nan", "ratio-str", "nats-bool", "nats-str", "nats-nan", "level-fraction", "level-nan",
         "level-str", "uniform-empty", "channel-empty"],
)
def test_probcore(call, kind, message):
    _raises(call, kind, message)


@pytest.mark.parametrize(
    "p_min, message",
    [("0.5", "p_min must be a number, got str"), (True, "p_min must be a number, got bool")],
    ids=["str", "bool"],
)
def test_bounds(p_min, message):
    _raises(lambda: pml_to_pmc(0.1, p_min), InvalidPmin, message)


def test_documents_outside_the_cli():
    _raises(lambda: joint_from_doc([0.5, 0.5]), ParseError, "mechanism document must be a JSON object")


def _cli_error(tmp_path, capsys, subcommand, doc, *extra):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    code = main([subcommand, "--input", str(path), "--output", str(tmp_path / "out"), *extra])
    out, err = capsys.readouterr()
    assert (code, out, not (tmp_path / "out").exists()) == (2, "", True)
    return err


_PRIOR = [0.5, 0.5]


@pytest.mark.parametrize(
    "doc, message",
    [
        ([0.5, 0.5], "mechanism document must be a JSON object"),
        ({"prior": _PRIOR, "channel": 5}, "'channel' must be an array of rows"),
        ({"prior": _PRIOR, "channel": [[0.5, 0.5], "ab"]}, "channel row 1 must be an array"),
        ({"prior": _PRIOR, "channel": [[0.5, 0.5], [None, 1.0]]}, "channel[1][0]: expected a number, got NoneType"),
        ({"prior": [0.5, [1]], "channel": [[0.5, 0.5]]}, "prior[1]: expected a number, got list"),
        ({"family": "rr", "n": "2", "eps_nats": 1, "prior": _PRIOR}, "rr document needs an integer alphabet size 'n'"),
        ({"family": "rr", "n": True, "eps_nats": 1, "prior": _PRIOR}, "rr document needs an integer alphabet size 'n'"),
        ({"family": "extremal", "eps_nats": 0.1}, "extremal document needs a 'prior'"),
        ({"family": "gaussian", "amplitude": 1.0}, "gaussian document needs 'amplitude' and 'sigma'"),
        ({"family": "extremal", "prior": _PRIOR, "eps_ratio": "1/2"}, "extremal.eps_ratio must be at least 1"),
        ({"family": "extremal", "prior": _PRIOR, "eps_nats": -0.1}, "extremal.eps_nats must be non-negative"),
    ],
    ids=["array-document", "channel-number", "row-string", "channel-entry", "prior-entry", "rr-n-string",
         "rr-n-bool", "extremal-without-prior", "gaussian-without-sigma", "eps-ratio-below-one",
         "eps-nats-negative"],
)
def test_documents(doc, message, tmp_path, capsys):
    assert _cli_error(tmp_path, capsys, "analyze", doc) == f"error: {message}\n"


@pytest.mark.parametrize(
    "subcommand, doc, extra, message",
    [
        ("oracle", {"family": "laplace_mean", "interval": [0, 1], "count": 1, "scale": 1.0}, ("--y", "0"),
         "oracle certification needs a finite mechanism"),
        ("analyze", {"family": "gaussian", "amplitude": 1.0, "sigma": 1.0}, (),
         "analyze needs a finite mechanism (prior + channel)"),
    ],
    ids=["oracle-continuous", "analyze-continuous"],
)
def test_cli(subcommand, doc, extra, message, tmp_path, capsys):
    assert _cli_error(tmp_path, capsys, subcommand, doc, *extra) == f"error: {message}\n"
