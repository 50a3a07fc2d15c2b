"""``infodens`` CLI invocations over generated documents, and their checks.

The same invocation can run as a fresh subprocess (the end-to-end number,
import included) or in-process through ``cli.main`` (the traced run).  Both
produce a :class:`CliResult`, so one check serves both paths.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import reference as ref
from reference import expect, expect_close

#: Child processes are killed after this long; a hung CLI counts as failed.
SUBPROCESS_TIMEOUT_S = 60

#: Runs ``infodens.cli`` as ``python -m`` does, then writes the process's peak
#: resident memory (``VmHWM``, kB) as the last line of stderr.  A child's
#: ``ru_maxrss`` cannot serve: Linux counts in it the memory of the process
#: that started it.
_LAUNCH = (
    "import atexit, runpy, sys\n"
    "def _peak():\n"
    "    for line in open('/proc/self/status'):\n"
    "        if line.startswith('VmHWM:'):\n"
    "            sys.stderr.write('\\nVmHWM ' + line.split()[1] + '\\n')\n"
    "atexit.register(_peak)\n"
    "runpy.run_module('infodens.cli', run_name='__main__', alter_sys=True)\n"
)


@dataclass
class CliResult:
    returncode: int
    stdout: bytes
    files: dict  # file name -> bytes, for the subcommands that write a directory
    peak_kb: int = 0  # peak resident memory of a subprocess


@dataclass
class Invocation:
    label: str
    subcommand: str
    backend: str
    argv: list
    check: Callable[[CliResult], None]
    outdir: Optional[str] = None
    repeat_of: Optional["Invocation"] = None
    last: Optional[CliResult] = field(default=None, repr=False)


def _collect(inv: Invocation, returncode: int, stdout: bytes) -> CliResult:
    files = {}
    if inv.outdir and os.path.isdir(inv.outdir):
        files = {p.name: p.read_bytes() for p in sorted(Path(inv.outdir).iterdir())}
    return CliResult(returncode, stdout, files)


def _fresh_outdir(inv: Invocation) -> None:
    if inv.outdir:
        shutil.rmtree(inv.outdir, ignore_errors=True)


def run_subprocess(inv: Invocation, env: dict) -> CliResult:
    """Run one invocation as ``python -m infodens.cli`` in a fresh interpreter."""
    _fresh_outdir(inv)
    proc = subprocess.run(
        [sys.executable, "-c", _LAUNCH, *inv.argv],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        timeout=SUBPROCESS_TIMEOUT_S,
    )
    result = _collect(inv, proc.returncode, proc.stdout)
    last = proc.stderr.decode(errors="replace").rstrip().rpartition("\n")[2].split()
    if len(last) == 2 and last[0] == "VmHWM":
        result.peak_kb = int(last[1])
    return result


def run_inprocess(inv: Invocation, main) -> CliResult:
    """Run one invocation through ``cli.main`` with stdout captured."""
    _fresh_outdir(inv)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(list(inv.argv))
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code if isinstance(exc.code, int) else 2
    return _collect(inv, code, out.getvalue().encode())


def check_result(inv: Invocation, result: CliResult) -> None:
    """The invocation's own check, plus byte identity with the run it repeats."""
    inv.last = result
    inv.check(result)
    if inv.repeat_of is not None:
        first = inv.repeat_of.last
        expect(
            first is not None
            and (first.stdout, first.files) == (result.stdout, result.files),
            f"{inv.label}: repeated invocation is not byte-identical",
        )


def bytes_written(result: CliResult) -> int:
    return len(result.stdout) + sum(len(b) for b in result.files.values())


# ---------------------------------------------------------------------------
# Documents
# ---------------------------------------------------------------------------


def _frac(x) -> str:
    return str(Fraction(x))


def _ok(result: CliResult, what: str, code: int = 0) -> None:
    expect(result.returncode == code, f"{what}: exit code {result.returncode}, expected {code}")


def _num(value) -> float:
    return math.inf if value == "inf" else float(value)


class CliDocs:
    """Seeded documents and the invocation list built on them.

    Every document comes from a rational instance kept here; expected values
    are computed from those instances by :mod:`reference`.  ``fault``
    doubles the expected PMC levels, which the checks must catch.
    """

    def __init__(self, rng, workdir: Path, size: dict, gen_exact_joint, fault: bool):
        self.dir = workdir
        self.fault = fault
        docs = workdir / "docs"
        docs.mkdir(parents=True, exist_ok=True)
        self.size = size
        n = size["cli_doc_n"]
        self.raw64 = gen_exact_joint(n, n, 0.0)
        self.oracle_exact = gen_exact_joint(3, 3, 0.0)
        self.oracle_float = gen_exact_joint(2, 3, 0.0)
        prior, rows = self.raw64
        self.paths = {}

        def write(name, doc):
            path = docs / f"{name}.json"
            path.write_text(json.dumps(doc))
            self.paths[name] = str(path.relative_to(Path.cwd()))

        write("raw_float", {"prior": [float(p) for p in prior],
                            "channel": [[float(c) for c in row] for row in rows]})
        self.rr_n = rng.randint(4, 8)
        self.rr_r = Fraction(rng.randint(11, 40), 10)
        self.rr_prior = tuple(Fraction(rng.randint(1, 9)) for _ in range(self.rr_n))
        total = sum(self.rr_prior)
        self.rr_prior = tuple(w / total for w in self.rr_prior)
        write("rr", {"family": "rr", "n": self.rr_n, "eps_ratio": _frac(self.rr_r),
                     "prior": [_frac(w) for w in self.rr_prior]})
        ext_n = rng.randint(3, 6)
        ext_prior = tuple(Fraction(rng.randint(2, 9)) for _ in range(ext_n))
        self.ext_prior = tuple(w / sum(ext_prior) for w in ext_prior)
        bound = 1 / (1 - min(self.ext_prior))
        self.ext_r = 1 + (bound - 1) * Fraction(rng.randint(1, 9), 10)
        write("extremal", {"family": "extremal", "eps_ratio": _frac(self.ext_r),
                           "prior": [_frac(w) for w in self.ext_prior]})
        self.lap = (0.0, round(rng.uniform(0.5, 2.0), 3), 1, round(rng.uniform(0.5, 2.0), 3))
        write("laplace", {"family": "laplace_mean", "interval": [self.lap[0], self.lap[1]],
                          "count": self.lap[2], "scale": self.lap[3]})
        self.gauss = (round(rng.uniform(0.5, 2.0), 3), round(rng.uniform(0.5, 2.0), 3))
        write("gaussian", {"family": "gaussian", "amplitude": self.gauss[0], "sigma": self.gauss[1]})
        op, orows = self.oracle_exact
        write("oracle_exact", {"prior": [_frac(p) for p in op],
                               "channel": [[_frac(c) for c in row] for row in orows]})
        fp, frows = self.oracle_float
        write("oracle_float", {"prior": [float(p) for p in fp],
                               "channel": [[float(c) for c in row] for row in frows]})
        write("malformed", {"prior": [0.5, 0.5], "channel": [[0.9, 0.3], [0.5, 0.5]]})
        self.y_exact = rng.randrange(3)
        self.y_float = rng.randrange(3)
        self.pmins = [round(rng.uniform(0.05, 0.5), 4) for _ in range(3)]
        self.eps = [round(rng.uniform(0.01, 1.0), 4) for _ in range(6)]
        self.props_seeds = [rng.randrange(10**6) for _ in range(3)]
        self._refs = {}

    # -- references, computed once on first use --------------------------------

    def _levels(self, key):
        if key not in self._refs:
            if key == "raw":
                self._refs[key] = ref.finite_levels(*self.raw64)
            elif key == "rr":
                self._refs[key] = ref.finite_levels(self.rr_prior, ref.rr_rows(self.rr_n, self.rr_r))
            elif key == "extremal":
                self._refs[key] = ref.finite_levels(self.ext_prior, ref.extremal_rows(self.ext_prior, self.ext_r))
            if self.fault:  # a deliberately wrong expected value
                self._refs[key]["pmc"] *= 2
        return self._refs[key]

    def _oracle_ref(self, key, resolution):
        if key not in self._refs:
            prior, rows = self.oracle_exact if key == "exact" else self.oracle_float
            y = self.y_exact if key == "exact" else self.y_float
            if key == "float":
                prior = tuple(float(p) for p in prior)
                rows = tuple(tuple(float(c) for c in row) for row in rows)
            post = ref.posterior(prior, rows, y)
            best = ref.lattice_max(prior, post, resolution, ref.exhaustive_sizes(len(prior), 3))
            self._refs[key] = (prior, post, ref.finite_levels(prior, rows)["per_y"][y][0], best)
        return self._refs[key]

    # -- checks ------------------------------------------------------------------

    def _check_levels(self, payload: dict, expected: dict, what: str) -> None:
        for kind in ("pmc", "pml", "lip", "ldp"):
            expect_close(_num(payload[kind]["eps_nats"]), ref.nats(expected[kind]), f"{what} {kind}")
        expect_close(_num(payload["alip"]["eps_l_nats"]), ref.nats(expected["pmc"]), f"{what} alip.l")
        expect_close(_num(payload["alip"]["eps_u_nats"]), ref.nats(expected["pml"]), f"{what} alip.u")
        for agg in ("max_cost_leakage", "max_realizable_cost"):
            expect_close(_num(payload[f"{agg}_nats"]), ref.nats(expected[agg]), f"{what} {agg}")

    def _check_analyze(self, result: CliResult, key: str) -> None:
        _ok(result, f"analyze {key}")
        expected = self._levels(key)
        self._check_levels(json.loads(result.files["levels.json"]), expected, f"analyze {key}")
        header, *lines = result.files["profile.csv"].decode().strip().split("\n")
        expect(header.startswith("y,P_Y,pmc_nats,pml_nats"), f"analyze {key}: csv header {header!r}")
        per_y = expected["per_y"]
        expect(len(lines) == len(per_y), f"analyze {key}: {len(lines)} profile rows, expected {len(per_y)}")
        for line in lines:
            y, _, pmc, pml = line.split(",")[:4]
            want_pmc, want_pml = per_y[int(y)]
            expect_close(_num(pmc), ref.nats(want_pmc), f"analyze {key} profile pmc[{y}]")
            expect_close(_num(pml), ref.nats(want_pml), f"analyze {key} profile pml[{y}]")

    def _check_translate(self, result: CliResult, kind: str, pmin: float, args: dict) -> None:
        _ok(result, f"translate {kind}")
        payload = json.loads(result.stdout)
        expect(abs(payload["p_min"] - pmin) <= 1e-15, "translate p_min")
        want = ref.implied(kind, pmin, **{k: math.exp(v) for k, v in args.items()})
        got = payload["implied"]
        expect([g["kind"] for g in got] == [k for k, _ in want], f"translate {kind}: implied kinds")
        for g, (k, value) in zip(got, want):
            if k == "alip":
                expect_close(_num(g["eps_l_nats"]), ref.nats(value[0]), f"translate {kind} -> alip.l")
                expect_close(_num(g["eps_u_nats"]), ref.nats(value[1]), f"translate {kind} -> alip.u")
            else:
                expect_close(_num(g["eps_nats"]), ref.nats(value), f"translate {kind} -> {k}")
        if kind == "pml":
            expect(payload["high_privacy"] == (want[0][1] != math.inf), "translate pml: high_privacy flag")

    def _check_sweep(self, result: CliResult, pmin: float, steps: int) -> None:
        _ok(result, "sweep")
        up = result.files["pml_to_pmc.csv"].decode().strip().split("\n")
        down = result.files["pmc_to_pml.csv"].decode().strip().split("\n")
        expect(up[0] == "eps_u,eps_l_star" and down[0] == "eps_l,eps_u_star", "sweep headers")
        expect(len(up) == steps + 1 and len(down) == steps + 1, "sweep row counts")
        boundary = -math.log1p(-pmin)
        for i, line in enumerate(up[1:]):
            a, b = map(float, line.split(","))
            expect_close(a, i * boundary / steps, f"sweep eps_u[{i}]")
            expect_close(b, ref.nats(ref.pml_to_pmc(math.exp(a), pmin)), f"sweep eps_l_star[{i}]", rel=1e-8)
        top = float(up[-1].split(",")[1])
        for i, line in enumerate(down[1:]):
            a, b = map(float, line.split(","))
            expect_close(a, i * top / (steps - 1), f"sweep eps_l[{i}]")
            expect_close(b, ref.nats(ref.pmc_to_pml(math.exp(a), pmin)), f"sweep eps_u_star[{i}]")

    def _check_oracle(self, result: CliResult, key: str, resolution: int) -> None:
        _ok(result, f"oracle {key}")
        prior, post, closed, best = self._oracle_ref(key, resolution)
        payload = json.loads(result.stdout)
        expect(payload["dominance_ok"] is True, f"oracle {key}: dominance_ok")
        expect_close(_num(payload["closed_form"]), ref.nats(closed), f"oracle {key} closed form")
        expect_close(_num(payload["oracle_value"]), ref.nats(best), f"oracle {key} grid value")
        # Lattice entries are k / (resolution - 1), printed as floats.
        witness = [[Fraction(e).limit_denominator(10**6) for e in row] for row in payload["witness_kernel"]]
        expect(all(sum(row) == 1 for row in witness), f"oracle {key}: witness rows must sum to one")
        expect_close(ref.nats(ref.guess_ratio(prior, post, witness)), ref.nats(best), f"oracle {key} witness value")

    def _check_mechanism(self, result: CliResult, kind: str) -> None:
        _ok(result, f"mechanism {kind}")
        payload = json.loads(result.stdout)
        if kind == "laplace":
            lo, hi, count, scale = self.lap
            w = (hi - lo) / (count * scale)
            expect(payload["kind"] == "laplace_mean", "mechanism laplace kind")
            expect_close(payload["sup_pmc_nats"], math.log(math.expm1(w) / w), "laplace sup_pmc")
            expect_close(payload["dp_level_nats"], w, "laplace dp_level")
        elif kind == "gaussian":
            a, s = self.gauss
            r = (a / s) ** 2
            expect(payload["kind"] == "gaussian", "mechanism gaussian kind")
            expect_close(payload["variance_ratio"], r, "gaussian variance_ratio")
            for y in (0.0, 1.0, 2.0):
                lo, hi = payload["pmc_bounds"][repr(y)]
                expect_close(lo, a * y / s**2, f"gaussian lower bound at {y}")
                expect_close(hi, a * (a + 4 * y) / (2 * s**2), f"gaussian upper bound at {y}")
            for beta in (1.0, 2.0, 4.0):
                want = min(1.0, 2.0 * math.exp(-(beta**2) / (8.0 * (r * r + r))))
                expect_close(payload["tail_bounds"][repr(beta)], want, f"gaussian tail bound at {beta}")
        else:
            expect(payload["kind"] == "finite", "mechanism rr kind")
            expected = self._levels("rr")
            self._check_levels(payload["levels"], expected, "mechanism rr")
            expect_close(_num(payload["levels"]["pmc"]["eps_nats"]),
                         ref.nats(ref.rr_pmc(self.rr_n, self.rr_r, self.rr_prior)), "mechanism rr closed form")

    def _check_props(self, result: CliResult) -> None:
        _ok(result, "props")
        lines = result.stdout.decode().strip().split("\n")
        expect(len(lines) == 7, f"props: {len(lines)} lines, expected 7")
        expect(all(line.endswith("PASS") and "failures=0" in line for line in lines), "props: a property failed")

    # -- invocations -------------------------------------------------------------

    def _out(self, label: str) -> str:
        return str((self.dir / "out" / label).relative_to(Path.cwd()))

    def invocations(self) -> dict:
        """Every distinct invocation, by label."""
        p, e, size = self.pmins, self.eps, self.size
        inv = {}

        def add(label, sub, backend, argv, check, outdir=None):
            inv[label] = Invocation(label, sub, backend, argv, check, outdir)

        for key, doc, mode in (("raw", "raw_float", "float"), ("rr", "rr", "rational"),
                               ("extremal", "extremal", "rational")):
            out = self._out(f"analyze_{key}")
            add(f"analyze_{key}", "analyze", "exact" if mode == "rational" else "float",
                ["analyze", "--input", self.paths[doc], "--output", out, "--mode", mode],
                lambda r, k=key: self._check_analyze(r, k), out)
        out = self._out("analyze_malformed")
        add("analyze_malformed", "analyze", "float",
            ["analyze", "--input", self.paths["malformed"], "--output", out],
            lambda r: _ok(r, "malformed document", code=2), out)
        sources = {
            "pml": (["--pml", str(e[0])], dict(r=e[0])),
            "pmc": (["--pmc", str(e[1])], dict(r=e[1])),
            "lip": (["--lip", str(e[2])], dict(r=e[2])),
            "ldp": (["--ldp", str(e[3])], dict(r=e[3])),
            "alip": (["--alip", str(e[4]), str(e[5])], dict(r_l=e[4], r_u=e[5])),
        }
        for i, (kind, (flags, args)) in enumerate(sources.items()):
            pmin = p[i % 3]
            add(f"translate_{kind}", "translate", "float",
                ["translate", *flags, "--pmin", str(pmin)],
                lambda r, k=kind, pm=pmin, a=args: self._check_translate(r, k, pm, a))
        for i, steps in enumerate((100, 50, 200)):
            out = self._out(f"sweep_{i}")
            add(f"sweep_{i}", "sweep", "float",
                ["sweep", "--pmin", str(p[i]), "--steps", str(steps), "--output", out],
                lambda r, pm=p[i], s=steps: self._check_sweep(r, pm, s), out)
        for i, seed in enumerate(self.props_seeds):
            add(f"props_{i}", "props", "float",
                ["props", "--seed", str(seed), "--instances", str(size["cli_props_instances"])],
                self._check_props)
        grid = size["cli_oracle_grid"]
        add("oracle_exact", "oracle", "exact",
            ["oracle", "--input", self.paths["oracle_exact"], "--y", str(self.y_exact),
             "--grid", str(grid), "--mode", "rational"],
            lambda r: self._check_oracle(r, "exact", grid))
        add("oracle_float", "oracle", "float",
            ["oracle", "--input", self.paths["oracle_float"], "--y", str(self.y_float)],
            lambda r: self._check_oracle(r, "float", 11))
        for kind, doc, mode in (("laplace", "laplace", "float"), ("gaussian", "gaussian", "float"),
                                ("rr", "rr", "rational")):
            add(f"mechanism_{kind}", "mechanism", "exact" if mode == "rational" else "float",
                ["mechanism", "--input", self.paths[doc], "--mode", mode],
                lambda r, k=kind: self._check_mechanism(r, k))
        return inv

    def rotation(self) -> list:
        """The CLI rotation: every subcommand, both backends, one malformed document, and
        repeats of two invocations that must be byte-identical to their first run."""
        inv = self.invocations()
        order = [
            "analyze_raw", "translate_pml", "mechanism_laplace", "analyze_rr", "sweep_0",
            "props_0", "oracle_exact", "translate_pmc", "mechanism_gaussian", "analyze_extremal",
            "translate_lip", "oracle_float", "analyze_malformed", "props_1", "translate_ldp",
            "mechanism_rr", "sweep_1", "translate_alip", "props_2", "sweep_2",
        ]
        tasks = [inv[label] for label in order]
        repeat = Invocation("analyze_raw_repeat", "analyze", "float", inv["analyze_raw"].argv,
                            inv["analyze_raw"].check, inv["analyze_raw"].outdir, inv["analyze_raw"])
        tasks.insert(10, repeat)
        tasks.append(Invocation("oracle_exact_repeat", "oracle", "exact", inv["oracle_exact"].argv,
                                inv["oracle_exact"].check, None, inv["oracle_exact"]))
        return tasks
