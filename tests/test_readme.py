"""The README's library quickstart runs as written and its exact claims hold."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _quickstart() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def _claim(code: str, marker: str) -> str:
    """The expression of the one quickstart line whose comment starts with ``marker``."""
    (line,) = [ln for ln in code.splitlines() if re.search(r"#\s*" + re.escape(marker), ln)]
    return line.split("#", 1)[0].strip()


def test_quickstart_runs_and_its_exact_claims_hold():
    code = _quickstart()
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    d, joint = namespace["d"], namespace["joint"]

    ratio = eval(_claim(code, "Fraction(2, 1)"), namespace)
    assert ratio == 2 and ratio == d.pmc(joint, 0).ratio
    assert eval(_claim(code, "True"), namespace) is True
    witness = namespace["witness"]
    assert witness.n_outputs == 2
    assert d.randomized_function_leakage(joint, 0, witness) == d.pmc(joint, 0)
