"""The package's exported names: each function or table has a caller that is
not a unit test."""

import inspect
import re
from pathlib import Path

import gauge_hamilton

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gauge_hamilton"
MODULES = [gauge_hamilton.core, gauge_hamilton.gauge_analysis, gauge_hamilton.montecarlo,
           gauge_hamilton.operators, gauge_hamilton.payoff, gauge_hamilton.pricing]


def test_every_exported_name_that_is_not_a_class_has_a_caller_outside_the_tests():
    # the callers: the library, the benchmark, the frozen acceptance file and
    # CI's console steps; a name is read outside its own module, as a whole
    # word.  Classes are exempt: the reports and the path ensemble are return
    # types, made by the library for its callers
    readers = {path: path.read_text() for path in
               [*PACKAGE.glob("*.py"), *(ROOT / "bench").glob("*.py"),
                ROOT / "tests" / "test_acceptance.py",
                ROOT / ".github" / "workflows" / "tests.yml"]}
    uncalled = []
    for name in gauge_hamilton.__all__:
        if inspect.isclass(getattr(gauge_hamilton, name)):
            continue
        owner = next(m for m in MODULES if name in m.__all__)
        own = PACKAGE / f"{owner.__name__.rpartition('.')[2]}.py"
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for path, text in readers.items() if path != own):
            uncalled.append(f"{owner.__name__}.{name}")
    assert not uncalled, f"exported, read by no caller outside the tests: {uncalled}"
