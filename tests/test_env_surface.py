"""The environment-variable surface of ``src/`` is exactly the documented one.

Every ``REPRO_*`` name under ``src/`` must be one of the two documented
variables, so a new knob cannot arrive without this list (and the docs)
changing in the same review.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: docs/PERFORMANCE.md (plan-cache disk tier), docs/OBSERVABILITY.md (CLI tracebacks)
DOCUMENTED = {"REPRO_PLAN_CACHE", "REPRO_DEBUG"}


def test_src_reads_only_documented_env_vars():
    found = {
        name
        for path in SRC.rglob("*.py")
        for name in re.findall(r"\bREPRO_[A-Z0-9_]+\b", path.read_text())
    }
    assert found == DOCUMENTED
