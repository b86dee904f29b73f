"""Test-suite configuration.

Each test gets a fresh process-default plan cache so compiles inside a
test always run the full pipeline (phase spans, split reports) and no
test observes a cache hit caused by an earlier test compiling the same
template.  The disk tier is likewise disabled so a developer's
``REPRO_PLAN_CACHE`` setting cannot leak state between test runs.
Caching behaviour itself is exercised explicitly in
``tests/test_plancache.py`` with private :class:`PlanCache` instances.

Tests that drive the concurrent execution service carry a
``@pytest.mark.timeout(...)`` so a worker-pool deadlock fails the run
instead of hanging it.  CI installs ``pytest-timeout`` (see the
``[test]`` extra), which enforces the marker natively; when the plugin
is absent locally, the ``_timeout_watchdog`` fixture below provides a
best-effort SIGALRM fallback, so the marker never silently degrades to
a no-op.

The graph fingerprint under ``plan_key`` is memoised on the graph: every
mutator drops it, and a frozen graph (what factories, loaders and the
compile pipeline hand out) keeps it for good, so a write around the
mutators would serve a stale plan.  The ``_fresh_keys`` fixture is the
oracle for that: in the modules that exercise keys it recomputes every
key from a memo-less round trip of the graph and fails the test on any
difference.  Tests that edit a factory's template edit a ``copy()``.
"""

import os
import re
import signal
import threading

import pytest

from repro.core import (
    graph_from_dict,
    graph_to_dict,
    plancache,
    reset_default_cache,
)

try:
    import pytest_timeout  # noqa: F401

    HAVE_PYTEST_TIMEOUT = True
except ImportError:
    HAVE_PYTEST_TIMEOUT = False


@pytest.fixture(autouse=True)
def _fresh_plan_cache(monkeypatch):
    monkeypatch.delenv("REPRO_PLAN_CACHE", raising=False)
    reset_default_cache()
    yield
    reset_default_cache()


#: test modules whose every ``plan_key`` call is checked for freshness
_KEYED_MODULES = {
    "test_plancache", "test_framework", "test_incremental",
    "test_splitting", "test_service", "test_shard",
}
#: every module that calls ``plan_key`` (each binds it by name)
_KEY_CALLERS = (
    "repro.core.framework", "repro.core.incremental",
    "repro.multigpu.framework", "repro.service.service",
    "repro.service.shard",
)


def memo_free(graph):
    """A structural copy of ``graph`` that carries no fingerprint memo:
    the key oracle of ``_fresh_keys``, and of ``tests/test_ipc.py`` for
    the requests a shard decodes."""
    return graph_from_dict(graph_to_dict(graph))


@pytest.fixture(autouse=True)
def _fresh_keys(request, monkeypatch):
    """Assert each key equals the key of a graph that carries no memo."""
    if request.module.__name__.rpartition(".")[2] not in _KEYED_MODULES:
        yield
        return
    real = plancache.plan_key
    stale: list[str] = []  # keys are also computed on service worker threads

    def checked(graph, device, options, **kwargs):
        key = real(graph, device, options, **kwargs)
        if real(memo_free(graph), device, options, **kwargs) != key:
            stale.append(graph.name)
        return key

    for module in _KEY_CALLERS:
        monkeypatch.setattr(f"{module}.plan_key", checked)
    yield
    assert not stale, f"stale fingerprint served for graph(s) {stale}"


@pytest.fixture
def flight_dir(request, tmp_path):
    """Directory for flight-recorder journals written by a test.

    Defaults to the test's ``tmp_path``.  When
    ``REPRO_FLIGHT_ARTIFACT_DIR`` is set (CI does this), journals land
    in a per-test subdirectory of that path instead, so a failing run's
    segments and ``postmortem.json`` reports survive the test session
    and get uploaded as build artifacts.
    """
    root = os.environ.get("REPRO_FLIGHT_ARTIFACT_DIR")
    if not root:
        return os.fspath(tmp_path)
    safe = re.sub(r"[^A-Za-z0-9._-]+", "_", request.node.nodeid)
    path = os.path.join(root, safe)
    os.makedirs(path, exist_ok=True)
    return path


@pytest.fixture(autouse=True)
def _timeout_watchdog(request):
    marker = request.node.get_closest_marker("timeout")
    if (
        marker is None
        or HAVE_PYTEST_TIMEOUT
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return
    seconds = float(marker.args[0] if marker.args else marker.kwargs["seconds"])

    def _expired(signum, frame):
        pytest.fail(
            f"test exceeded the {seconds:g}s timeout (fallback watchdog; "
            f"install pytest-timeout for full enforcement)",
            pytrace=False,
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
