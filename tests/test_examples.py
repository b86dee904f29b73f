"""Smoke tests: every example script runs to completion.

The examples are the library's front door; they must keep working.  The
quick ones run in-process; the heavier ones are compile-checked and run
with reduced sizes via their CLI arguments where supported.
"""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def run_example(name: str, *argv: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *argv],
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamplesCompile:
    @pytest.mark.parametrize(
        "name",
        [
            "quickstart.py",
            "edge_detection_micrograph.py",
            "cnn_inference.py",
            "retargeting.py",
            "dog_pyramid.py",
            "video_stream.py",
            "async_service.py",
        ],
    )
    def test_compiles(self, name):
        src = (EXAMPLES / name).read_text()
        compile(src, name, "exec")


class TestExamplesRun:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "matches the pure-numpy reference: OK" in out
        assert "speedup" in out

    def test_micrograph_small(self):
        out = run_example("edge_detection_micrograph.py", "512")
        assert "matches reference" in out
        assert "baseline: N/A" in out

    def test_video_stream(self):
        out = run_example("video_stream.py")
        assert "1.00x the I/O bound" in out
        assert "match the reference" in out

    def test_async_service(self):
        out = run_example("async_service.py", "--repeat", "3",
                          "--size", "128")
        assert "gathered 3 awaitable tickets via asyncio.gather:" in out
        assert "compiles: 1, dedupe hits: 2" in out

    def test_dog_pyramid(self):
        out = run_example("dog_pyramid.py")
        assert "all octave bands match the reference" in out

    @pytest.mark.slow
    def test_cnn_inference(self):
        out = run_example("cnn_inference.py")
        assert "feature maps match the reference" in out

    @pytest.mark.slow
    def test_retargeting(self):
        out = run_example("retargeting.py")
        assert "re-verified against the reference" in out
