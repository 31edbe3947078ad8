"""The serve/submit CLI surface, including a real SIGTERM drain."""

import json
import os
import signal
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def spawn_server(tmp_path, *extra):
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONUNBUFFERED="1")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--store", str(tmp_path / "store"), *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env)
    line = proc.stdout.readline().strip()
    assert "repro.serve listening on" in line, line
    return proc, line.rsplit(" ", 1)[-1]


def run_submit(url, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro", "submit", *args, "--url", url],
        capture_output=True, text=True, env=env, timeout=300)


class TestServeCli:
    def test_submit_roundtrip_and_sigterm_drain(self, tmp_path):
        proc, url = spawn_server(tmp_path)
        try:
            first = run_submit(
                url, "characterize", "--param", "instructions=500",
                "--param", 'table="4"', "--param", "seed=4801",
                "--json", str(tmp_path / "first.json"))
            assert first.returncode == 0, first.stdout + first.stderr
            assert "done" in first.stdout

            second = run_submit(
                url, "characterize", "--param", "instructions=500",
                "--param", 'table="4"', "--param", "seed=4801",
                "--json", str(tmp_path / "second.json"))
            assert second.returncode == 0
            assert "cache hit" in second.stdout

            with open(tmp_path / "first.json") as handle:
                a = json.load(handle)
            with open(tmp_path / "second.json") as handle:
                b = json.load(handle)
            assert b["cached"] is True
            assert json.dumps(a["result"], sort_keys=True) \
                == json.dumps(b["result"], sort_keys=True)

            # A job still pending at SIGTERM is drained, not lost: the
            # server exits 0 and its record reaches the store.
            pending = run_submit(
                url, "characterize", "--param", "instructions=700",
                "--param", 'table="4"', "--param", "seed=4802", "--no-wait")
            assert pending.returncode == 0
        finally:
            proc.send_signal(signal.SIGTERM)
            output, _ = proc.communicate(timeout=60)
        assert proc.returncode == 0, output
        assert "drained and stopped" in output

        from repro.explore.store import ResultStore

        stats = ResultStore(tmp_path / "store").stats()
        assert stats["entries"] == 2        # both distinct jobs persist
        assert stats["quarantined"] == 0

    def test_submit_rejects_bad_params_before_the_wire(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "characterize",
             "--param", 'table="99"',
             "--url", "http://127.0.0.1:1"],    # never contacted
            capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 2
        assert "unknown table" in out.stderr

    def test_submit_unreachable_server_is_a_plain_failure(self):
        env = dict(os.environ, PYTHONPATH=SRC)
        out = subprocess.run(
            [sys.executable, "-m", "repro", "submit", "characterize",
             "--param", "smoke=true", "--url", "http://127.0.0.1:1"],
            capture_output=True, text=True, env=env, timeout=60)
        assert out.returncode == 1
        assert "cannot reach server" in out.stderr
