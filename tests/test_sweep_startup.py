"""What a sweep process pays before its first point, and what it leaves.

Importing the entry points loads no numpy, and with the trace generator
built in C no process of a sweep imports it at all; ``run_sweep`` compiles
the C kernel and the trace generator in the background once it knows
points are pending (never for a fully cached sweep) and joins both builds
on every exit path.  Each case runs in a fresh interpreter, where nothing
is loaded or built yet.
"""

import os
import subprocess
import sys

import pytest

from repro.engine import native

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
#: Libraries a cold sweep compiles: the kernel, and the trace generator
#: where numpy ships the archive it links.
N_LIBRARIES = 1 + (native.npyrandom_archive() is not None)


def run_python(code, tmp_path, cc_log=None, cc_delay_s=0.0):
    """Run ``code`` in a fresh interpreter in ``tmp_path``; with
    ``cc_log``, ``cc`` on ``PATH`` is a wrapper that logs each call there
    and sleeps ``cc_delay_s`` before it runs the real compiler."""
    env = {k: v for k, v in os.environ.items()
           if k != "REPRO_KERNEL_VARIANT"}
    env.update(PYTHONPATH=SRC, TMPDIR=str(tmp_path))
    if cc_log is not None:
        fake = tmp_path / "bin"
        fake.mkdir()
        cc = fake / "cc"
        cc.write_text(f"#!/bin/sh\necho cc >> '{cc_log}'\nsleep {cc_delay_s}\n"
                      f"exec '{native.find_compiler()}' \"$@\"\n")
        cc.chmod(0o755)
        env["PATH"] = f"{fake}{os.pathsep}{env.get('PATH', '')}"
    return subprocess.run(
        [sys.executable, "-c", code], env=env, cwd=str(tmp_path),
        capture_output=True, text=True, timeout=120,
    )


def test_entry_points_load_no_numpy(tmp_path):
    proc = run_python(
        "import sys\n"
        "import repro, repro.sweep, repro.service, repro.fabric\n"
        "from repro.sweep.cli import main\n"
        "assert main(['list', '--store', 's.jsonl']) == 0\n"
        "assert 'numpy' not in sys.modules\n"
        "print('ok')\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "ok"


@pytest.mark.skipif(
    native.find_compiler() is None or native.npyrandom_archive() is None,
    reason="traces are drawn with numpy without a C compiler and "
           "numpy's libnpyrandom.a")
@pytest.mark.parametrize("workers", [1, 2])
def test_no_sweep_process_imports_numpy(tmp_path, workers):
    # Neither the sweeping process nor a pool worker imports numpy, whether
    # the sweep computes its points or finds them all cached.
    proc = run_python(
        "import sys\n"
        "from repro.sweep import ResultStore, run_sweep, runner, smoke_spec\n"
        "real = runner._worker_main\n"
        "def worker(*args):\n"
        "    real(*args)\n"
        "    with open('workers.log', 'a') as fh:\n"
        "        fh.write(f\"{'numpy' in sys.modules}\\n\")\n"
        "runner._worker_main = worker\n"
        "for computed in (24, 0):\n"
        "    s = run_sweep(smoke_spec().expand(), ResultStore('s.jsonl'), "
        f"workers={workers})\n"
        "    assert s.n_computed == computed\n"
        "print('numpy' in sys.modules)\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
    log = tmp_path / "workers.log"
    workers_saw = log.read_text().split() if log.exists() else []
    assert workers_saw == ["False"] * (2 if workers == 2 else 0)


@pytest.mark.skipif(native.find_compiler() is None,
                    reason="no C compiler on PATH")
class TestBackgroundBuild:
    SWEEP = ("from repro.sweep import ResultStore, run_sweep, smoke_spec\n"
             "s = run_sweep(smoke_spec().expand(), ResultStore('s.jsonl'), "
             "workers={workers})\n"
             "print(s.kernel_variant, s.n_cached, s.n_computed)\n")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cold_sweep_compiles_once_and_cached_sweep_never(
            self, tmp_path, workers):
        log = tmp_path / "cc.log"
        sweep = self.SWEEP.format(workers=workers)
        cold = run_python(sweep, tmp_path, cc_log=log)
        assert cold.returncode == 0, cold.stderr
        assert cold.stdout.split() == ["native", "0", "24"]
        assert log.read_text().splitlines() == ["cc"] * N_LIBRARIES
        (tmp_path / "bin").rename(tmp_path / "bin-cold")
        cached = run_python(sweep, tmp_path, cc_log=log)
        assert cached.returncode == 0, cached.stderr
        assert cached.stdout.split() == ["native", "24", "0"]
        assert log.read_text().splitlines() == ["cc"] * N_LIBRARIES

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stop_during_preparation_leaves_nothing_behind(
            self, tmp_path, workers):
        # The compilers are still running (the wrapper sleeps first) when
        # should_stop fires; the sweep waits for them instead of leaving
        # them behind, and their build directories are gone.
        log = tmp_path / "cc.log"
        proc = run_python(
            "import glob, os, tempfile\n"
            "from repro.sweep import ResultStore, SweepInterrupted, "
            "run_sweep, smoke_spec\n"
            "try:\n"
            "    run_sweep(smoke_spec().expand(), ResultStore('s.jsonl'), "
            f"workers={workers}, should_stop=lambda: True)\n"
            "except SweepInterrupted as exc:\n"
            "    assert exc.summary.n_computed == 0\n"
            "else:\n"
            "    raise AssertionError('not interrupted')\n"
            "try:\n"
            "    os.waitpid(-1, os.WNOHANG)\n"
            "except ChildProcessError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('a child process is left')\n"
            "print(glob.glob(os.path.join(tempfile.gettempdir(), "
            "'repro-native-*')))\n",
            tmp_path, cc_log=log, cc_delay_s=0.5)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]"]
        assert log.read_text().splitlines() == ["cc"] * N_LIBRARIES
