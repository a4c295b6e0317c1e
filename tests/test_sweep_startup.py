"""What a sweep process pays before its first point, and what it leaves.

Importing the entry points loads no numpy; ``run_sweep`` compiles the C
kernel in the background once it knows points are pending (never for a
fully cached sweep), joins that build on every exit path, and imports
numpy before it forks pool workers so that they inherit it.  Each case
runs in a fresh interpreter, where nothing is loaded or built yet.
"""

import os
import subprocess
import sys

import pytest

from repro.engine import native

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")


def run_python(code, tmp_path, cc_log=None, cc_delay_s=0.0):
    """Run ``code`` in a fresh interpreter in ``tmp_path``; with
    ``cc_log``, ``cc`` on ``PATH`` is a wrapper that logs each call there
    and sleeps ``cc_delay_s`` before it runs the real compiler."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_KERNEL_VARIANT", "OPENBLAS_NUM_THREADS")}
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


def test_pool_workers_inherit_numpy(tmp_path):
    # numpy is imported before the first fork, so no worker imports it.
    proc = run_python(
        "import sys\n"
        "from repro.sweep import ResultStore, run_sweep, runner, smoke_spec\n"
        "real = runner._worker_main\n"
        "def worker(*args):\n"
        "    with open('workers.log', 'a') as fh:\n"
        "        fh.write(f\"{'numpy' in sys.modules}\\n\")\n"
        "    real(*args)\n"
        "runner._worker_main = worker\n"
        "s = run_sweep(smoke_spec().expand(), ResultStore('s.jsonl'), "
        "workers=2)\n"
        "assert s.n_computed == 24\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "workers.log").read_text().split() == ["True", "True"]


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
        assert log.read_text().splitlines() == ["cc"]
        (tmp_path / "bin").rename(tmp_path / "bin-cold")
        cached = run_python(sweep, tmp_path, cc_log=log)
        assert cached.returncode == 0, cached.stderr
        assert cached.stdout.split() == ["native", "24", "0"]
        assert log.read_text().splitlines() == ["cc"]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_stop_during_preparation_leaves_nothing_behind(
            self, tmp_path, workers):
        # The compiler is still running (the wrapper sleeps first) when
        # should_stop fires; the sweep waits for it instead of leaving it
        # behind, and its build directory is gone.
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
        assert log.read_text().splitlines() == ["cc"]


@pytest.mark.parametrize("preset", [None, "3"])
def test_generator_restores_the_blas_thread_setting(tmp_path, preset):
    # numpy is loaded with one OpenBLAS thread unless the caller chose a
    # count; either way the environment is left as it was.
    proc = run_python(
        "import os\n"
        + (f"os.environ['OPENBLAS_NUM_THREADS'] = {preset!r}\n" if preset
           else "")
        + "from repro.workloads import load_generator\n"
        "load_generator()\n"
        "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n", tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [str(preset)]
