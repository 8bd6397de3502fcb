"""Building, caching and falling back from the native run kernel.

Each test points the loader at an empty cache directory and forgets the
process's loaded kernel, so it exercises a first-ever build; a failing
compiler command stands in for a machine without ``cc``.
"""

from __future__ import annotations

import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.cli import main
from repro.core import _runs, rwave
from repro.core.miner import RegClusterMiner
from repro.core.params import MiningParameters
from repro.datasets.synthetic import SyntheticConfig, make_synthetic_dataset
from repro.matrix.io import save_expression_matrix

#: A compiler command that fails the way a missing ``cc`` does.
NO_COMPILER = (
    "sh", "-c", "echo 'cc: command not found' >&2; exit 127", "cc"
)

PARAMS = MiningParameters(
    min_genes=3, min_conditions=6, gamma=0.1, epsilon=0.01
)

#: Loads the kernel in a fresh process against the cache in argv[1];
#: argv[2] == "no-compiler" breaks the compiler first.  Any warning
#: (the fallback's) fails the process.
LOAD_SCRIPT = """
import sys, warnings
from pathlib import Path
import numpy as np
from repro.core import _runs
warnings.simplefilter("error")
_runs._cache_dirs = lambda: (Path(sys.argv[1]),)
if sys.argv[2] == "no-compiler":
    _runs._COMPILER = ("false",)
print("loaded" if _runs.run_kernel(np.dtype(np.int8)) else "missing")
"""


@pytest.fixture
def matrix():
    config = SyntheticConfig(
        n_genes=300, n_conditions=12, n_clusters=4, seed=2
    )
    return make_synthetic_dataset(config).matrix


@pytest.fixture
def cache(tmp_path, monkeypatch):
    """An empty kernel cache and no kernel loaded in this process."""
    directory = tmp_path / "cache"
    monkeypatch.setattr(_runs, "_cache_dirs", lambda: (directory,))
    monkeypatch.setattr(_runs, "_loader", _runs._Loader())
    return directory


def load_elsewhere(cache, *compiler):
    """Start a process that loads the kernel from ``cache``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(repro.__file__).parents[1])
    return subprocess.Popen(
        [sys.executable, "-c", LOAD_SCRIPT, str(cache), *compiler],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )


def libraries(cache):
    return sorted(path.name for path in cache.iterdir())


def test_one_build_serves_later_miners_and_processes(
    cache, matrix, monkeypatch
):
    builds = []
    real_run = subprocess.run

    def counting_run(command, *args, **kwargs):
        builds.append(command)
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(_runs.subprocess, "run", counting_run)
    assert RegClusterMiner(matrix, PARAMS).uses_kernel
    assert RegClusterMiner(matrix, PARAMS).uses_kernel
    assert len(builds) == 1
    assert len(libraries(cache)) == 1
    # A process that could not compile still loads the cached library.
    process = load_elsewhere(cache, "no-compiler")
    out, err = process.communicate(timeout=60)
    assert process.returncode == 0, err
    assert out.strip() == "loaded"


def test_threads_racing_the_first_load_share_one_build(cache, monkeypatch):
    builds = []
    real_run = subprocess.run

    def counting_run(command, *args, **kwargs):
        builds.append(command)
        return real_run(command, *args, **kwargs)

    monkeypatch.setattr(_runs.subprocess, "run", counting_run)
    barrier = threading.Barrier(8)
    loaded = []

    def load():
        barrier.wait(timeout=30)
        loaded.append(_runs.run_kernel(np.dtype(np.int8)))

    threads = [threading.Thread(target=load) for __ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(loaded) == 8 and loaded[0] is not None
    assert all(kernel is loaded[0] for kernel in loaded)
    assert len(builds) == 1


def _load_and_exit():
    os._exit(0 if _runs.run_kernel(np.dtype(np.int8)) is not None else 1)


def test_a_child_forked_mid_build_loads_the_kernel_itself(cache):
    """A pool worker forked while another thread builds the kernel must
    neither inherit the held build lock nor the unfinished attempt."""
    context = multiprocessing.get_context("fork")
    with _runs._loader.lock:  # another thread's build in progress
        _runs._loader.tried = True
        child = context.Process(target=_load_and_exit)
        child.start()
    try:
        child.join(timeout=60)
        assert not child.is_alive()
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()


def test_concurrent_builders_publish_one_loadable_library(cache):
    processes = [load_elsewhere(cache, "compiler") for __ in range(2)]
    for process in processes:
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err
        assert out.strip() == "loaded"
    # Both published the same name atomically; no partial build is left.
    (library,) = libraries(cache)
    assert library.startswith("_runs-") and library.endswith(".so")
    process = load_elsewhere(cache, "no-compiler")
    assert process.communicate(timeout=60)[0].strip() == "loaded"


def test_without_a_compiler_the_legacy_path_runs(
    tmp_path, matrix, monkeypatch
):
    fast_miner = RegClusterMiner(matrix, PARAMS)
    assert fast_miner.uses_kernel
    fast = fast_miner.mine()
    cache = tmp_path / "cache"
    monkeypatch.setattr(_runs, "_cache_dirs", lambda: (cache,))
    monkeypatch.setattr(_runs, "_loader", _runs._Loader())
    monkeypatch.setattr(_runs, "_COMPILER", NO_COMPILER)
    with pytest.warns(RuntimeWarning, match="cc: command not found"):
        miner = RegClusterMiner(matrix, PARAMS)
    assert not miner.uses_kernel
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # warned once per process
        again = RegClusterMiner(matrix, PARAMS)
    assert not again.uses_kernel
    assert libraries(cache) == []  # the failed build left nothing
    result = again.mine()
    assert [
        (c.chain, c.p_members, c.n_members) for c in result.clusters
    ] == [(c.chain, c.p_members, c.n_members) for c in fast.clusters]
    assert result.statistics.as_dict() == fast.statistics.as_dict()


def test_without_a_compiler_the_index_is_built_with_numpy(
    tmp_path, matrix, monkeypatch
):
    numpy_builds = []
    numpy_tables = rwave._numpy_chain_tables

    def counting_tables(*args):
        numpy_builds.append(args)
        return numpy_tables(*args)

    monkeypatch.setattr(rwave, "_numpy_chain_tables", counting_tables)
    native = rwave.RWaveIndex(matrix, 0.1)
    assert numpy_builds == []
    monkeypatch.setattr(_runs, "_cache_dirs", lambda: (tmp_path / "cache",))
    monkeypatch.setattr(_runs, "_loader", _runs._Loader())
    monkeypatch.setattr(_runs, "_COMPILER", NO_COMPILER)
    with pytest.warns(RuntimeWarning, match="built with numpy"):
        index = rwave.RWaveIndex(matrix, 0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # warned once per process
        again = rwave.RWaveIndex(matrix, 0.1)
    assert len(numpy_builds) == 2
    for built in (index, again):
        for name in rwave.ChainTables._fields:
            expected = getattr(native, name)
            assert getattr(built, name).dtype == expected.dtype
            np.testing.assert_array_equal(getattr(built, name), expected)


def test_an_unwritable_package_cache_falls_back_to_the_next(
    tmp_path, monkeypatch
):
    blocked = tmp_path / "blocked"
    blocked.write_text("a file, not a directory")
    fallback = tmp_path / "fallback"
    monkeypatch.setattr(_runs, "_cache_dirs", lambda: (blocked, fallback))
    monkeypatch.setattr(_runs, "_loader", _runs._Loader())
    assert _runs.run_kernel(np.dtype(np.int8)) is not None
    assert len(libraries(fallback)) == 1


def build_library(directory):
    """A real kernel library under the loader's cache name."""
    built = directory / "built"
    built.mkdir(mode=0o700)
    subprocess.run(
        ["cc", *_runs._FLAGS, "-o", str(built / "lib.so"),
         str(_runs._SOURCE)],
        check=True, capture_output=True,
    )
    return built / "lib.so"


def plant(directory, library):
    directory.mkdir(exist_ok=True)
    planted = directory / _runs._library_name()
    planted.write_bytes(library.read_bytes())
    return planted


@pytest.mark.parametrize(
    "mode",
    [
        pytest.param(0o777, id="world-writable"),
        pytest.param(0o770, id="group-writable"),
        pytest.param(0o755, id="readable-by-others"),
        pytest.param("symlink", id="symlink"),
    ],
)
def test_a_library_in_a_temp_dir_others_can_reach_is_not_loaded(
    tmp_path, monkeypatch, mode
):
    """Another local user can create the predictable temp cache first
    and plant a library in it; the loader must refuse the directory."""
    library = build_library(tmp_path)
    blocked = tmp_path / "blocked"  # the package cache, not writable
    blocked.write_text("a file, not a directory")
    shared = tmp_path / "shared"
    if mode == "symlink":
        target = tmp_path / "target"
        target.mkdir(mode=0o700)
        plant(target, library)
        shared.symlink_to(target)
    else:
        plant(shared, library)
        shared.chmod(mode)
    loaded = []
    monkeypatch.setattr(_runs, "_cache_dirs", lambda: (blocked, shared))
    monkeypatch.setattr(_runs, "_loader", _runs._Loader())
    monkeypatch.setattr(
        _runs.ctypes, "CDLL", lambda path: loaded.append(path)
    )
    with pytest.warns(RuntimeWarning, match="private to this user"):
        assert _runs.run_kernel(np.dtype(np.int8)) is None
    assert loaded == []


def test_a_writable_package_cache_ignores_the_temp_dir(
    tmp_path, monkeypatch
):
    """With a usable package cache the temp dir is never looked in, so a
    library planted there is not loaded even while the package cache is
    still empty (fresh install, after ``make clean`` or a source edit)."""
    planted = plant(tmp_path / "temp", build_library(tmp_path))
    package = tmp_path / "package"
    monkeypatch.setattr(
        _runs, "_cache_dirs", lambda: (package, planted.parent)
    )
    monkeypatch.setattr(_runs, "_loader", _runs._Loader())
    loaded = []
    real_cdll = _runs.ctypes.CDLL

    def recording_cdll(path):
        loaded.append(path)
        return real_cdll(path)

    monkeypatch.setattr(_runs.ctypes, "CDLL", recording_cdll)
    assert _runs.run_kernel(np.dtype(np.int8)) is not None
    assert loaded == [str(package / planted.name)]


@pytest.mark.parametrize("broken", [False, True])
def test_mine_stats_prints_the_path_that_ran(
    cache, matrix, monkeypatch, capsys, tmp_path, broken
):
    if broken:
        monkeypatch.setattr(_runs, "_COMPILER", NO_COMPILER)
    path = tmp_path / "matrix.tsv"
    save_expression_matrix(matrix, path)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        code = main([
            "mine", str(path), "--min-genes", "3", "--min-conditions", "6",
            "--gamma", "0.1", "--epsilon", "0.01", "--stats",
        ])
    assert code == 0
    out = capsys.readouterr().out
    assert f"  path: {'legacy' if broken else 'native'}\n" in out
