"""The benchmark's per-layer metrics name curvspec functions; a name that is
no longer a public function of its module would read 0 there, not fail. Its
child script also calls the library outside cli, which a smoke run checks."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys

from conftest import CONFIG_DIR

PERFBENCH_DIR = os.path.normpath(os.path.join(CONFIG_DIR, "..", "perfbench"))


def _load_run_module():
    # perfbench/run.py imports its sibling tracer.py by plain name; read both
    # without writing bytecode, and leave sys.path and sys.modules as they were
    saved_path, saved_modules = list(sys.path), dict(sys.modules)
    saved_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    sys.path.insert(0, PERFBENCH_DIR)
    try:
        spec = importlib.util.spec_from_file_location(
            "perfbench_run", os.path.join(PERFBENCH_DIR, "run.py"))
        run = sys.modules[spec.name] = importlib.util.module_from_spec(spec)  # for dataclass
        spec.loader.exec_module(run)
        return run, sys.modules["tracer"]
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_bytecode
        for name in set(sys.modules) - set(saved_modules):
            del sys.modules[name]


def test_every_function_the_benchmark_names_is_public_in_its_module():
    run, tracer = _load_run_module()
    names = {fn for _, fn in run.LAYER_TIMES}
    names |= {fn for _, fn, _, _ in run.LAYER_COUNTS}
    names |= set(run.CLI_OPERATIONS) | set(tracer.OBSERVERS)
    assert names
    for name in sorted(names):
        short, attr = name.split(".")
        assert short in tracer.MODULES, name  # only these modules are traced
        module = importlib.import_module(f"curvspec.{short}")
        obj = getattr(module, attr, None)
        # the test tracer.install applies before it wraps a function
        assert not attr.startswith("_") and inspect.isfunction(obj), name
        assert obj.__module__ == module.__name__, name


def test_the_benchmark_child_script_runs_its_library_calls(tmp_path):
    # child.py loads configs (DomainConfig.target_h), meshes, refines, calls
    # fem.assemble(mesh, fem.ConformalWeight(space)) and round-trips the mesh
    src = os.path.normpath(os.path.join(CONFIG_DIR, "..", "src"))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")

    def child(*args):
        proc = subprocess.run([sys.executable, os.path.join(PERFBENCH_DIR, "child.py"), *args],
                              env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr

    stems = ("equilateral_dirichlet", "hyperbolic_disc_rhalf")
    child("setup", os.path.join(CONFIG_DIR, "unit_disc_dirichlet.yaml"))
    child("mesh", "--out", str(tmp_path / "mesh"), "--refinements", "1",
          *(os.path.join(CONFIG_DIR, stem + ".yaml") for stem in stems))
    for stem in stems:
        with open(tmp_path / "mesh" / f"{stem}.json", encoding="utf-8") as fh:
            assert json.load(fh)["identical"] is True, stem
