"""The benchmark's per-layer metrics name curvspec functions; a name that is
no longer a public function of its module would read 0 there, not fail."""

import importlib
import importlib.util
import inspect
import os
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
