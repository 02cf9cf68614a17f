"""The benchmark tracer still finds every name it patches in the package."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _safeset_modules() -> dict:
    return {name: m for name, m in sys.modules.items() if name.split(".")[0] == "safeset"}


def test_tracer_installs_and_uninstalls_on_a_fresh_package():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    saved = _safeset_modules()
    for name in saved:
        del sys.modules[name]
    try:
        # the benchmark imports these two; cli imports every other module
        importlib.import_module("safeset.cli")
        importlib.import_module("safeset.generators")
        fresh = _safeset_modules()
        graph = fresh["safeset.graph"].Graph
        before = ({name: dict(vars(m)) for name, m in fresh.items()}, graph.__init__)
        tracer = tracer_module.Tracer()
        tracer.install(fresh)
        tracer.uninstall()
        assert ({name: dict(vars(m)) for name, m in fresh.items()}, graph.__init__) == before
    finally:
        for name in _safeset_modules():
            del sys.modules[name]
        sys.modules.update(saved)
