"""The names perfbench hooks into must exist, so `--trace 1` keeps working.

perfbench/tracer.py and perfbench/rep.py are loaded by path and only read.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("tracer")
rep = _load("rep")


def _module(short: str):
    return importlib.import_module(f"edgesector.{short}")


@pytest.mark.parametrize("short,attr", tracer.FUNCTIONS)
def test_traced_function_resolves(short, attr):
    assert callable(getattr(_module(short), attr))


@pytest.mark.parametrize("short,cls_name,meth,span", tracer.METHODS)
def test_traced_method_in_class_dict(short, cls_name, meth, span):
    assert meth in getattr(_module(short), cls_name).__dict__


@pytest.mark.parametrize("short,attr", rep.COLD_CACHES + tracer.CACHES)
def test_cold_cache_has_cache_info(short, attr):
    assert hasattr(getattr(_module(short), attr), "cache_info")
