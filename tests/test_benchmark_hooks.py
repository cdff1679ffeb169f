"""The benchmark's tracer wraps library attributes by name.

``perfbench/tracer.py`` reads each method it patches from its class's
``__dict__``, so renaming or deleting one makes every traced benchmark run
die with a KeyError.  These tests load the tracer's tables and check every
name against the library.
"""

import importlib
import importlib.util
import inspect
import pathlib

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_method_is_defined_on_its_class():
    tracer = _load_tracer()
    for name, (module, cls_name, attr) in {**tracer.SPAN_METHODS, **tracer.COUNTED}.items():
        cls = getattr(importlib.import_module(f"designforge.{module}"), cls_name)
        assert attr in cls.__dict__, name


def test_every_span_hook_names_a_public_function():
    tracer = _load_tracer()
    for name in tracer.SPAN_HOOKS:
        module, function = name.split(".")
        value = getattr(importlib.import_module(f"designforge.{module}"), function, None)
        assert inspect.isfunction(value), name
