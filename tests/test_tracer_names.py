"""The traced benchmark run (`perfbench/spans.py`) wraps library functions by
name; a refactor that drops or retypes one of them fails here, not in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

from ordertop import finstruct

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    spans = _spans_module()
    for module, attr in spans.SPANNED:
        mod = importlib.import_module(f"ordertop.{module}")
        assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
    for module, cls_name, attr in spans.COUNTED:
        mod = importlib.import_module(f"ordertop.{module}")
        if cls_name is None:
            assert callable(getattr(mod, attr, None)), f"{module}.{attr}"
        else:
            # the tracer replaces the class attribute itself
            assert attr in vars(getattr(mod, cls_name)), f"{module}.{cls_name}.{attr}"


def test_counted_qoset_geq_is_a_plain_property():
    assert isinstance(vars(finstruct.Qoset)["geq"], property)
