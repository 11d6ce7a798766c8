"""The bench tracer wraps engine names by attribute; each must still exist."""

import importlib.util
import pathlib

TRACER = pathlib.Path(__file__).parent.parent / "bench" / "tracer.py"


def test_every_traced_name_is_defined_where_the_tracer_looks():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in tracer.TARGETS if attr not in vars(owner)]
    assert not missing
