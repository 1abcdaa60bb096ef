"""perfbench's tracer replaces package functions where their callers look
them up (``_targets``). A site that no longer exists only fails inside a
traced benchmark run, so this checks every site against the package."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_site_exists_and_installs():
    tracer = load_tracer()
    sites = tracer._targets()
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _ in sites if attr not in owner.__dict__]
    assert not missing, f"perfbench traces names that are gone: {missing}"
    for _, _, span in sites:
        assert span in tracer.SELF_TIME_METRIC
    originals = [owner.__dict__[attr] for owner, attr, _ in sites]
    run = tracer.Tracer("guard")
    run.install()
    try:
        for (owner, attr, _), original in zip(sites, originals):
            assert owner.__dict__[attr].__wrapped__ is original
    finally:
        run.uninstall()
    assert [owner.__dict__[attr] for owner, attr, _ in sites] == originals
