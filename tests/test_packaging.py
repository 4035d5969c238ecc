import importlib
import pathlib
import tomllib

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_every_script_entry_point_imports():
    scripts = tomllib.loads(PYPROJECT.read_text())["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"script {name!r} -> {target!r} is not callable"


def test_bench_tracer_wraps_and_restores_every_name(monkeypatch):
    """Every name the benchmark's tracer wraps exists, and uninstall puts the originals back."""
    monkeypatch.syspath_prepend(str(PYPROJECT.parent / "bench"))
    spans = importlib.import_module("spans")
    tracer = spans.Tracer()
    try:
        tracer.install()
        patched = [(owner, attr, original) for owner, attr, original in tracer._patches]
        assert patched
        assert all(vars(owner)[attr] is not original for owner, attr, original in patched)
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert vars(owner)[attr] is original, f"{owner.__name__}.{attr} not restored"
