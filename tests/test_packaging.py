import importlib
import os
import pathlib
import subprocess
import sys
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


def test_package_modules_load_no_scipy():
    """Loading scipy adds tens of MB to a run's resident memory, so these modules must not.

    The modules are named one by one, so that a module that needs scipy can
    still import it for itself.
    """
    modules = ("channel", "checkpoint", "codec", "data", "diffusion",
               "fds", "link", "tensor", "training", "unet")
    code = (f"import sys\nfor m in {modules!r}: __import__('semcom.' + m)\n"
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(PYPROJECT.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"


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
