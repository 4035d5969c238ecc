import importlib
import os
import pathlib
import platform
import subprocess
import sys
import tomllib

import pytest

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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the allocator policy is glibc's")
def test_steady_link_sweep_faults_no_pages_in():
    """With the package's malloc policy, a map swept across the channel reuses freed heap.

    glibc's default policy unmaps large blocks and trims the heap top as soon
    as they are freed, so each map faulted about two thousand pages back in.
    The caller holds every result until the sweep is done, as the link-sweep
    benchmark does. A fresh interpreter keeps other tests' heap out of it.
    """
    code = """
import resource
import semcom
from semcom import data, link
from semcom.channel import ChannelConfig
from semcom.fds import FdsConfig

_, cmap = data.generate_shapes(data.ShapesSpec(canvas=128, shapes_max=6, seed=3), 1)[0]

def sweep():
    held = []
    for psnr in (1.0, 5.0, 10.0, 20.0, 100.0):
        received = link.transmit_map(cmap, 5, ChannelConfig(psnr, seed=int(psnr)))
        held.append((received, link.receiver_condition(received, 5, FdsConfig())))
    return held

for _ in range(3):
    sweep()
faults = []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    held = sweep()
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    del held
print(max(faults), *semcom.MALLOPT_RESULTS)
"""
    env = {**os.environ, "PYTHONPATH": str(PYPROJECT.parent / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    worst, *results = out
    assert int(worst) < 64, f"{worst} minor faults in one steady-state map sweep"
    assert results == ["1", "1"], f"mallopt returned {results}"
