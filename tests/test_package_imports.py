"""Package exports load on first use, and the serving path loads little.

Every package ``__init__`` exports its names lazily (PEP 562), so a
process that imports the server, the history writer and the series index
must not pull in the engine, the sharded subsystem, OpenSSL's hashlib or
the evaluation kit.  The export tables themselves must stay complete:
every ``__all__`` name resolves, is listed by ``dir()`` and survives a
star import.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.datastructures",
    "repro.series",
    "repro.service",
    "repro.sketches",
    "repro.stats",
    "repro.store",
    "repro.streaming",
    "repro.workloads",
]

SERVING_IMPORTS = ["repro.service.server", "repro.store.writer", "repro.series.index"]

NOT_ON_SERVING_PATH = [
    "hashlib",
    "_hashlib",
    "multiprocessing",
    "repro.streaming.sharded",
    "repro.streaming.engine",
    "repro.core.distributed",
    "repro.evalkit",
]


def test_serving_imports_skip_unused_modules():
    code = "\n".join(
        ["import json, sys"]
        + [f"import {module}" for module in SERVING_IMPORTS]
        + [f"print(json.dumps(sorted(set({NOT_ON_SERVING_PATH!r}) & set(sys.modules))))"]
    )
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        timeout=120, check=True,
    ).stdout
    assert json.loads(out) == []


@pytest.mark.parametrize("name", PACKAGES)
def test_package_exports_resolve(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        assert getattr(package, export) is not None
        assert export in listed
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(package, "no_such_name")
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(package.__all__) <= set(namespace)
