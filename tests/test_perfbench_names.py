"""The benchmark traces program functions by name; a rename must fail here
rather than when a traced benchmark run starts."""

import importlib
import importlib.util
import os

RUN_PY = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "run.py")


def _load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN_PY)
    run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run)
    return run


def test_every_traced_name_resolves_in_bicap():
    run = _load_run()
    names = set(run.TRACED) | set(run.REQUEST_FUNCTIONS) | set(run.RECON_CONSUMERS)
    names |= set(run.SELF_TIME_METRICS) | set(run.PER_TOKEN.values())
    assert names
    missing = []
    for label in sorted(names):
        module, func = label.split(".")
        if not callable(getattr(importlib.import_module(f"bicap.{module}"), func, None)):
            missing.append(label)
    assert not missing, f"{RUN_PY} traces names bicap does not define: {missing}"
