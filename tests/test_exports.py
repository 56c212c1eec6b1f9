"""Every exported name resolves, so no deleted name stays in an __all__,
and every library name the benchmark binds still exists."""
import importlib
import importlib.util
import os
import pkgutil
import re

import pytest

import cauchybures

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODULES = ["cauchybures"] + [f"cauchybures.{m.name}" for m in
                             pkgutil.iter_modules(cauchybures.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert not missing


def test_readme_contract_names_every_public_function():
    # the README's contract table has a row for each public function
    # (classes and exceptions aside) and for kernels.cd_hard_scaled
    with open(os.path.join(ROOT, "README.md")) as fh:
        table = fh.read().partition("## Contract")[2].partition("\n## ")[0]
    listed = set()
    for line in table.splitlines():
        if line.startswith("| `"):
            listed.update(re.findall(r"`(\w+)`", line.split("|")[1]))
    public = {name for name in cauchybures.__all__
              if not isinstance(getattr(cauchybures, name), type)}
    missing = (public | {"cd_hard_scaled"}) - listed
    assert not missing, sorted(missing)


def test_benchmark_bound_names_resolve():
    # perfbench/tracer.py wraps these names where they are defined and
    # where they are looked up; perfbench/refgen.py calls three foxh names
    path = os.path.join(ROOT, "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    homes = {}
    for table in (tracer.SPANNED, tracer.COUNTED):
        for mod_name, attrs in table.items():
            owner = importlib.import_module(f"cauchybures.{mod_name}")
            for attr in attrs:
                homes[attr] = owner
                for part in attr.split("."):
                    homes[attr] = getattr(homes[attr], part)
    for mod_name, attr in tracer.REQUIRED_SITES:
        module = importlib.import_module(f"cauchybures.{mod_name}")
        assert getattr(module, attr) is homes[attr], (mod_name, attr)
    from cauchybures import foxh
    for attr in ("_gtn_factors", "_gtinf_factors", "min_family_separation"):
        assert callable(getattr(foxh, attr))


def test_hankel_loop_alias_is_the_residue_series():
    # a function of its own: bound to residue_series itself, the tracer
    # would rewrap every residue_series binding as foxh.hankel_loop too
    from cauchybures.foxh import GammaFactor, hankel_loop, residue_series
    assert hankel_loop is not residue_series
    num = [GammaFactor(0.0, 1.0)]
    assert hankel_loop(num, [], 0.7) == residue_series(num, [], 0.7)
