import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_cvqoc_imports_only_numpy_and_the_standard_library():
    # a fresh interpreter, so modules the test run itself loaded do not count
    code = ("import importlib, pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import cvqoc\n"
            "for m in pkgutil.iter_modules(cvqoc.__path__):\n"
            "    importlib.import_module('cvqoc.' + m.name)\n"
            "loaded = {k.split('.')[0] for k in set(sys.modules) - before}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'cvqoc', 'numpy'}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "[]"
