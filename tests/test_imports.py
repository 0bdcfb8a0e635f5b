import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _fresh(code: str) -> str:
    """stdout of code run in a fresh interpreter, so modules the test run
    itself loaded do not count."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    return out.stdout.strip()


def test_cvqoc_imports_only_numpy_and_the_standard_library():
    code = ("import importlib, pkgutil, sys\n"
            "before = set(sys.modules)\n"
            "import cvqoc\n"
            "for m in pkgutil.iter_modules(cvqoc.__path__):\n"
            "    importlib.import_module('cvqoc.' + m.name)\n"
            "loaded = {k.split('.')[0] for k in set(sys.modules) - before}\n"
            "print(sorted(loaded - set(sys.stdlib_module_names) - {'cvqoc', 'numpy'}))\n")
    assert _fresh(code) == "[]"


def test_a_residual_and_a_jacobian_do_not_import_numpy_ma():
    # numpy.ma costs about 20 ms to import; np.unique is one way in, and
    # the theta columns go through the circuits' depths
    code = ("import sys\n"
            "from cvqoc import cli\n"
            "path = cli.preset_path('two_level_ground_to_excited')\n"
            "prob = cli.build_problem(cli.load_config(path))[0]\n"
            "prob.residual(prob.decision.values)\n"
            "prob.jacobian(prob.decision.values)\n"
            "prob.jacobian(prob.decision.values, prob.theta_mask)\n"
            "print('numpy.ma' in sys.modules)\n")
    assert _fresh(code) == "False"
