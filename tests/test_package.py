"""The package namespace: every public name, and what importing it loads."""

import ast
import inspect
import pathlib
import re
import subprocess
import sys

import pytest

import qnd_povm

# the public names of the package, submodules included
PUBLIC = {
    "CollectiveState", "ConfigError", "DensityMatrix", "DomainError", "GaussianModel",
    "OutcomeDistribution", "ParityCase", "ParityPattern", "PhotonOutcome",
    "PreconditionError", "ProjectiveParams", "QndError", "QndParams",
    "ResourceCapError", "SpinMoments", "SqueezingReport", "WignerGrid",
    "ZeroProjectionError", "amplitude", "analysis", "apply", "approx", "approx_apply",
    "cat_fidelity", "cat_state", "clebsch_gordan", "coherent_state", "condition",
    "condition_many", "density_from_state", "detector_phases", "dicke_state", "eigen",
    "errors", "gaussian_amplitude", "gaussian_model", "log_amplitude", "log_factorial",
    "log_matrix_element", "log_matrix_element_direct", "moments", "normalize", "numerics",
    "outcome_distribution", "overlap", "params_from_json", "params_to_json",
    "parity_pattern_check", "peak_solutions", "phase_phi", "posterior", "povm", "project",
    "projective_params", "sample_outcomes", "scale_amplitudes", "spin_state",
    "squeezing_report", "state_from_json", "state_to_json", "twice", "wigner",
}


def test_public_names():
    assert set(qnd_povm.__all__) == PUBLIC
    assert PUBLIC <= set(dir(qnd_povm))


def test_every_public_name_is_its_submodule_binding():
    for name in PUBLIC:
        obj = getattr(qnd_povm, name)
        home = obj.__name__ if name in qnd_povm._EXPORTS else obj.__module__
        assert home.startswith("qnd_povm.")
        assert getattr(sys.modules[home], name, obj) is obj


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nothing_here'"):
        qnd_povm.nothing_here


def test_import_loads_no_submodule_and_star_import_loads_them_all():
    # run fresh: this process has imported the submodules already
    code = ("import sys, qnd_povm\n"
            "print(sorted(m for m in sys.modules if m.startswith('qnd_povm')))\n"
            "from qnd_povm import *\n"
            "print(sorted(m for m in sys.modules if m.startswith('qnd_povm.')))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    first, second = proc.stdout.splitlines()
    assert first == "['qnd_povm']"
    assert "qnd_povm.analysis" in second and "qnd_povm.approx" in second


def test_measure_loads_neither_analysis_nor_approx(tmp_path):
    code = ("import sys\n"
            "from qnd_povm import cli\n"
            "cli.run('measure', {'params': {'gamma': 3, 'chi': 3, 'gt': 'pi/N'}, 'N': 4,\n"
            "        'initial': {'type': 'coherent', 'theta': 1.0}, 'shots': 3},\n"
            "        sys.argv[1])\n"
            "print(sorted(m for m in sys.modules if m.startswith('qnd_povm.')))\n")
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "m.jsonl")],
                          capture_output=True, text=True, check=True)
    loaded = proc.stdout.strip()
    assert "qnd_povm.povm" in loaded
    assert "qnd_povm.analysis" not in loaded and "qnd_povm.approx" not in loaded


def test_readme_library_example_runs(capsys):
    # a name the example uses that is renamed or deleted fails here
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library example\n", 1)[1].split("\n## ", 1)[0]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("PhotonOutcome(")



def _names_the_cap(node):
    """Whether `node` names MAX_ENTRIES in code: as a name, an attribute, an
    import or its alias, or a string of that name alone (as getattr takes it)."""
    return "MAX_ENTRIES" in {getattr(node, "id", None), getattr(node, "attr", None),
                             getattr(node, "name", None), getattr(node, "asname", None),
                             getattr(node, "value", None) if isinstance(node, ast.Constant)
                             else None}


def test_only_reserve_compares_against_the_size_cap():
    # every array over errors.MAX_ENTRIES is refused in one place; a module
    # that imported the cap would hold a copy that a patched cap leaves
    # behind, and a cap passed on as a bound is compared out of this sight
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(pathlib.Path(qnd_povm.__file__).parent.glob("*.py"))}
    naming = [name for name, tree in trees.items() if any(map(_names_the_cap, ast.walk(tree)))]
    assert naming == ["errors.py"]
    compares = [node for node in ast.walk(trees["errors.py"]) if isinstance(node, ast.Compare)
                and any(map(_names_the_cap, ast.walk(node)))]
    assert len(compares) == 1
    assert "entries > MAX_ENTRIES" in inspect.getsource(qnd_povm.errors.reserve)


def test_cli_imports_config_before_the_standard_library():
    # the order sets `measure`'s peak RSS (see cli.py); an import sorter
    # would move `.config` below the standard library without a word
    path = pathlib.Path(qnd_povm.__file__).parent / "cli.py"
    imports = [node for node in ast.parse(path.read_text(encoding="utf-8")).body
               if isinstance(node, (ast.Import, ast.ImportFrom))
               and getattr(node, "module", None) != "__future__"]
    first = imports[0]
    assert isinstance(first, ast.ImportFrom) and (first.level, first.module) == (1, "config")
