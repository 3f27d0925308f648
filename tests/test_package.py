"""The package namespace: `import ptqes` loads no submodule, a public name
loads its home submodule on first read, and the level commands load neither
the oracle nor the norms layer."""

import json
import subprocess
import sys

import pytest

import ptqes

# Run in a fresh interpreter: the code in argv[1], then print the loaded
# ptqes submodules and whether numpy was imported.
_PROBE = """
import json, sys
exec(sys.argv[1])
print(json.dumps({
    "ptqes": sorted(m for m in sys.modules if m.startswith("ptqes.")),
    "numpy": "numpy" in sys.modules,
}))
"""


def _loaded(code: str) -> dict:
    p = subprocess.run([sys.executable, "-c", _PROBE, code], capture_output=True, text=True)
    assert p.returncode == 0, p.stderr
    return json.loads(p.stdout.splitlines()[-1])


def test_import_loads_no_submodule_and_no_numpy():
    assert _loaded("import ptqes") == {"ptqes": [], "numpy": False}


def test_a_public_name_loads_only_its_home_and_what_that_imports():
    loaded = _loaded("import ptqes; ptqes.qes_spectrum")["ptqes"]
    assert "ptqes.spectra" in loaded
    assert not {"ptqes.oracle", "ptqes.norms", "ptqes.duality", "ptqes.cli"} & set(loaded)


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--M", "9", "--zeta2", "0.01"],
        ["spectrum", "--M", "9", "--zeta2", "0.01", "--model", "dsg"],
        ["sweep", "--M", "9", "--zeta2-range", "0:0.02:0.01", "--model", "dsg"],
    ],
)
def test_level_commands_load_neither_oracle_nor_norms(argv):
    code = f"import os, ptqes.cli; assert ptqes.cli.main({argv!r} + ['--out', os.devnull]) == 0"
    loaded = _loaded(code)["ptqes"]
    assert "ptqes.cli" in loaded
    assert not {"ptqes.oracle", "ptqes.norms"} & set(loaded)


def test_every_public_name_is_the_object_its_home_module_defines():
    for name in ptqes.__all__:
        value = getattr(ptqes, name)
        if name == "__version__":
            assert value == "0.1.0"
            continue
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("ptqes.")
        assert getattr(home, name) is value
        assert value.__name__ == name


def test_dir_lists_every_public_name_and_submodule():
    assert set(ptqes.__all__) <= set(dir(ptqes))
    assert {"spectra", "norms", "duality", "oracle", "cli"} <= set(dir(ptqes))


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from ptqes import *", namespace)
    assert set(ptqes.__all__) <= set(namespace)


def test_a_submodule_name_loads_the_submodule():
    code = "import ptqes, sys; assert ptqes.cli is sys.modules['ptqes.cli']"
    assert "ptqes.cli" in _loaded(code)["ptqes"]


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ptqes.no_such_name
    assert not hasattr(ptqes, "_PROBE")
