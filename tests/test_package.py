"""The package's import surface: what a fresh process loads, and that every
public name still resolves when ``extension``, ``lehto`` and ``field`` load
on first use."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import qcmap

_LAZY_MODULES = {"qcmap.extension", "qcmap.field", "qcmap.lehto"}


def _fresh_python(code, tmp_path):
    """stdout of ``code`` run by a new interpreter that finds this qcmap."""
    src = os.path.dirname(os.path.dirname(qcmap.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_cli_loads_field_only_for_solve(tmp_path):
    # importing the CLI and running locus and a 9-center certify of a
    # builtin map loads none of the lazy modules, nor numpy.random (36
    # Lipschitz pairs need no subsample); solve loads field and nothing else
    code = """if True:
        import contextlib, io, json, pathlib, sys
        import qcmap.cli as cli

        def lazy():
            return sorted(m for m in sys.modules if m in %r)

        seen = [lazy()]
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["locus", "--theta0", "1", "--samples", "4",
                          "--out", "locus.csv"],
                         ["certify", "--map", "builtin:fc:0.5,0", "--centers",
                          "grid:3:1.4", "--bound", "2.3", "--annuli", "2"]):
                assert cli.main(argv) == 0
                seen.append(lazy())
            pathlib.Path("f.json").write_text(
                '{"kind": "disk_constant", "c": [0.5, 0]}')
            assert cli.main(["solve", "--field", "f.json", "--grid-n", "64",
                             "--out", "m.qcmap"]) == 0
        seen.append(lazy())
        print(json.dumps(seen))
    """ % (_LAZY_MODULES | {"numpy.random"},)
    seen = json.loads(_fresh_python(code, tmp_path))
    assert seen == [[], [], [], ["qcmap.field"]]


def test_every_public_name_resolves(tmp_path):
    # by attribute and by a star import, each in a fresh process, so no
    # module is loaded before the package asks for it
    code = """if True:
        import json, sys
        import qcmap
        {}
        print(json.dumps(sorted(m for m in sys.modules
                                if m.startswith("qcmap."))))
    """
    by_attr = "[getattr(qcmap, n) for n in qcmap.__all__]"
    star = ("ns = {}; exec('from qcmap import *', ns); "
            "assert all(ns[n] is getattr(qcmap, n) for n in qcmap.__all__)")
    for body in (by_attr, star):
        loaded = set(json.loads(_fresh_python(code.format(body), tmp_path)))
        assert loaded >= _LAZY_MODULES


def test_lazy_names_are_the_defining_modules_objects():
    for name, module in qcmap._LAZY.items():
        defined = importlib.import_module("qcmap." + module)
        assert getattr(qcmap, name) is getattr(defined, name)
        assert getattr(qcmap, module) is defined


def test_modulus_is_still_the_function():
    # the function shadows the submodule of the same name
    assert callable(qcmap.modulus)
    assert qcmap.modulus is qcmap.modulus.__globals__["modulus"]


def test_dir_lists_every_public_name_and_unknown_names_raise():
    assert set(dir(qcmap)) >= set(qcmap.__all__)
    assert {"extension", "field", "lehto"} <= set(dir(qcmap))
    with pytest.raises(AttributeError, match="no_such_name"):
        qcmap.no_such_name
    with pytest.raises(ImportError):
        exec("from qcmap import no_such_name", {})
