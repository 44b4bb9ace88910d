"""Package-level smoke tests: imports, exports and version."""

import importlib
import json

import pytest

from tests.fresh import fresh_interpreter


PUBLIC_MODULES = [
    "repro",
    "repro.core",
    "repro.core.policies",
    "repro.runtime",
    "repro.simulation",
    "repro.simulation.pipeline",
    "repro.simulation.replication",
    "repro.apps.face",
    "repro.apps.translate",
    "repro.profiles",
    "repro.planner",
    "repro.tools",
    "repro.cli",
]


class TestImports:
    @pytest.mark.parametrize("module_name", PUBLIC_MODULES)
    def test_module_imports(self, module_name):
        importlib.import_module(module_name)

    def test_version(self):
        import repro
        assert repro.__version__ == "1.0.0"

    def test_core_exports_resolve(self):
        import repro.core as core
        for name in core.__all__:
            assert getattr(core, name) is not None, name

    def test_simulation_exports_resolve(self):
        import repro.simulation as simulation
        for name in simulation.__all__:
            assert getattr(simulation, name) is not None, name

    def test_runtime_exports_resolve(self):
        import repro.runtime as runtime
        for name in runtime.__all__:
            assert getattr(runtime, name) is not None, name

    def test_app_exports_resolve(self):
        from repro.apps import face, translate
        for module in (face, translate):
            for name in module.__all__:
                assert getattr(module, name) is not None, name


#: what a device's import path must not load: the simulator and the
#: tools around it, and numpy until an array crosses the codec
OFF_THE_DEVICE_PATH = ("simulation", "planner", "apps", "tools", "verify",
                       "profiles", "cli")


class TestImportFootprint:
    def test_device_path_loads_neither_numpy_nor_the_simulator(self):
        out = fresh_interpreter("""
            import json, sys
            import repro.core, repro.runtime, repro.metrics, repro.trace
            print(json.dumps(sorted(sys.modules)))
        """)
        loaded = json.loads(out)
        assert "numpy" not in loaded
        off_path = [name for name in loaded if name.startswith("repro.")
                    and name.split(".")[1] in OFF_THE_DEVICE_PATH]
        assert off_path == []

    def test_subpackage_attribute_loads_on_first_access(self):
        out = fresh_interpreter("""
            import sys
            import repro
            assert "repro.simulation" not in sys.modules
            print(repro.simulation.run_swarm.__name__)
        """)
        assert out.split() == ["run_swarm"]

    def test_from_import_and_dir(self):
        out = fresh_interpreter("""
            import json
            import repro
            from repro import simulation, tools
            print(json.dumps([simulation.__name__, tools.__name__,
                              dir(repro), repro.__all__]))
        """)
        simulation, tools, listed, exported = json.loads(out)
        assert (simulation, tools) == ("repro.simulation", "repro.tools")
        for sub in ("core", "planner", "profiles", "simulation", "tools"):
            assert sub in listed
            assert sub in exported
        assert "__version__" in exported

    def test_unknown_attribute_raises(self):
        import repro
        with pytest.raises(AttributeError):
            repro.no_such_subpackage  # noqa: B018

    def test_every_subpackage_and_top_module_imports_first(self):
        # repro/__init__.py no longer fixes an import order, so a cycle
        # between two subpackages shows only when one of them is the
        # first thing a program imports (repro.trace <-> repro.core did).
        out = fresh_interpreter("""
            import importlib, pkgutil, sys
            import repro
            names = [m.name for m in pkgutil.walk_packages(
                         repro.__path__, "repro.")
                     if (m.ispkg or m.name.count(".") == 1)
                     and m.name != "repro.__main__"]
            failed = []
            for name in names:
                for key in [k for k in sys.modules
                            if k.partition(".")[0] == "repro"]:
                    del sys.modules[key]
                try:
                    importlib.import_module(name)
                except ImportError as error:
                    failed.append("%s: %s" % (name, error))
            print(len(names))
            print("\\n".join(failed))
        """)
        count, *failed = out.strip().splitlines()
        assert int(count) > 10
        assert failed == []
