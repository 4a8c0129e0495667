"""``experiments/<name>.py`` loaded as a module: the scripts are no package."""

import importlib.util
import pathlib

EXPERIMENTS = pathlib.Path(__file__).resolve().parents[1] / "experiments"


def load_experiment(name: str):
    spec = importlib.util.spec_from_file_location(name, EXPERIMENTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
