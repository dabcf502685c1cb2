"""The benchmark tracer's wrap list matches the package.

``perfbench/layers.py`` wraps each listed function in every module that
holds it under that name.  A name missing from one of those modules makes
a traced benchmark run fail with AttributeError, so it is checked here.
"""

import runpy
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_wrapped_functions_exist_in_every_listed_module():
    # run_path compiles the file without writing bytecode next to it
    wrapped = runpy.run_path(str(LAYERS))["WRAPPED"]
    assert wrapped
    for span, attr, modules, _ in wrapped:
        for mod in modules:
            assert hasattr(mod, attr), (span, mod.__name__)
        found = {id(getattr(mod, attr)) for mod in modules}
        assert len(found) == 1, (span, [mod.__name__ for mod in modules])
