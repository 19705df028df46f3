"""README's examples run, and its tables name what the package holds."""

import types
from pathlib import Path

import fsskit
from fsskit import ResonancePrediction

README = (Path(__file__).parents[1] / "README.md").read_text()


def test_library_quickstart_runs(capsys):
    # the first example users copy must not call a name the package lost
    code = README.split("## Library quickstart\n")[1].split("```python\n")[1].split("```")[0]
    exec(compile(code, "README quickstart", "exec"), {})
    bands, prediction = capsys.readouterr().out.splitlines()
    f_lower, f_zero, f_upper = map(float, bands.split())
    assert 0 < f_lower < f_zero < f_upper
    assert prediction.startswith(f"{ResonancePrediction.__name__}(")


def test_readme_lists_the_public_api():
    # README's API table and the names `import fsskit` exposes are the same
    # set, so a removed name cannot linger there and an added one cannot go
    # unlisted; the submodules are no API names of their own
    table = README.split("| name | job |\n")[1].split("\n\n")[0]
    listed = []
    for row in table.splitlines()[1:]:  # below the | --- | rule
        names = row.strip().strip("|").split("|")[0]
        listed += [name.strip(" `") for name in names.split(",")]
    exposed = {
        name for name, value in vars(fsskit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(listed) == len(set(listed))
    assert set(listed) == exposed
