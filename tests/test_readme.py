"""README.md's library example runs as written."""

import pathlib
import re

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs():
    # the first python block under "## Library"; its own asserts check that
    # every law of the kdv-burgers degree-3 solve certifies "identity"
    library = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    code = re.search(r"^```python\n(.*?)^```", library, re.M | re.S).group(1)
    namespace = {}
    exec(compile(code, str(README), "exec"), namespace)
    assert namespace["result"].classified  # the loop certified at least one law
