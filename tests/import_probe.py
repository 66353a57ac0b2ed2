"""Check that importing the CLI loads none of ``dataclasses``, ``inspect``
and ``importlib.resources``.

Every command pays for ``import draftkit.cli`` before it does any work;
``dataclasses`` (which imports ``inspect``, ``ast``, ``dis`` and
``tokenize``) and its generated methods once made up about half of that.
``importlib.resources`` imports ``inspect`` too on Python 3.12 and later.
Run as a script with the interpreter under test, with and without ``-S``
(a site hook may import one of them first and so hide it); it exits
non-zero naming the modules that should not have been loaded.
"""

import sys

before = set(sys.modules)
import draftkit.cli  # noqa: E402

added = set(sys.modules) - before
assert "draftkit.cli" in added, "draftkit.cli was already imported"
unwanted = sorted(added & {"dataclasses", "inspect", "importlib.resources"})
if unwanted:
    sys.exit(f"import draftkit.cli ({draftkit.cli.__file__}) loaded {', '.join(unwanted)}")
print(
    f"import draftkit.cli ({draftkit.cli.__file__}) loads none of dataclasses, inspect"
    " and importlib.resources"
)
