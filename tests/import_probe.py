"""Check that importing the CLI loads neither ``dataclasses`` nor ``inspect``.

Every command pays for ``import draftkit.cli`` before it does any work;
``dataclasses`` (which imports ``inspect``, ``ast``, ``dis`` and
``tokenize``) and its generated methods once made up about half of that.
Run as a script with the interpreter under test; it exits non-zero
naming the modules that should not have been loaded.
"""

import sys

before = set(sys.modules)
import draftkit.cli  # noqa: E402

added = set(sys.modules) - before
assert "draftkit.cli" in added, "draftkit.cli was already imported"
unwanted = sorted(added & {"dataclasses", "inspect"})
if unwanted:
    sys.exit(f"import draftkit.cli ({draftkit.cli.__file__}) loaded {', '.join(unwanted)}")
print(f"import draftkit.cli ({draftkit.cli.__file__}) loads neither dataclasses nor inspect")
