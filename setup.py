"""Setuptools shim.

The project is fully described by ``pyproject.toml``; this file exists so the
package can be installed in environments whose tooling predates PEP 660
editable installs (``pip install -e . --no-use-pep517``).
"""

from setuptools import setup

setup()
