"""Legacy-installer shim.  All metadata — including the runtime
dependencies ``numpy`` and ``networkx`` — lives in ``pyproject.toml``'s
``[project]`` table; setuptools reads it from there.  scipy, needed only
for significance tests, is in the ``dev`` extra."""

from setuptools import setup

setup()
