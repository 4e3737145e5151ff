"""Package metadata.

Legacy setup shim: this environment has no `wheel` package, so PEP 517
editable installs fail; `setup.py develop` via pip's legacy path works.

Dependencies: ``networkx`` is required (the multihop substrate imports
it at module top).  ``numpy`` is an optional accelerator (extra
``numpy``); every numpy path has a pure-python reference.  The test
suite needs the ``test`` extra.
"""
from setuptools import find_packages, setup

setup(
    name="repro",
    version="0.0.0",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    install_requires=["networkx"],
    extras_require={
        "numpy": ["numpy"],
        "test": ["pytest", "hypothesis"],
    },
)
