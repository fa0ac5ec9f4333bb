"""Packaging for the ``repro`` library (sources under ``src/``).

The project has no ``pyproject.toml``; this file is its only packaging
metadata.  Nothing needs installing to run it (``PYTHONPATH=src`` is
enough), but an editable install works in fully offline environments where
the ``wheel`` package (needed by PEP 660 editable builds on older
setuptools) is unavailable::

    pip install -e . --no-use-pep517
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.10",
    # np.vecdot (the message-similarity feature) first ships in NumPy 2.0.
    install_requires=["numpy>=2.0"],
)
