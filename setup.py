"""Setup shim.

A classic setup.py that holds the package metadata itself: the
``repro`` package lives under ``src/``, so ``package_dir`` maps the root
package there and ``find_packages("src")`` lists ``repro`` and its
subpackages.  Kept classic so that ``pip install -e .`` can take the
legacy editable path in offline environments, which needs no
build-isolation downloads.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    package_dir={"": "src"},
    packages=find_packages("src"),
)
