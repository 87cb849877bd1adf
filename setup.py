"""Package metadata and build configuration of ``repro`` (the only config file).

``pip install .`` builds from here, and ``python setup.py develop`` installs
in place where pip's PEP 517 editable build (which needs the ``wheel``
package) is unavailable.  The modules live under ``src/``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="AdaWave: adaptive wavelet clustering for highly noisy data",
    package_dir={"": "src"},
    packages=find_packages("src"),
    python_requires=">=3.9",
    install_requires=["numpy", "scipy"],
)
