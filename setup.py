"""Legacy setup script (kept so editable installs work without the wheel package)."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "Reproduction of 'P-SLOCAL-Completeness of Maximum Independent Set "
        "Approximation' (Maus, PODC 2019)"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.9",
    install_requires=["networkx"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
