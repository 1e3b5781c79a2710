"""Packaging for the SLADE reproduction (conf_icde_Tong0ZJSL19)."""

import re
from pathlib import Path

from setuptools import find_packages, setup


def _read_version() -> str:
    """Read ``__version__`` from the package without importing it."""
    init_path = Path(__file__).parent / "src" / "repro" / "__init__.py"
    match = re.search(
        r'^__version__\s*=\s*"([^"]+)"', init_path.read_text(), re.MULTILINE
    )
    if match is None:
        raise RuntimeError("cannot find __version__ in src/repro/__init__.py")
    return match.group(1)


setup(
    name="slade-repro",
    version=_read_version(),
    description=(
        "Reproduction of SLADE: a smart large-scale task decomposer for "
        "crowdsourcing (Tong et al., ICDE 2019)"
    ),
    author="slade-repro contributors",
    python_requires=">=3.8",
    package_dir={"": "src"},
    packages=find_packages("src"),
    # SciPy 1.6 is the first with linprog(method="highs").
    install_requires=["numpy", "scipy>=1.6"],
    entry_points={
        "console_scripts": [
            # Historical name used throughout the docs, plus the package name.
            "slade=repro.cli:main",
            "repro=repro.cli:main",
        ]
    },
    extras_require={
        "test": ["pytest", "hypothesis", "pytest-benchmark"],
    },
)
