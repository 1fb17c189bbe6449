"""Packaging for the IISWC'25 computational-statistics reproduction.

Metadata lives here (not pyproject.toml) because this offline
environment lacks the `wheel` package, so editable installs must go
through `setup.py develop` (--no-use-pep517).
"""

import os

from setuptools import find_packages, setup


_HERE = os.path.dirname(os.path.abspath(__file__))


def _readme() -> str:
    path = os.path.join(_HERE, "README.md")
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            return f.read()
    return ""


def _version() -> str:
    """Single source of truth: __version__ in src/repro/__init__.py."""
    with open(os.path.join(_HERE, "src", "repro", "__init__.py"),
              encoding="utf-8") as f:
        for line in f:
            if line.startswith("__version__"):
                return line.split('"')[1]
    raise RuntimeError("__version__ not found in src/repro/__init__.py")


setup(
    name="repro-iiswc-xucr25",
    version=_version(),
    description=("Reproduction of 'Design and accuracy trade-offs in "
                 "Computational Statistics' (Xu, Cox, Rixner; IISWC 2025): "
                 "binary64 vs log-space vs posit arithmetic for "
                 "probabilities far below 2**-1074"),
    long_description=_readme(),
    long_description_content_type="text/markdown",
    author="paper-repo-growth",
    license="MIT",
    packages=find_packages("src"),
    package_dir={"": "src"},
    python_requires=">=3.9",
    install_requires=[
        "numpy>=1.22",
    ],
    extras_require={
        "bench": ["pytest", "pytest-benchmark>=4.0"],
        "test": ["pytest", "hypothesis", "scipy"],
        "dev": ["pytest", "pytest-benchmark>=4.0", "pytest-cov",
                "hypothesis", "scipy", "ruff"],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Mathematics",
    ],
)
