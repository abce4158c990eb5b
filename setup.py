"""Setuptools entry point: the project's only packaging metadata.

``pip install -e .`` installs the ``src/repro`` package in place;
``pip install -e .[dev]`` adds the test dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description=(
        "LiPFormer reproduction: lightweight patch-wise Transformer "
        "forecasting with weak data enriching"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.23"],
    extras_require={"dev": ["pytest>=7.0", "pytest-benchmark>=4.0", "hypothesis>=6.0"]},
)
