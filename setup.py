"""Package metadata for the ICDE 2012 reproduction.

Installable with plain ``pip install -e .`` (exercised in CI); the
runtime dependencies are the two scientific-stack packages the linear
algebra backends build on, and the ``repro-bench`` console script runs
the paper's evaluation suite (see ``repro/bench``).
"""

from setuptools import find_packages, setup

setup(
    name="repro-emrich-icde12",
    version="1.0.0",
    description=(
        "Reproduction of 'Querying Uncertain Spatio-Temporal Data' "
        "(Emrich et al., ICDE 2012): exact PST queries over Markov-"
        "chain trajectory models, with batched, planned, and "
        "streaming execution"
    ),
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=[
        "numpy>=1.22",
        "scipy>=1.8",
    ],
    extras_require={
        "test": [
            "pytest",
            "hypothesis",
        ],
    },
    entry_points={
        "console_scripts": [
            "repro-bench = repro.bench.cli:main",
        ],
    },
)
