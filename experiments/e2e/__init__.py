"""End-to-end benchmark of the public ``BrokerNetwork`` API (see README.md).

Run from the repository root::

    python3 -m experiments.e2e run [--workload W] [--seed S] [--seconds T] [--trace 0|1]
    python3 -m experiments.e2e compare A.json B.json

Only :mod:`experiments.e2e.adapter` imports the system under test.
"""
