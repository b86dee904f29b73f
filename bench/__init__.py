"""One benchmark for plan quality, compile speed, the plan interpreters
and the request path.

``python -m bench --seed 20090525`` runs the six workloads declared in
``BENCHMARK.json``, each in a fresh subprocess, checks every output and
prints every metric by name and unit.  See ``bench/README.md`` for the
metric and workload catalogue and how to read the layer table.
"""
