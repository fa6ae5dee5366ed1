"""Experiment modules — one per table/figure in the paper's evaluation.

==========  =====================================================
id          paper artifact
==========  =====================================================
``table1``  ABOM syscall reduction for 12 applications
``fig3``    macrobenchmark throughput + latency (EC2/GCE)
``fig4``    relative syscall throughput (4 panels)
``fig5``    UnixBench microbenchmarks + iperf (4 panels)
``fig6``    LibOS comparison (NGINX, PHP+MySQL)
``fig8``    scalability to 400 containers
``fig9``    kernel-level load balancing
``spawn``   §4.5 instantiation times
==========  =====================================================

Use :func:`repro.experiments.runner.run_experiment` or
``repro experiments <id>`` (``all`` runs every id).
"""

from repro.experiments.report import ExperimentResult, Row

__all__ = ["ExperimentResult", "Row"]
