"""Start-up hook for the benchmark's traced runs.

The benchmark puts this directory first on ``PYTHONPATH`` of every
process it launches in a traced run, so the interpreter imports this
module at start-up.  It does nothing unless ``PIFBENCH_SPAN_DIR`` is set;
then it installs the span wrappers of :mod:`pifbench_trace`.  Untraced
runs never see this directory.
"""

import os

if os.environ.get("PIFBENCH_SPAN_DIR"):
    import pifbench_trace

    pifbench_trace.install()
