"""Multiview partial point set generation for indoor point clouds.

Each public name is imported from its module, for example
``from mvrep.pipeline import generate_multiview``.
"""

import os

# The --jobs worker threads are the only parallelism mvrep asks for.  numpy's
# and scipy's OpenBLAS copies would each start a thread per extra core when
# loaded, which costs every short mvrep process CPU time and changes no
# output byte.  Every submodule is imported after this package, so numpy is
# loaded after the count is set.  A value already set wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
