"""Wall-clock service tests start from a collected heap.

``test_service_inproc`` paces a live service against fixed arrival times
with ~1.5 ms to spare (its second tick lands at ~41.9 ms, the last arrival
at 43.4 ms).  A generational GC pass over the garbage of whichever tests
ran before, landing in ``service.start()``, is a 3+ ms stall that turns
"at least one rotation" into none -- nothing the service did.  Collecting
first resets the allocation counts, so no pass is due inside the run.
"""

import gc

import pytest


@pytest.fixture(autouse=True)
def collected_heap(request):
    if request.module.__name__.endswith("_inproc"):
        gc.collect()
