"""Time cold set-up in this fresh interpreter and print it in seconds.

Cold set-up is what a user waits for before the first test runs once
the campaign stack is imported: building the kernel image and booting
the first kernel.  Imports are not timed.  Every workload fuzzes the
same kernel configuration (the ``CampaignSpec`` defaults), so one probe
serves all of them.
"""

import os
import sys
import time


def main() -> None:
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from repro.campaign_api import CampaignSpec
    from repro.fuzzer.parallel import campaign_pool

    start = time.perf_counter()
    _, pool = campaign_pool(CampaignSpec())
    pool.acquire()
    print(f"{time.perf_counter() - start:.9f}")


if __name__ == "__main__":
    main()
