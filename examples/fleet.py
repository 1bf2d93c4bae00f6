"""Multi-tenant evaluation fleet: two concurrent Studies, one worker farm.

Starts a :class:`~repro.core.fleet.FleetCoordinator` with a registry
endpoint, spawns two worker processes that announce themselves over
heartbeats (no static host list), and drives two optimization Studies
concurrently as separate tenants — a high-priority DNN-Opt sizing run and
a background random-search sweep.  The fair chunk scheduler interleaves
both on the same workers; the closing stats dump shows the per-tenant
accounting (sims/sec, cache hit-rate) the registry's ``stats`` op serves
over the wire.

    PYTHONPATH=src python examples/fleet.py

Everything is local here, but the worker command line is exactly what a
farm deployment runs on other machines:

    python -m repro.core.service --register COORDINATOR:PORT
"""

import json
import threading

from repro.baselines import RandomSearch
from repro.core import DNNOpt
from repro.core.fleet import FleetCoordinator
from repro.core.service import spawn_local_worker
from repro.problems import ConstrainedSphere, Sphere

if __name__ == "__main__":
    fleet = FleetCoordinator(heartbeat_timeout=5.0, poll_interval=0.1)
    registry = fleet.listen()  # workers register + heartbeat here
    print(f"registry/metrics endpoint on {registry.address}")

    procs = []
    try:
        for _ in range(2):
            proc, host = spawn_local_worker(register=registry.address,
                                            heartbeat=0.5)
            procs.append(proc)
            print(f"worker {host} up (pid {proc.pid})")

        # two tenants: the sizing run gets twice the fair share
        sizing_engine = fleet.engine("sizing", priority=2.0)
        sweep_engine = fleet.engine("sweep")
        histories = {}

        def sizing():
            optimizer = DNNOpt(ConstrainedSphere(4), 120, seed=0, n_init=40,
                               critic_epochs=10, actor_epochs=10,
                               engine=sizing_engine)
            histories["sizing"] = optimizer.run()

        def sweep():
            optimizer = RandomSearch(Sphere(5), 200, seed=1,
                                     engine=sweep_engine)
            histories["sweep"] = optimizer.run()

        threads = [threading.Thread(target=sizing),
                   threading.Thread(target=sweep)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if len(histories) != len(threads):
            raise SystemExit(f"a tenant's Study failed: only "
                             f"{sorted(histories)} finished")

        for name, history in sorted(histories.items()):
            summary = history.summary()
            print(f"[{name}] best feasible objective: "
                  f"{summary['best_feasible_objective']}")
        print("\nfleet stats:")
        print(json.dumps(fleet.stats(), indent=2))
        sizing_engine.close()
        sweep_engine.close()
    finally:
        for proc in procs:
            proc.terminate()
        for proc in procs:
            proc.wait(timeout=10)
        fleet.close()
