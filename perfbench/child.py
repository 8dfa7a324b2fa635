"""Fresh-interpreter helper for run.py.

    python3 perfbench/child.py import
        import phasecomp.cli and exit (the parent times the whole process)
    python3 perfbench/child.py cold WORKLOAD SEED OUTDIR
        import phasecomp.cli, run pass 0 of the workload into OUTDIR and
        print {"import_s", "pass_s", "scaled_s", "records"} as one JSON line,
        "scaled_s" being the pass's time scaled to nominal speed (speed.py)
"""

import json
import sys
import time
from pathlib import Path

t_start = time.perf_counter()
import workloads  # noqa: E402  (stdlib-only module beside this file)

cli = workloads.load_cli()
import_s = time.perf_counter() - t_start

if sys.argv[1:2] == ["cold"]:
    workload, seed, outdir = sys.argv[2], int(sys.argv[3]), Path(sys.argv[4])
    import speed  # after the timed import; numpy is loaded by then

    meter = speed.Meter()
    pass_s, records = workloads.run_pass(cli, workloads.ops(workload, seed, 0), outdir, meter)
    print(json.dumps({"import_s": import_s, "pass_s": pass_s, "scaled_s": meter.scaled_s,
                      "records": records}))
elif sys.argv[1:2] != ["import"]:
    raise SystemExit(f"usage: {sys.argv[0]} import | cold WORKLOAD SEED OUTDIR")
