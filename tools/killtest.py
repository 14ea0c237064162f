import os, ray, sys
ray.init(address="local", num_cpus=8, include_dashboard=False, logging_level="ERROR")
from ray.data import DataContext
DataContext.get_current().enable_progress_bars = False
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from plateau_gis_converter_ray.pipelines.flagship import run_flagship
res = run_flagship(sf=0.01, out_dir="/tmp/plateau_ray_out/killtest", n_chunks=4)
print("DONE", res["assignments"])
ray.shutdown()
