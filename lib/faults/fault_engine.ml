(* Kept only because the benchmark's mc-sample workload (perfbench/w_mc.ml)
   calls [Fault_engine.win_probability_mc ~faults:...]; all logic lives in
   Engine, where [?faults] defaults to Fault_model.none. *)
include Engine
