(* Settings of the global placer that callers vary.  Defaults follow the
   paper's setup where it is specific (97% density, 2x3/3x2 realization
   windows, parallel realization) and common analytic-placement practice
   elsewhere.  Values no caller varies are constants of [Placer], which
   reads them (the anchor schedule and the flow capacity margin). *)

type t = {
  max_levels : int;  (* hard cap on grid refinement levels *)
  min_window_rows : float;  (* stop refining when windows get this short *)
  clique_max_degree : int;  (* nets up to this degree use the clique model *)
  cg_tol : float;
  cg_max_iter : int;
  domains : int;  (* parallel domains for the global QP's x/y solves and
                     realization's waves (1 = sequential) *)
  hw_clamp : bool;  (* clamp [domains] to physical cores in hot paths;
                       results are identical either way — disable only to
                       exercise parallel paths on small machines (tests) *)
  local_qp : bool;  (* run the local QP connectivity step in realization *)
  deadline : float option;  (* wall-clock budget (s) for global placement *)
  strict : bool;  (* fail with a typed error instead of degrading *)
}

let default =
  {
    max_levels = 10;
    min_window_rows = 2.5;
    clique_max_degree = 3;
    cg_tol = 1e-5;
    cg_max_iter = 300;
    domains = Fbp_util.Pool.get_default_domains ();
    hw_clamp = true;
    local_qp = true;
    deadline = None;
    strict = false;
  }

(* The domain budget of the parallel regions: [domains], clamped to the
   cores when [hw_clamp] is on.  Realization's waves and the global QP's
   x/y fork both pass it to [Pool.run_chunks], so [domains = 1] means no
   helper domain at all, and a region never runs on more domains. *)
let effective_domains cfg =
  max 1
    (if cfg.hw_clamp then min cfg.domains Fbp_util.Pool.hardware_domains
     else cfg.domains)
