(** Self-contained HTML run reports from flight-recorder records.

    {!render} turns a {!Fbp_obs.Recorder.t} into one HTML document with no
    external assets: provenance header, headline stat tiles, an
    HPWL-vs-level convergence curve (inline SVG), the per-phase wall-time
    breakdown as stacked bars, the final-placement density heatmap, and
    the per-level / counter / histogram tables.  Records carrying a
    [profile] section additionally get a per-domain utilization lane and a
    GC-pause breakdown.
    [fbp_place report run.json -o report.html] is the CLI wrapper. *)

val render : Fbp_obs.Recorder.t -> string
