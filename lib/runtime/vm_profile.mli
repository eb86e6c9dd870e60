(** VM hot-site profiler: raw counting state for the bytecode engine
    plus the aggregated report.

    This module owns the data; {!Bytecode} fills the counters from its
    dispatch loop and builds the {!report} (it alone can name opcodes
    and recognise branch instructions). A profiled VM runs on one
    domain, so the counters are plain unsynchronised [int array]s and
    the recording hot path is one bounds-unchecked load/store pair —
    and exactly one predictable branch when profiling is off. *)

(** Raw counting state: per-body-per-pc dispatch counts and
    per-function call counts. *)
type t = {
  body_counts : int array array;  (** by body id, then by pc *)
  call_counts : int array;  (** by function index *)
}

(** [create ~body_sizes ~nfuncs] preallocates zeroed counters;
    [body_sizes.(id)] is the instruction count of compiled body [id].
    Use {!Bytecode.make_profiler} rather than calling this directly. *)
val create : body_sizes:int array -> nfuncs:int -> t

type func_row = {
  fr_name : string;
  fr_instrs : int;  (** dispatches attributed to this body *)
  fr_calls : int;
      (** function-protocol invocations (0 for destructor and
          global-initializer bodies, which are dispatched directly) *)
}

type site_row = {
  sr_func : string;
  sr_pc : int;
  sr_op : string;  (** opcode mnemonic at the site *)
  sr_count : int;
}

(** The aggregated profile. Invariant: the opcode counts and the
    per-function instruction counts are two groupings of the same
    per-site counters, so both sum to [r_dispatches]. [r_steps] is the
    interpreter's statement-step counter, carried for cross-checking —
    dispatches and steps differ because statement ticks ride on
    instruction slots instead of being dispatched, and where
    superinstruction fusion collapses whole loop iterations
    ([ILoopScan]) into one dispatch. *)
type report = {
  r_steps : int;
  r_dispatches : int;
  r_typed : int;
      (** dispatches of typed (untagged-stack) opcodes; the generic
          count is [r_dispatches - r_typed] *)
  r_opcodes : (string * int) list;  (** descending by count *)
  r_functions : func_row list;  (** descending by instruction count *)
  r_sites : site_row list;  (** back-branch (loop) sites, descending *)
}

(** Human-readable table; [top] (default 20) bounds each section. *)
val to_text : ?top:int -> report -> string

(** The full report as one JSON object:
    [{"steps":..,"dispatches":..,"opcodes":[..],"functions":[..],
      "hot_sites":[..]}]. *)
val to_json : report -> string
