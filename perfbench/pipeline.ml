(* The two in-process workloads, paper-suite and pta-ladder: source text
   to a dead-member verdict, then a cold run, called through the layers'
   public functions on one domain.

   Every operation starts from source text: it lexes, parses and checks
   a fresh AST, so the run's resolve+compile cache, keyed by the AST's
   identity, always misses; no cache key is passed. A traced operation
   makes the same calls with telemetry on, inside the benchmark's own
   layer spans, and reads the program's counters around them. *)

open Harness

let span traced name f = if traced then Telemetry.Span.with_ name f else f ()
let words traced = if traced then alloc_words () else 0.

(* Program counters read around a traced operation. *)
let op_counters =
  [
    "sema.lookups"; "sema.lookup_cache_hits"; "sema.lookup_cache_misses";
    "sema.functions_checked"; "callgraph.pta_fallback_sites"; "pta.copy_edges";
    "pta.complex_constraints"; "pta.solver_iters"; "pta.delta_props";
    "pta.sets_interned"; "pta.memo_hits"; "interp.steps";
    "runtime.lower_cache.misses"; "runtime.lower_cache.hits";
  ]

type op_result = {
  verdict_ms : float;
  run_ms : float;
  errs : string list;
  counts : (string * int) list;  (** traced operations only *)
}

(* One operation: source text -> dead-member list at [config], then a
   cold [Interp.run] with that dead set. [check] judges the dead list
   and the run's outcome (or its runtime error). In a traced operation
   the counts that must repeat exactly come back with it, and the
   cold-path checks join [check]'s. *)
let operation ~traced ~config ~file ~src ~check =
  let before = if traced then List.map (fun n -> (n, counter n)) op_counters else [] in
  Telemetry.Span.with_ "bench.op" @@ fun () ->
  let t0 = now () in
  let w0 = words traced in
  let toks = span traced "frontend.lex" (fun () -> Frontend.Lexer.tokenize ~file src) in
  let ast = span traced "frontend.parse" (fun () -> Frontend.Parser.parse_tokens toks) in
  let w1 = words traced in
  let prog = span traced "sema.check" (fun () -> Sema.Type_check.check_program ast) in
  let w2 = words traced in
  let res, dead =
    span traced "deadmem.analyze" (fun () ->
        let res = Deadmem.Liveness.analyze ~config prog in
        (res, Deadmem.Liveness.dead_members res))
  in
  let w3 = words traced in
  let t1 = now () in
  let outcome =
    span traced "runtime.run" (fun () ->
        try Ok (Runtime.Interp.run ~dead:(Deadmem.Liveness.dead_set res) prog)
        with Runtime.Value.Runtime_error m -> Error m)
  in
  let t2 = now () in
  let dead = List.sort compare (List.map Sema.Member.to_string dead) in
  let errs = check dead outcome in
  if not traced then { verdict_ms = ms_between t0 t1; run_ms = ms_between t1 t2; errs; counts = [] }
  else begin
    let d n = counter n - List.assoc n before in
    let cg = res.Deadmem.Liveness.callgraph in
    let counts =
      [
        ("frontend.tokens", List.length toks);
        ("frontend.alloc_words", int_of_float (w1 -. w0));
        ("sema.alloc_words", int_of_float (w2 -. w1));
        ("deadmem.alloc_words", int_of_float (w3 -. w2));
        ("sema.lookups", d "sema.lookups");
        ("sema.lookup_cache_hits", d "sema.lookup_cache_hits");
        ("sema.lookup_cache_misses", d "sema.lookup_cache_misses");
        ("sema.functions_checked", d "sema.functions_checked");
        ("callgraph.nodes", Callgraph.num_nodes cg);
        ("callgraph.edges", Callgraph.num_edges cg);
        ("callgraph.fallback_sites", d "callgraph.pta_fallback_sites");
        ("pta.constraints", d "pta.copy_edges" + d "pta.complex_constraints");
        ("pta.rounds", d "pta.solver_iters");
        ("pta.delta_props", d "pta.delta_props");
        ("pta.sets_interned", d "pta.sets_interned");
        ("pta.memo_hits", d "pta.memo_hits");
        ("deadmem.dead_members", List.length dead);
        ("runtime.steps", d "interp.steps");
      ]
    in
    let cold =
      expect_int (file ^ " lowering-cache misses of one cold run") 1
        (d "runtime.lower_cache.misses")
      @ expect_int (file ^ " lowering-cache hits of one cold run") 0
          (d "runtime.lower_cache.hits")
      @
      if d "sema.functions_checked" > 0 then []
      else [ file ^ ": no function was type-checked" ]
    in
    {
      verdict_ms = ms_between t0 t1;
      run_ms = ms_between t1 t2;
      errs = errs @ cold @ det_check file counts;
      counts;
    }
  end

(* -- counts outside the timed operations ------------------------------------- *)

(* Per-input costs of the lowering and the VM, measured once per
   distinct input after the traced window by calling the layers
   directly: resolve and compile, then a VM with the hot-site profiler
   attached. [Interp.run] cannot report dispatches, and its cache probe
   makes its allocation depend on what the GC has collected. *)
let lowering_counts ~dead prog =
  let w0 = alloc_words () in
  let cp = Runtime.Bytecode.compile (Runtime.Resolve.program prog) in
  let w1 = alloc_words () in
  let profiler = Runtime.Bytecode.make_profiler cp in
  let instrs =
    Array.fold_left (fun a b -> a + Array.length b) 0 profiler.Runtime.Vm_profile.body_counts
  in
  let w2 = alloc_words () in
  let vm =
    Runtime.Bytecode.make_vm ~dead ~profiler ~step_limit:Runtime.Interp.default_step_limit
      ~call_depth_limit:Runtime.Interp.default_call_depth_limit
      ~heap_object_limit:Runtime.Interp.default_heap_object_limit cp
  in
  (try ignore (Runtime.Bytecode.execute vm) with Runtime.Value.Runtime_error _ -> ());
  let w3 = alloc_words () in
  let steps = Runtime.Bytecode.steps vm in
  let rep = Runtime.Bytecode.profile_report cp profiler ~steps in
  [
    ("runtime.bytecode_instrs", instrs);
    ("runtime.lower_alloc_words", int_of_float (w1 -. w0));
    ("runtime.vm_alloc_words", int_of_float (w3 -. w2));
    ("runtime.dispatches", rep.Runtime.Vm_profile.r_dispatches);
    ("runtime.profiled_steps", steps);
  ]

(* Words the two points-to solves of the PTA1 tier allocate, and the
   words their solutions keep reachable beyond the program itself. The
   verdict's own solves run inside [Liveness.analyze], where they cannot
   be isolated, so this repeats them standalone. *)
let pta_counts prog =
  let w0 = alloc_words () in
  let plain = Pta.analyze prog in
  let refined = Pta.analyze ~mode:Pta.OneCfa prog in
  let w1 = alloc_words () in
  let live =
    Obj.reachable_words (Obj.repr (plain, refined, prog)) - Obj.reachable_words (Obj.repr prog)
  in
  [ ("pta.alloc_words", int_of_float (w1 -. w0)); ("pta.live_words", live) ]

(* -- the run ------------------------------------------------------------------ *)

(* One measured unit: its mean verdict and run time per operation, its
   wall time and operations, and its host scale (see [Harness.host_scale]). *)
type unit_sample = {
  u_verdict : float;
  u_run : float;
  u_ms : float;
  u_ops : int;
  u_scale : float;
}

(* The units' wall times, scaled to the nominal host speed. *)
let unit_ms us = List.map (fun u -> u.u_ms *. u.u_scale) us

(* What a workload run hands to main.ml. Timing samples come from
   untraced units only. *)
type result = {
  untraced : unit_sample list;
  traced_units : unit_sample list;
  traced_ops : int;
  traced_op_ms : float;  (** wall time of the traced operations *)
  totals : (string * float) list;  (** summed counts of the traced operations *)
}

(* A workload: its distinct inputs and the operation on one of them.
   A measured unit is a pass over all inputs in a seeded order, so every
   timing sample has the same composition: the paper ports' own times
   lie 100x apart. *)
type 'input workload = {
  load : unit -> 'input array;
  op : traced:bool -> 'input -> op_result;
  side_counts : 'input -> (string * int) list;
      (** counts measured outside the timed operations, per input *)
  key : 'input -> string;
}

let run (w : 'input workload) ~seed ~seconds ~trace =
  let rng = Random.State.make [| seed |] in
  let setup () =
    let inputs = w.load () in
    Array.iter (fun i -> record_op (w.op ~traced:false i).errs) inputs;
    inputs
  in
  let traced_units = ref [] and untraced_units = ref [] in
  let traced_ops = ref 0 and traced_op_ms = ref 0. in
  let totals = Hashtbl.create 32 in
  let add (n, v) =
    Hashtbl.replace totals n (float_of_int v +. Option.value (Hashtbl.find_opt totals n) ~default:0.)
  in
  let traced_of = Hashtbl.create 8 in
  let unit inputs k =
    (* traced run: odd units are traced until the traced quota is met *)
    let traced = trace && k mod 2 = 1 && List.length !traced_units < traced_quota in
    Telemetry.set_enabled traced;
    let t0 = now () in
    let results =
      List.map
        (fun i ->
          let r = w.op ~traced i in
          record_op r.errs;
          if traced then begin
            incr traced_ops;
            traced_op_ms := !traced_op_ms +. r.verdict_ms +. r.run_ms;
            List.iter add r.counts;
            Hashtbl.replace traced_of (w.key i)
              (1 + Option.value (Hashtbl.find_opt traced_of (w.key i)) ~default:0)
          end;
          r)
        (shuffle rng (Array.to_list inputs))
    in
    Telemetry.set_enabled false;
    let u_ms = ms_between t0 (now ()) in
    let m f = mean (List.map f results) in
    fun u_scale ->
      let u =
        {
          u_verdict = m (fun r -> r.verdict_ms);
          u_run = m (fun r -> r.run_ms);
          u_ms;
          u_ops = List.length results;
          u_scale;
        }
      in
      if traced then traced_units := u :: !traced_units
      else untraced_units := u :: !untraced_units
  in
  let enough () =
    if trace then
      List.length !traced_units >= traced_quota && List.length !untraced_units >= traced_quota
    else List.length !untraced_units >= min_samples
  in
  run_segments ~seconds ~setup ~unit ~enough;
  (* per-input counts, measured twice (the two must agree and match the
     traced operations' step count), then added to the totals once per
     traced operation of that input *)
  if trace then
    Array.iter
      (fun i ->
        let key = "side counts of " ^ w.key i in
        let c = w.side_counts i in
        let errs = det_check key c @ det_check key (w.side_counts i) in
        let op_steps =
          Option.bind (Hashtbl.find_opt det_table (w.key i)) (List.assoc_opt "runtime.steps")
        in
        let errs =
          errs
          @ expect (key ^ ": profiled steps") (show_opt op_steps)
              (show_opt (List.assoc_opt "runtime.profiled_steps" c))
        in
        record_op errs;
        let n = Option.value (Hashtbl.find_opt traced_of (w.key i)) ~default:0 in
        List.iter (fun (name, v) -> add (name, n * v)) c)
      (w.load ());
  {
    untraced = !untraced_units;
    traced_units = !traced_units;
    traced_ops = !traced_ops;
    traced_op_ms = !traced_op_ms;
    totals = Hashtbl.fold (fun n v acc -> (n, v) :: acc) totals [];
  }

(* -- paper-suite ------------------------------------------------------------ *)

type port = { p_file : string; p_src : string; p_ref : Refs.port }

let check_port (r : Refs.port) dead = function
  | Error m -> [ r.name ^ " runtime error: " ^ m ]
  | Ok o -> Refs.diff r (Refs.of_outcome ~name:r.name ~dead o)

(* Source text -> typed program and dead set, untraced, for the counts
   taken outside the operations. *)
let checked ~config ~file src =
  let prog = Sema.Type_check.check_source ~file src in
  (prog, Deadmem.Liveness.dead_set (Deadmem.Liveness.analyze ~config prog))

let paper_suite : port workload =
  let config = Deadmem.Config.paper in
  {
    load =
      (fun () ->
        Array.of_list
          (List.map
             (fun (b : Benchmarks.Suite.t) ->
               { p_file = b.name ^ ".mcc"; p_src = b.source; p_ref = Refs.port b.name })
             Benchmarks.Suite.all));
    op =
      (fun ~traced p ->
        operation ~traced ~config ~file:p.p_file ~src:p.p_src ~check:(check_port p.p_ref));
    side_counts =
      (fun p ->
        let prog, dead = checked ~config ~file:p.p_file p.p_src in
        lowering_counts ~dead prog);
    key = (fun p -> p.p_file);
  }

(* -- pta-ladder ------------------------------------------------------------- *)

(* Synth staggering ladders of one fixed shape, at three pinned
   generator seeds; the workload seed orders each pass. A ladder's cost
   follows its number of field accesses, which the generator draws at
   random: between generator seeds it varies by about 10% at this size,
   so ladders drawn from the workload seed made runs with different
   seeds measure different work. Many short chains keep the program
   large while each verdict stays near 70 ms. *)
let ladder_seeds = [ 1; 2; 3 ]

let ladder_shape seed =
  { Benchmarks.Synth.seed; classes = 24; sites = 96; chains = 8; chain_len = 40 }

type ladder = { l_file : string; l_src : string; l_dead : string list; l_error : string }

(* The generator writes every [NodeK::padK] and never reads one; every
   other member is read. Its [main] reads the source global before any
   rung is filled, so [chain_0] fails at its first dereference: a
   virtual call if that is a call of [id], a field access otherwise. *)
let expected_error src =
  let rec find pat i =
    if String.sub src i (String.length pat) = pat then i else find pat (i + 1)
  in
  let arrow = find "->" (find "int chain_0() {" 0) in
  if String.sub src arrow 6 = "->id()" then "virtual call on null pointer"
  else "expected a class object"

let make_ladder seed =
  let p = ladder_shape seed in
  let src = Benchmarks.Synth.source p in
  {
    l_file = Printf.sprintf "ladder-%d.mcc" seed;
    l_src = src;
    l_dead = List.sort compare (List.init p.classes (fun k -> Printf.sprintf "Node%d::pad%d" k k));
    l_error = expected_error src;
  }

let check_ladder (l : ladder) dead outcome =
  expect (l.l_file ^ " dead set") (String.concat "," l.l_dead) (String.concat "," dead)
  @
  match outcome with
  | Error m -> expect (l.l_file ^ " runtime error") l.l_error m
  | Ok _ -> [ l.l_file ^ ": ran to completion, want a null dereference" ]

let ladder_config = { Deadmem.Config.paper with call_graph = Callgraph.Pta1 }

let pta_ladder : ladder workload =
  {
    load = (fun () -> Array.of_list (List.map make_ladder ladder_seeds));
    op =
      (fun ~traced l ->
        operation ~traced ~config:ladder_config ~file:l.l_file ~src:l.l_src
          ~check:(check_ladder l));
    side_counts =
      (fun l ->
        let prog, dead = checked ~config:ladder_config ~file:l.l_file l.l_src in
        lowering_counts ~dead prog @ pta_counts prog);
    key = (fun l -> l.l_file);
  }
